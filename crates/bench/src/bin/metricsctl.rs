//! Metrics-analysis CLI for `--metrics` dumps.
//!
//! ```text
//! metricsctl report <dump> [--threshold F]
//!                             per-run rollups (finals/peaks per
//!                             metric), histogram tails, memory-
//!                             pressure windows (live/heap >= F,
//!                             default 0.9) and the pressure-vs-
//!                             interrupt phase alignment
//! metricsctl diff <a> <b>     label-matched A/B final-value and
//!                             histogram deltas
//! ```
//!
//! Paths may point at either the JSONL dump (`foo.jsonl`) or the
//! OpenMetrics snapshot twin (`foo.jsonl.om`); analysis always reads
//! the JSONL form, falling back to the path without the `.om` suffix.

use itask_bench::metricsfmt;

const DEFAULT_THRESHOLD: f64 = 0.9;

fn usage() -> ! {
    eprintln!("usage: metricsctl report <dump> [--threshold F] | metricsctl diff <a> <b>");
    std::process::exit(2);
}

/// Resolves a user-supplied path to the JSONL file to analyze.
fn jsonl_path(arg: &str) -> String {
    match arg.strip_suffix(".om") {
        Some(base) if std::path::Path::new(base).exists() => base.to_string(),
        _ => arg.to_string(),
    }
}

fn load(arg: &str) -> Vec<metricsfmt::MetricsRun> {
    let path = jsonl_path(arg);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("metricsctl: cannot read {path}: {e}");
        std::process::exit(1);
    });
    metricsfmt::load_jsonl(&text).unwrap_or_else(|e| {
        eprintln!("metricsctl: {path}: {e}");
        std::process::exit(1);
    })
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut threshold = DEFAULT_THRESHOLD;
    if let Some(i) = args.iter().position(|a| a == "--threshold") {
        // `parse` accepts "NaN" and "inf"; a ratio of live to heap bytes
        // is a finite number in [0, 1].
        let Some(v) = args
            .get(i + 1)
            .and_then(|v| v.parse::<f64>().ok())
            .filter(|v| (0.0..=1.0).contains(v))
        else {
            eprintln!("metricsctl: --threshold requires a number in [0, 1]");
            std::process::exit(2);
        };
        threshold = v;
        args.drain(i..i + 2);
    }
    match args.first().map(String::as_str) {
        Some("report") if args.len() == 2 => {
            print!("{}", metricsfmt::report(&load(&args[1]), threshold));
        }
        Some("diff") if args.len() == 3 => {
            print!("{}", metricsfmt::diff(&load(&args[1]), &load(&args[2])));
        }
        _ => usage(),
    }
}
