//! Trace-analysis CLI for `--trace` dumps.
//!
//! ```text
//! tracectl report <trace>     per-run GC shares, interrupt-chain
//!                             latency distributions, Figure-3-style
//!                             sequencing, per-tenant breakdowns
//! tracectl diff <a> <b>       A/B event-count and latency deltas
//! ```
//!
//! Paths may point at either the Chrome JSON (`foo.json`) or its
//! compact JSONL twin (`foo.json.jsonl`); analysis always reads the
//! JSONL form, falling back to the `<path>.jsonl` sibling when given
//! the Chrome file. The Chrome file itself needs no conversion: it
//! opens as is in Perfetto or `chrome://tracing`, causal spans included.

use itask_bench::tracefmt;

fn usage() -> ! {
    eprintln!("usage: tracectl report <trace> | tracectl diff <a> <b>");
    std::process::exit(2);
}

/// Resolves a user-supplied path to the JSONL file to analyze.
fn jsonl_path(arg: &str) -> String {
    if (arg.ends_with(".jsonl") || std::path::Path::new(arg).extension().is_none())
        && std::path::Path::new(arg).exists()
    {
        return arg.to_string();
    }
    let sibling = format!("{arg}.jsonl");
    if std::path::Path::new(&sibling).exists() {
        sibling
    } else {
        arg.to_string()
    }
}

fn load(arg: &str) -> Vec<tracefmt::TraceRun> {
    let path = jsonl_path(arg);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("tracectl: cannot read {path}: {e}");
        std::process::exit(1);
    });
    tracefmt::load_jsonl(&text).unwrap_or_else(|e| {
        eprintln!("tracectl: {path}: {e}");
        std::process::exit(1);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("report") if args.len() == 2 => {
            print!("{}", tracefmt::report(&load(&args[1])));
        }
        Some("diff") if args.len() == 3 => {
            print!("{}", tracefmt::diff(&load(&args[1]), &load(&args[2])));
        }
        _ => usage(),
    }
}
