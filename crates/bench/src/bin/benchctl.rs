//! Bench-trajectory CLI: record and gate wall-clock baselines.
//!
//! ```text
//! benchctl record <sweeps.json> <trajectory.json>
//!                             fold per-run wall times into the
//!                             committed (bin, label) -> median-ms
//!                             baseline
//! benchctl gate <trajectory.json> <sweeps.json> [--tolerance F]
//!                             compare a fresh sweeps file against the
//!                             baseline; exit 1 when any run exceeds
//!                             baseline x F (default 5.0) or a baseline
//!                             label disappeared
//! ```
//!
//! Wall times are host-dependent: the gate is a coarse tripwire for
//! order-of-magnitude regressions, not a benchmark suite.

use itask_bench::trajectory;

const DEFAULT_TOLERANCE: f64 = 5.0;

fn usage() -> ! {
    eprintln!(
        "usage: benchctl record <sweeps.json> <trajectory.json> | benchctl gate <trajectory.json> <sweeps.json> [--tolerance F]"
    );
    std::process::exit(2);
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("benchctl: cannot read {path}: {e}");
        std::process::exit(1);
    })
}

/// Takes `--tolerance F` off the argument list (`None` when malformed).
/// `F` must be finite and > 0: `inf` would pass every row, while `0`
/// and `nan` fail them all.
fn take_tolerance(args: &mut Vec<String>) -> Option<f64> {
    let Some(i) = args.iter().position(|a| a == "--tolerance") else {
        return Some(DEFAULT_TOLERANCE);
    };
    let v = args.get(i + 1)?.parse::<f64>().ok()?;
    args.drain(i..i + 2);
    (v.is_finite() && v > 0.0).then_some(v)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let Some(tolerance) = take_tolerance(&mut args) else {
        eprintln!("benchctl: --tolerance requires a finite number > 0");
        std::process::exit(2);
    };
    match args.first().map(String::as_str) {
        Some("record") if args.len() == 3 => {
            let entries = trajectory::parse_sweeps(&read(&args[1])).unwrap_or_else(|e| {
                eprintln!("benchctl: {}: {e}", args[1]);
                std::process::exit(1);
            });
            let doc = trajectory::render(&entries);
            std::fs::write(&args[2], &doc).unwrap_or_else(|e| {
                eprintln!("benchctl: cannot write {}: {e}", args[2]);
                std::process::exit(1);
            });
            println!("recorded {} entries to {}", entries.len(), args[2]);
        }
        Some("gate") if args.len() == 3 => {
            let baseline = trajectory::parse_trajectory(&read(&args[1])).unwrap_or_else(|e| {
                eprintln!("benchctl: {}: {e}", args[1]);
                std::process::exit(1);
            });
            let current = trajectory::parse_sweeps(&read(&args[2])).unwrap_or_else(|e| {
                eprintln!("benchctl: {}: {e}", args[2]);
                std::process::exit(1);
            });
            let g = trajectory::gate(&baseline, &current, tolerance);
            print!("{}", g.report);
            if g.failures > 0 {
                std::process::exit(1);
            }
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Option<f64> {
        take_tolerance(&mut args.iter().map(|a| a.to_string()).collect())
    }

    #[test]
    fn tolerance_must_be_finite_and_positive() {
        assert_eq!(parse(&["gate", "a", "b"]), Some(DEFAULT_TOLERANCE));
        assert_eq!(parse(&["gate", "--tolerance", "1.3", "a", "b"]), Some(1.3));
        for bad in ["inf", "-inf", "nan", "NaN", "0", "-0.0", "-2", "fast"] {
            assert_eq!(
                parse(&["gate", "a", "b", "--tolerance", bad]),
                None,
                "{bad}"
            );
        }
        assert_eq!(parse(&["gate", "a", "b", "--tolerance"]), None);
    }
}
