//! Shared harness utilities for the table/figure binaries.
//!
//! Every binary regenerates one table or figure of the paper (see
//! DESIGN.md §4) and prints it as an aligned text table: raw virtual
//! seconds, the ×1024 "paper-equivalent" seconds, GC fractions, peak
//! heaps and OME markers.

pub mod dumpfmt;
pub mod metricsfmt;
pub mod programs;
pub mod series;
pub mod sweep;
pub mod tracefmt;

pub use series::Series;
use simcore::{ByteSize, SimDuration, SCALE};

/// One measured cell of a table/figure.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Completed?
    pub ok: bool,
    /// End-to-end virtual time.
    pub elapsed: SimDuration,
    /// GC time on the critical path.
    pub gc: SimDuration,
    /// Peak per-node heap.
    pub peak: ByteSize,
}

impl Cell {
    /// Builds a cell from a run summary.
    pub fn from_summary<T>(s: &apps::RunSummary<T>) -> Self {
        Cell {
            ok: s.ok(),
            elapsed: s.report.elapsed,
            gc: s.report.critical_path_gc(),
            peak: s.peak_heap(),
        }
    }

    /// Paper-equivalent seconds (virtual × SCALE).
    pub fn paper_secs(&self) -> f64 {
        self.elapsed.as_secs_f64() * SCALE as f64
    }

    /// GC share of elapsed time.
    pub fn gc_frac(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.gc.as_secs_f64() / self.elapsed.as_secs_f64()
        }
    }

    /// `"123.4s (gc 45%)"` or `"OME@67.8s"`.
    pub fn show(&self) -> String {
        if self.ok {
            format!(
                "{:7.1}s (gc {:2.0}%)",
                self.paper_secs(),
                self.gc_frac() * 100.0
            )
        } else {
            format!("OME@{:.1}s", self.paper_secs())
        }
    }
}

/// Prints an aligned table: a header row then data rows.
pub fn print_table(title: &str, header: &[String], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(header));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1))
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Column helper.
pub fn cols(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| s.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_formats_success_and_failure() {
        let ok = Cell {
            ok: true,
            elapsed: SimDuration::from_millis(100),
            gc: SimDuration::from_millis(50),
            peak: ByteSize::mib(1),
        };
        assert!(ok.show().contains("gc 50%"));
        assert!((ok.paper_secs() - 102.4).abs() < 1e-6);
        let bad = Cell { ok: false, ..ok };
        assert!(bad.show().starts_with("OME@"));
    }
}

/// Writes rows as CSV (for plotting); the first row is the header.
///
/// Values are written verbatim; callers supply already-formatted
/// numbers. Fields containing commas or quotes are quoted.
pub fn write_csv(path: &str, header: &[String], rows: &[Vec<String>]) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::File::create(path)?;
    let escape = |s: &str| {
        if s.contains(',') || s.contains('"') || s.contains('\n') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    };
    let mut line = |cells: &[String]| -> std::io::Result<()> {
        let joined: Vec<String> = cells.iter().map(|c| escape(c)).collect();
        writeln!(f, "{}", joined.join(","))
    };
    line(header)?;
    for row in rows {
        line(row)?;
    }
    Ok(())
}

/// Machine-readable form of a [`Cell`]: `status,paper_secs,gc_frac,peak_bytes`.
pub fn cell_csv(cell: &Cell) -> Vec<String> {
    vec![
        if cell.ok { "ok".into() } else { "oom".into() },
        format!("{:.3}", cell.paper_secs()),
        format!("{:.4}", cell.gc_frac()),
        cell.peak.as_u64().to_string(),
    ]
}

#[cfg(test)]
mod csv_tests {
    use super::*;

    #[test]
    fn csv_roundtrip_and_escaping() {
        let path = std::env::temp_dir().join("itask_bench_csv_test.csv");
        let path = path.to_str().unwrap();
        write_csv(
            path,
            &cols(&["a", "b"]),
            &[
                vec!["1,2".into(), "plain".into()],
                vec!["x\"y".into(), "z".into()],
            ],
        )
        .unwrap();
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(content.lines().count(), 3);
        assert!(content.contains("\"1,2\""));
        assert!(content.contains("\"x\"\"y\""));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn cell_csv_fields() {
        let cell = Cell {
            ok: false,
            elapsed: SimDuration::from_millis(10),
            gc: SimDuration::from_millis(5),
            peak: ByteSize(123),
        };
        let row = cell_csv(&cell);
        assert_eq!(row[0], "oom");
        assert_eq!(row[3], "123");
    }
}
