//! Figure 9 (a–e): execution time (GC + compute) of the *regular*
//! programs as the thread count varies, per dataset. OME'd
//! configurations are marked instead of plotted, exactly as the paper
//! omits them.
//!
//! Usage: `fig9 [--jobs N] [program ...]` where program ∈ {wc, hs, ii,
//! hj, gr}; default all. `fig9 --quick` restricts to the two smallest
//! datasets.

use itask_bench::programs::{params, Program, PROGRAMS, THREADS};
use itask_bench::{cell_csv, cols, print_table, sweep, write_csv, Cell};

fn render(p: &Program, n_sets: usize, csv: Option<&str>, cells: &mut impl Iterator<Item = Cell>) {
    let mut header = vec!["dataset".to_string()];
    header.extend(THREADS.iter().map(|t| format!("{t} thr")));
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for (ds, _) in &p.datasets[..n_sets] {
        let mut row = vec![ds.label().to_string()];
        for &t in &THREADS {
            let cell = cells.next().expect("grid cell");
            row.push(cell.show());
            let mut rec = vec![ds.label().to_string(), t.to_string()];
            rec.extend(cell_csv(&cell));
            csv_rows.push(rec);
        }
        rows.push(row);
    }
    print_table(
        &format!("Figure 9: {} (regular, time by threads)", p.title),
        &header,
        &rows,
    );
    if let Some(dir) = csv {
        let path = format!("{dir}/fig9_{}.csv", p.name);
        let header = cols(&[
            "dataset",
            "threads",
            "status",
            "paper_secs",
            "gc_frac",
            "peak_bytes",
        ]);
        if let Err(e) = write_csv(&path, &header, &csv_rows) {
            eprintln!("csv write failed ({path}): {e}");
        } else {
            println!("(csv: {path})");
        }
    }
}

fn main() {
    let mut h = sweep::harness("fig9");
    let quick = h.flag("--quick");
    // `--csv <dir>`: also write one machine-readable file per program.
    let csv = h.value("--csv");
    h.end_flags();
    let progs: Vec<&Program> = PROGRAMS.iter().filter(|p| h.wants(p.key)).collect();
    let n_for = |p: &Program| if quick { 2 } else { p.datasets.len() };

    // Every (program, dataset, threads) run is independent: one batch.
    let mut specs = Vec::new();
    for &p in &progs {
        for &(ds, _) in &p.datasets[..n_for(p)] {
            for t in THREADS {
                specs.push(sweep::spec(
                    format!("fig9 {} {} t{t}", p.key, ds.label()),
                    move || p.run(ds, false, &params(t)),
                ));
            }
        }
    }
    let mut cells = h.run(specs).into_iter();
    for p in progs {
        render(p, n_for(p), csv.as_deref(), &mut cells);
    }
    h.finish();
}
