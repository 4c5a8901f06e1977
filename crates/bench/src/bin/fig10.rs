//! Figure 10: the ITask version of each Hyracks program vs the regular
//! version under its best configuration, per dataset — time breakdown
//! (GC vs compute) and peak per-node memory.
//!
//! The regular "best configuration" is found the way the paper did it:
//! sweep thread counts and take the fastest *successful* run (OME runs
//! are reported as failures, as Figure 10 greys them out).
//!
//! Usage: `fig10 [--jobs N] [program ...]`, programs ∈ {wc, hs, ii, hj, gr}.

use itask_bench::programs::{best_regular, params, Program, PROGRAMS, THREADS};
use itask_bench::{cell_csv, cols, print_table, sweep, write_csv, Cell};

fn render(p: &Program, csv: Option<&str>, cells: &mut impl Iterator<Item = Cell>) {
    let header = cols(&[
        "dataset",
        "regular (best cfg)",
        "thr",
        "ITask",
        "peak reg",
        "peak ITask",
    ]);
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for (ds, _) in p.datasets {
        let label = ds.label();
        let (best_t, reg) = best_regular(cells);
        let it = cells.next().expect("itask cell");
        rows.push(vec![
            label.to_string(),
            reg.show(),
            best_t.map(|t| t.to_string()).unwrap_or_else(|| "-".into()),
            it.show(),
            format!("{}", reg.peak),
            format!("{}", it.peak),
        ]);
        let mut rec = vec![label.to_string(), "regular".to_string()];
        rec.extend(cell_csv(&reg));
        csv_rows.push(rec);
        let mut rec = vec![label.to_string(), "itask".to_string()];
        rec.extend(cell_csv(&it));
        csv_rows.push(rec);
    }
    print_table(
        &format!("Figure 10: {} — ITask vs best regular", p.name),
        &header,
        &rows,
    );
    if let Some(dir) = csv {
        let path = format!("{dir}/fig10_{}.csv", p.name);
        let header = cols(&[
            "dataset",
            "version",
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
    let mut h = sweep::harness("fig10");
    // `--csv <dir>`: also write one machine-readable file per program.
    let csv = h.value("--csv");
    h.end_flags(&PROGRAMS.each_ref().map(|p| p.key));
    let progs: Vec<&Program> = PROGRAMS.iter().filter(|p| h.wants(p.key)).collect();

    // Per program and dataset: thread sweep then the ITask run, all
    // independent — one batch.
    let mut specs = Vec::new();
    for &p in &progs {
        for &(ds, _) in p.datasets {
            for t in THREADS {
                specs.push(sweep::spec(
                    format!("fig10 {} {} reg t{t}", p.key, ds.label()),
                    move || p.run(ds, false, &params(t)),
                ));
            }
            specs.push(sweep::spec(
                format!("fig10 {} {} itask", p.key, ds.label()),
                move || p.run(ds, true, &params(8)),
            ));
        }
    }
    let mut cells = h.run(specs).into_iter();
    for p in progs {
        render(p, csv.as_deref(), &mut cells);
    }
    h.finish();
}
