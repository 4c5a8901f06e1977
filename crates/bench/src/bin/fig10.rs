//! Figure 10: the ITask version of each Hyracks program vs the regular
//! version under its best configuration, per dataset — time breakdown
//! (GC vs compute) and peak per-node memory.
//!
//! The regular "best configuration" is found the way the paper did it:
//! sweep thread counts and take the fastest *successful* run (OME runs
//! are reported as failures, as Figure 10 greys them out).
//!
//! Usage: `fig10 [--jobs N] [program ...]`, programs ∈ {wc, hs, ii, hj, gr}.

use apps::hyracks_apps::{gr, hj, hs, ii, wc, HyracksParams};
use itask_bench::sweep::{self, RunSpec};
use itask_bench::{cell_csv, print_table, write_csv, Cell};
use workloads::tpch::TpchScale;
use workloads::webmap::WebmapSize;

const THREADS: [usize; 5] = [1, 2, 4, 6, 8];

fn params(threads: usize) -> HyracksParams {
    HyracksParams {
        threads,
        ..HyracksParams::default()
    }
}

/// Best (fastest successful) regular run across thread counts, replayed
/// from the thread-sweep cells in THREADS order.
fn best_regular(cells: &mut impl Iterator<Item = Cell>) -> (Option<usize>, Cell) {
    let mut best: Option<(usize, Cell)> = None;
    for &t in &THREADS {
        let cell = cells.next().expect("regular cell");
        if cell.ok {
            match &best {
                Some((_, b)) if b.ok && b.elapsed <= cell.elapsed => {}
                _ => best = Some((t, cell.clone())),
            }
        } else if best.is_none() {
            best = Some((t, cell));
        }
    }
    let (t, cell) = best.expect("at least one configuration attempted");
    (cell.ok.then_some(t), cell)
}

fn render(
    name: &str,
    datasets: &[&str],
    csv: Option<&str>,
    cells: &mut impl Iterator<Item = Cell>,
) {
    let header: Vec<String> = [
        "dataset",
        "regular (best cfg)",
        "thr",
        "ITask",
        "peak reg",
        "peak ITask",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for label in datasets.iter() {
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
        &format!("Figure 10: {name} — ITask vs best regular"),
        &header,
        &rows,
    );
    if let Some(dir) = csv {
        let path = format!("{dir}/fig10_{name}.csv");
        let header = [
            "dataset",
            "version",
            "status",
            "paper_secs",
            "gc_frac",
            "peak_bytes",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>();
        if let Err(e) = write_csv(&path, &header, &csv_rows) {
            eprintln!("csv write failed ({path}): {e}");
        } else {
            println!("(csv: {path})");
        }
    }
}

fn main() {
    let mut h = sweep::harness();
    let jobs = h.jobs;
    // `--csv <dir>`: also write one machine-readable file per program.
    let csv = h.value("--csv");
    let csv = csv.as_deref();
    let args = h.args.clone();
    let want = |p: &str| args.is_empty() || args.iter().any(|a| a == p);
    let webmap: Vec<WebmapSize> = {
        let mut v = WebmapSize::ALL.to_vec();
        v.reverse();
        v
    };
    let web_labels: Vec<&str> = webmap.iter().map(|s| s.label()).collect();
    let tpch = TpchScale::TABLE4;
    let tpch_labels: Vec<&str> = tpch.iter().map(|s| s.label()).collect();
    let mut log = h.log("fig10");

    // Per program and dataset: thread sweep then the ITask run, all
    // independent — one batch.
    let progs: Vec<&str> = ["wc", "hs", "ii", "hj", "gr"]
        .into_iter()
        .filter(|p| want(p))
        .collect();
    let mut specs: Vec<RunSpec<Cell>> = Vec::new();
    for &p in &progs {
        let labels: &[&str] = match p {
            "wc" | "hs" | "ii" => &web_labels,
            _ => &tpch_labels,
        };
        for d in 0..labels.len() {
            for &t in &THREADS {
                let (webmap, tpch) = (&webmap, &tpch);
                specs.push(sweep::spec(
                    format!("fig10 {p} {} reg t{t}", labels[d]),
                    move || match p {
                        "wc" => Cell::from_summary(&wc::run_regular(webmap[d], &params(t))),
                        "hs" => Cell::from_summary(&hs::run_regular(webmap[d], &params(t))),
                        "ii" => Cell::from_summary(&ii::run_regular(webmap[d], &params(t))),
                        "hj" => Cell::from_summary(&hj::run_regular(tpch[d], &params(t))),
                        _ => Cell::from_summary(&gr::run_regular(tpch[d], &params(t))),
                    },
                ));
            }
            let (webmap, tpch) = (&webmap, &tpch);
            specs.push(sweep::spec(
                format!("fig10 {p} {} itask", labels[d]),
                move || match p {
                    "wc" => Cell::from_summary(&wc::run_itask(webmap[d], &params(8))),
                    "hs" => Cell::from_summary(&hs::run_itask(webmap[d], &params(8))),
                    "ii" => Cell::from_summary(&ii::run_itask(webmap[d], &params(8))),
                    "hj" => Cell::from_summary(&hj::run_itask(tpch[d], &params(8))),
                    _ => Cell::from_summary(&gr::run_itask(tpch[d], &params(8))),
                },
            ));
        }
    }
    let out = sweep::run_all(jobs, specs);
    log.absorb(&out);
    let mut cells = out.into_iter().map(|o| o.result);

    for &p in &progs {
        let (name, labels): (&str, &[&str]) = match p {
            "wc" => ("WC", &web_labels),
            "hs" => ("HS", &web_labels),
            "ii" => ("II", &web_labels),
            "hj" => ("HJ", &tpch_labels),
            _ => ("GR", &tpch_labels),
        };
        render(name, labels, csv, &mut cells);
    }
    log.finish();
}
