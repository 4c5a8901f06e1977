//! Figure 9 (a–e): execution time (GC + compute) of the *regular*
//! programs as the thread count varies, per dataset. OME'd
//! configurations are marked instead of plotted, exactly as the paper
//! omits them.
//!
//! Usage: `fig9 [--jobs N] [program ...]` where program ∈ {wc, hs, ii,
//! hj, gr}; default all. `fig9 --quick` restricts to the two smallest
//! datasets.

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

fn render(
    name: &str,
    datasets: &[&str],
    n_sets: usize,
    csv: Option<&str>,
    cells: &mut impl Iterator<Item = Cell>,
) {
    let mut header = vec!["dataset".to_string()];
    header.extend(THREADS.iter().map(|t| format!("{t} thr")));
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for label in datasets.iter().take(n_sets) {
        let mut row = vec![label.to_string()];
        for &t in &THREADS {
            let cell = cells.next().expect("grid cell");
            row.push(cell.show());
            let mut rec = vec![label.to_string(), t.to_string()];
            rec.extend(cell_csv(&cell));
            csv_rows.push(rec);
        }
        rows.push(row);
    }
    print_table(
        &format!("Figure 9: {name} (regular, time by threads)"),
        &header,
        &rows,
    );
    if let Some(dir) = csv {
        let path = format!("{dir}/fig9_{}.csv", name.split(' ').next().unwrap_or(name));
        let header = [
            "dataset",
            "threads",
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
    let quick = h.flag("--quick");
    // `--csv <dir>`: also write one machine-readable file per program.
    let csv = h.value("--csv");
    let csv = csv.as_deref();
    let args = h.args.clone();
    let want = |p: &str| args.is_empty() || args.iter().any(|a| a == p);
    // Smallest-first so partial output is useful.
    let webmap: Vec<WebmapSize> = {
        let mut v = WebmapSize::ALL.to_vec();
        v.reverse();
        v
    };
    let web_labels: Vec<&str> = webmap.iter().map(|s| s.label()).collect();
    let tpch = TpchScale::TABLE4;
    let tpch_labels: Vec<&str> = tpch.iter().map(|s| s.label()).collect();
    let mut log = h.log("fig9");

    // Every (program, dataset, threads) run is independent: one batch.
    let progs: Vec<&str> = ["wc", "hs", "ii", "hj", "gr"]
        .into_iter()
        .filter(|p| want(p))
        .collect();
    let n_for = |p: &str| {
        let full = match p {
            "wc" | "hs" | "ii" => web_labels.len(),
            _ => tpch_labels.len(),
        };
        if quick {
            full.min(2)
        } else {
            full
        }
    };
    let mut specs: Vec<RunSpec<Cell>> = Vec::new();
    for &p in &progs {
        let labels: &[&str] = match p {
            "wc" | "hs" | "ii" => &web_labels,
            _ => &tpch_labels,
        };
        for d in 0..n_for(p) {
            for &t in &THREADS {
                let (webmap, tpch) = (&webmap, &tpch);
                specs.push(sweep::spec(
                    format!("fig9 {p} {} t{t}", labels[d]),
                    move || match p {
                        "wc" => Cell::from_summary(&wc::run_regular(webmap[d], &params(t))),
                        "hs" => Cell::from_summary(&hs::run_regular(webmap[d], &params(t))),
                        "ii" => Cell::from_summary(&ii::run_regular(webmap[d], &params(t))),
                        "hj" => Cell::from_summary(&hj::run_regular(tpch[d], &params(t))),
                        _ => Cell::from_summary(&gr::run_regular(tpch[d], &params(t))),
                    },
                ));
            }
        }
    }
    let out = sweep::run_all(jobs, specs);
    log.absorb(&out);
    let mut cells = out.into_iter().map(|o| o.result);

    for &p in &progs {
        let (name, labels): (&str, &[&str]) = match p {
            "wc" => ("WC (word count)", &web_labels),
            "hs" => ("HS (heap sort)", &web_labels),
            "ii" => ("II (inverted index)", &web_labels),
            "hj" => ("HJ (hash join)", &tpch_labels),
            _ => ("GR (group by)", &tpch_labels),
        };
        render(name, labels, n_for(p), csv, &mut cells);
    }
    log.finish();
}
