//! Table 5: scalability of the *regular* programs under 12GB heaps —
//! the largest dataset each program can process, with the thread count
//! and task granularity that give the best performance there.
//!
//! Usage: `table5 [--jobs N] [program ...]`; `--quick` narrows the
//! granularity sweep to 16/32KB.

use apps::hyracks_apps::{gr, hj, hs, ii, wc, HyracksParams};
use apps::RunSummary;
use itask_bench::sweep::{self, SweepLog};
use itask_bench::{cols, print_table};
use simcore::{ByteSize, SimDuration, SCALE};
use workloads::tpch::TpchScale;
use workloads::webmap::WebmapSize;

const THREADS: [usize; 5] = [1, 2, 4, 6, 8];
const GRANS_KIB: [u64; 5] = [8, 16, 32, 64, 128];

fn params(threads: usize, gran_kib: u64) -> HyracksParams {
    HyracksParams {
        threads,
        granularity: ByteSize::kib(gran_kib),
        ..HyracksParams::default()
    }
}

/// Finds the largest dataset index with any successful (threads, gran)
/// configuration, plus the best configuration there.
///
/// Datasets stay sequential (the serial harness stops at the first one
/// with no viable configuration, and we do no extra work either), but
/// each dataset's whole (threads × granularity) grid fans out across
/// the worker pool. Selection replays outcomes in grid order, so the
/// winner — and the printed row — matches a serial sweep exactly.
fn scalability<T: Send>(
    jobs: usize,
    log: &mut SweepLog,
    name: &str,
    labels: &[&str],
    grans: &[u64],
    run: impl Fn(usize, usize, u64) -> RunSummary<T> + Sync,
) -> Vec<String> {
    let mut best: Option<(usize, usize, u64, SimDuration)> = None;
    for (d, label) in labels.iter().enumerate() {
        let run = &run;
        let mut specs = Vec::new();
        for &t in &THREADS {
            for &g in grans {
                specs.push(sweep::spec(
                    format!("table5 {name} {label} t{t} g{g}KiB"),
                    move || {
                        let s = run(d, t, g);
                        (s.ok(), s.report.elapsed)
                    },
                ));
            }
        }
        let outcomes = sweep::run_all(jobs, specs);
        log.absorb(&outcomes);
        let mut results = outcomes.into_iter().map(|o| o.result);
        let mut best_here: Option<(usize, u64, SimDuration)> = None;
        for &t in &THREADS {
            for &g in grans {
                let (ok, e) = results.next().expect("grid outcome");
                if ok && best_here.map(|b| e < b.2).unwrap_or(true) {
                    best_here = Some((t, g, e));
                }
            }
        }
        match best_here {
            Some((t, g, e)) => best = Some((d, t, g, e)),
            None => break, // larger datasets will not fare better
        }
    }
    match best {
        Some((d, t, g, e)) => vec![
            name.to_string(),
            labels[d].to_string(),
            t.to_string(),
            format!("{g}KB"),
            format!("{:.1}s", e.as_secs_f64() * SCALE as f64),
        ],
        None => vec![
            name.to_string(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
        ],
    }
}

fn main() {
    let mut h = sweep::harness();
    let jobs = h.jobs;
    let quick = h.flag("--quick");
    let args = h.args.clone();
    let want = |p: &str| args.is_empty() || args.iter().any(|a| a == p);
    let grans: Vec<u64> = if quick {
        vec![16, 32]
    } else {
        GRANS_KIB.to_vec()
    };
    let mut log = h.log("table5");

    let webmap: Vec<WebmapSize> = {
        let mut v = WebmapSize::ALL.to_vec();
        v.reverse();
        v
    };
    let web_labels: Vec<&str> = webmap.iter().map(|s| s.label()).collect();
    let tpch = TpchScale::TABLE4;
    let tpch_labels: Vec<&str> = tpch.iter().map(|s| s.label()).collect();

    let mut rows = Vec::new();
    if want("wc") {
        rows.push(scalability(
            jobs,
            &mut log,
            "WC",
            &web_labels,
            &grans,
            |d, t, g| wc::run_regular(webmap[d], &params(t, g)),
        ));
    }
    if want("hs") {
        rows.push(scalability(
            jobs,
            &mut log,
            "HS",
            &web_labels,
            &grans,
            |d, t, g| hs::run_regular(webmap[d], &params(t, g)),
        ));
    }
    if want("ii") {
        rows.push(scalability(
            jobs,
            &mut log,
            "II",
            &web_labels,
            &grans,
            |d, t, g| ii::run_regular(webmap[d], &params(t, g)),
        ));
    }
    if want("hj") {
        rows.push(scalability(
            jobs,
            &mut log,
            "HJ",
            &tpch_labels,
            &grans,
            |d, t, g| hj::run_regular(tpch[d], &params(t, g)),
        ));
    }
    if want("gr") {
        rows.push(scalability(
            jobs,
            &mut log,
            "GR",
            &tpch_labels,
            &grans,
            |d, t, g| gr::run_regular(tpch[d], &params(t, g)),
        ));
    }

    let header = cols(&[
        "Name",
        "DS (largest scaled)",
        "#K (threads)",
        "#T (granularity)",
        "best time",
    ]);
    print_table(
        "Table 5: scalability of the regular programs (12GB heap)",
        &header,
        &rows,
    );
    log.finish();
}
