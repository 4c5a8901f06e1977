//! Table 6: the summary comparison — #TS/%TS (time wins/savings),
//! #HS/%HS (heap wins/savings) across the six datasets per program, and
//! the scalability ratio between the largest datasets the ITask and
//! regular versions can process (including the paper's 250x/600x
//! upper-bound probes for GR/HJ).
//!
//! Usage: `table6 [--jobs N] [program ...]`; `--quick` limits to 3 datasets.

use apps::hyracks_apps::{gr, hj, hs, ii, wc, HyracksParams};
use itask_bench::sweep::{self, RunSpec};
use itask_bench::{cols, print_table, Cell};
use workloads::tpch::TpchScale;
use workloads::webmap::WebmapSize;

const THREADS: [usize; 5] = [1, 2, 4, 6, 8];

fn params(threads: usize) -> HyracksParams {
    HyracksParams {
        threads,
        ..HyracksParams::default()
    }
}

struct Summary {
    time_wins: usize,
    time_savings: Vec<f64>,
    heap_wins: usize,
    heap_savings: Vec<f64>,
    datasets: usize,
    reg_largest: Option<usize>,
    itask_largest: Option<usize>,
}

/// Replays the serial selection over measured cells: per dataset, the
/// five regular runs (thread sweep) followed by the ITask run.
fn summarize(n_sets: usize, cells: &mut impl Iterator<Item = Cell>) -> Summary {
    let mut s = Summary {
        time_wins: 0,
        time_savings: Vec::new(),
        heap_wins: 0,
        heap_savings: Vec::new(),
        datasets: n_sets,
        reg_largest: None,
        itask_largest: None,
    };
    for d in 0..n_sets {
        // Regular at its best thread count.
        let mut best: Option<Cell> = None;
        for _ in &THREADS {
            let r = cells.next().expect("regular cell");
            let better = match (&best, r.ok) {
                (None, _) => true,
                (Some(b), true) => !b.ok || r.elapsed < b.elapsed,
                (Some(b), false) => !b.ok && r.elapsed > b.elapsed,
            };
            if better {
                best = Some(r);
            }
        }
        let reg = best.expect("ran at least one config");
        let it = cells.next().expect("itask cell");
        if reg.ok {
            s.reg_largest = Some(d);
        }
        if it.ok {
            s.itask_largest = Some(d);
        }
        if it.ok && (!reg.ok || it.elapsed <= reg.elapsed) {
            s.time_wins += 1;
        }
        if it.ok && reg.ok {
            let rs = reg.elapsed.as_secs_f64();
            let is = it.elapsed.as_secs_f64();
            s.time_savings.push((rs - is) / rs);
            let rp = reg.peak.as_u64() as f64;
            let ip = it.peak.as_u64() as f64;
            s.heap_savings.push((rp - ip) / rp);
            if ip <= rp {
                s.heap_wins += 1;
            }
        } else if it.ok {
            // Regular failed: ITask wins on memory by surviving.
            s.heap_wins += 1;
        }
    }
    s
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn main() {
    let mut h = sweep::harness();
    let jobs = h.jobs;
    let quick = h.flag("--quick");
    let args = h.args.clone();
    let want = |p: &str| args.is_empty() || args.iter().any(|a| a == p);
    let webmap: Vec<WebmapSize> = {
        let mut v = WebmapSize::ALL.to_vec();
        v.reverse();
        v
    };
    let tpch = TpchScale::TABLE4;
    let n_web = if quick { 3 } else { webmap.len() };
    let n_tpch = if quick { 3 } else { tpch.len() };
    let mut log = h.log("table6");

    // Paper-scale dataset sizes in GB for the scalability ratio.
    let web_gb = [3.0, 10.0, 14.0, 27.0, 44.0, 72.0];
    let tpch_gb = [9.8, 19.7, 29.7, 49.6, 99.8, 150.4];

    // Every run of every program is independent, so the whole binary is
    // one batch: per program and dataset, 5 regular runs then the ITask
    // run, followed by the HJ/GR upper-bound probes.
    let progs: Vec<&str> = ["wc", "hs", "ii", "hj", "gr"]
        .into_iter()
        .filter(|p| want(p))
        .collect();
    let mut specs: Vec<RunSpec<Cell>> = Vec::new();
    for &p in &progs {
        let (n_sets, labels): (usize, Vec<&str>) = match p {
            "wc" | "hs" | "ii" => (n_web, webmap.iter().map(|s| s.label()).collect()),
            _ => (n_tpch, tpch.iter().map(|s| s.label()).collect()),
        };
        for d in 0..n_sets {
            for &t in &THREADS {
                let label = format!("table6 {p} {} reg t{t}", labels[d]);
                let (webmap, tpch) = (&webmap, &tpch);
                specs.push(sweep::spec(label, move || match p {
                    "wc" => Cell::from_summary(&wc::run_regular(webmap[d], &params(t))),
                    "hs" => Cell::from_summary(&hs::run_regular(webmap[d], &params(t))),
                    "ii" => Cell::from_summary(&ii::run_regular(webmap[d], &params(t))),
                    "hj" => Cell::from_summary(&hj::run_regular(tpch[d], &params(t))),
                    _ => Cell::from_summary(&gr::run_regular(tpch[d], &params(t))),
                }));
            }
            let label = format!("table6 {p} {} itask", labels[d]);
            let (webmap, tpch) = (&webmap, &tpch);
            specs.push(sweep::spec(label, move || match p {
                "wc" => Cell::from_summary(&wc::run_itask(webmap[d], &params(8))),
                "hs" => Cell::from_summary(&hs::run_itask(webmap[d], &params(8))),
                "ii" => Cell::from_summary(&ii::run_itask(webmap[d], &params(8))),
                "hj" => Cell::from_summary(&hj::run_itask(tpch[d], &params(8))),
                _ => Cell::from_summary(&gr::run_itask(tpch[d], &params(8))),
            }));
        }
        if p == "hj" {
            specs.push(sweep::spec("table6 hj probe X600", || {
                Cell::from_summary(&hj::run_itask(TpchScale::X600, &params(8)))
            }));
        }
        if p == "gr" {
            specs.push(sweep::spec("table6 gr probe X250", || {
                Cell::from_summary(&gr::run_itask(TpchScale::X250, &params(8)))
            }));
        }
    }
    let out = sweep::run_all(jobs, specs);
    log.absorb(&out);
    let mut cells = out.into_iter().map(|o| o.result);

    let mut rows = Vec::new();
    let mut add = |name: &str, s: Summary, sizes: &[f64], itask_cap_gb: Option<f64>| {
        let reg_gb = s.reg_largest.map(|d| sizes[d]).unwrap_or(0.0);
        // The ITask versions processed every tested dataset; the paper
        // probes further (600x for HJ, 250x for GR).
        let it_gb = itask_cap_gb
            .or(s.itask_largest.map(|d| sizes[d]))
            .unwrap_or(0.0);
        let scal = if reg_gb > 0.0 {
            it_gb / reg_gb
        } else {
            f64::NAN
        };
        rows.push(vec![
            name.to_string(),
            format!("{}/{}", s.time_wins, s.datasets),
            format!("{:.1}%", mean(&s.time_savings) * 100.0),
            format!("{}/{}", s.heap_wins, s.datasets),
            format!("{:.1}%", mean(&s.heap_savings) * 100.0),
            format!("{:.2}x", scal),
        ]);
    };

    for &p in &progs {
        match p {
            "wc" => {
                let s = summarize(n_web, &mut cells);
                add("WC", s, &web_gb, None);
            }
            "hs" => {
                let s = summarize(n_web, &mut cells);
                add("HS", s, &web_gb, None);
            }
            "ii" => {
                let s = summarize(n_web, &mut cells);
                add("II", s, &web_gb, None);
            }
            "hj" => {
                let s = summarize(n_tpch, &mut cells);
                let probe = cells.next().expect("hj probe cell");
                add("HJ", s, &tpch_gb, probe.ok.then_some(600.0 * 9.8 / 10.0));
            }
            _ => {
                let s = summarize(n_tpch, &mut cells);
                let probe = cells.next().expect("gr probe cell");
                add("GR", s, &tpch_gb, probe.ok.then_some(250.0 * 9.8 / 10.0));
            }
        }
    }

    let header = cols(&[
        "Name",
        "#TS",
        "%TS (mean)",
        "#HS",
        "%HS (mean)",
        "Scalability",
    ]);
    print_table("Table 6: ITask vs regular summary", &header, &rows);
    log.finish();
}
