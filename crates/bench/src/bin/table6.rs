//! Table 6: the summary comparison — #TS/%TS (time wins/savings),
//! #HS/%HS (heap wins/savings) across the six datasets per program, and
//! the scalability ratio between the largest datasets the ITask and
//! regular versions can process (including the paper's 250x/600x
//! upper-bound probes for GR/HJ).
//!
//! Usage: `table6 [--jobs N] [program ...]`; `--quick` limits to 3 datasets.

use itask_bench::programs::{best_regular, params, Dataset, Program, PROGRAMS, THREADS};
use itask_bench::{cols, print_table, sweep, Cell};
use workloads::tpch::TpchScale;

/// The paper's upper-bound probes past the tested datasets: the ITask
/// version of HJ at 600x and of GR at 250x, with the GB each counts for
/// when it completes.
const PROBES: [(&str, TpchScale, f64); 2] = [
    ("hj", TpchScale::X600, 600.0 * 9.8 / 10.0),
    ("gr", TpchScale::X250, 250.0 * 9.8 / 10.0),
];

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// One program's row, replayed over its measured cells: per dataset,
/// the regular thread sweep followed by the ITask run, then the
/// program's probe if it has one.
fn summarize(p: &Program, n_sets: usize, cells: &mut impl Iterator<Item = Cell>) -> Vec<String> {
    let (mut time_wins, mut heap_wins) = (0, 0);
    let (mut time_savings, mut heap_savings) = (Vec::new(), Vec::new());
    let (mut reg_gb, mut it_gb) = (0.0, 0.0);
    for &(_, gb) in &p.datasets[..n_sets] {
        let (_, reg) = best_regular(cells);
        let it = cells.next().expect("itask cell");
        if reg.ok {
            reg_gb = gb;
        }
        if it.ok {
            it_gb = gb;
        }
        if it.ok && (!reg.ok || it.elapsed <= reg.elapsed) {
            time_wins += 1;
        }
        if it.ok && reg.ok {
            let rs = reg.elapsed.as_secs_f64();
            let is = it.elapsed.as_secs_f64();
            time_savings.push((rs - is) / rs);
            let rp = reg.peak.as_u64() as f64;
            let ip = it.peak.as_u64() as f64;
            heap_savings.push((rp - ip) / rp);
            if ip <= rp {
                heap_wins += 1;
            }
        } else if it.ok {
            // Regular failed: ITask wins on memory by surviving.
            heap_wins += 1;
        }
    }
    // The ITask versions processed every tested dataset; the paper
    // probes further (600x for HJ, 250x for GR).
    if let Some(&(_, _, probe_gb)) = PROBES.iter().find(|(key, ..)| *key == p.key) {
        if cells.next().expect("probe cell").ok {
            it_gb = probe_gb;
        }
    }
    let scal = if reg_gb > 0.0 {
        it_gb / reg_gb
    } else {
        f64::NAN
    };
    vec![
        p.name.to_string(),
        format!("{time_wins}/{n_sets}"),
        format!("{:.1}%", mean(&time_savings) * 100.0),
        format!("{heap_wins}/{n_sets}"),
        format!("{:.1}%", mean(&heap_savings) * 100.0),
        format!("{:.2}x", scal),
    ]
}

fn main() {
    let mut h = sweep::harness("table6");
    let quick = h.flag("--quick");
    h.end_flags();
    let progs: Vec<&Program> = PROGRAMS.iter().filter(|p| h.wants(p.key)).collect();
    let n_for = |p: &Program| if quick { 3 } else { p.datasets.len() };

    // Every run of every program is independent, so the whole binary is
    // one batch: per program and dataset, 5 regular runs then the ITask
    // run, followed by the HJ/GR upper-bound probes.
    let mut specs = Vec::new();
    for &p in &progs {
        for &(ds, _) in &p.datasets[..n_for(p)] {
            for t in THREADS {
                specs.push(sweep::spec(
                    format!("table6 {} {} reg t{t}", p.key, ds.label()),
                    move || p.run(ds, false, &params(t)),
                ));
            }
            specs.push(sweep::spec(
                format!("table6 {} {} itask", p.key, ds.label()),
                move || p.run(ds, true, &params(8)),
            ));
        }
        if let Some(&(_, scale, _)) = PROBES.iter().find(|(key, ..)| *key == p.key) {
            specs.push(sweep::spec(
                format!("table6 {} probe {scale:?}", p.key),
                move || p.run(Dataset::Tpch(scale), true, &params(8)),
            ));
        }
    }
    let mut cells = h.run(specs).into_iter();
    let rows: Vec<Vec<String>> = progs
        .into_iter()
        .map(|p| summarize(p, n_for(p), &mut cells))
        .collect();

    let header = cols(&[
        "Name",
        "#TS",
        "%TS (mean)",
        "#HS",
        "%HS (mean)",
        "Scalability",
    ]);
    print_table("Table 6: ITask vs regular summary", &header, &rows);
    h.finish();
}
