//! Table 1: the five reproduced Hadoop problems — CTime (time until the
//! job dies under the reported configuration, YARN retries included),
//! PTime (the StackOverflow-recommended fix), ITime (the ITask version
//! under the reported configuration).
//!
//! Usage: `table1 [--jobs N] [problem ...]`, problems ∈ {msa, imc, iib, wcm, crp}.

use apps::hadoop_apps::{attempts, Detail, Problem, Run, PROBLEMS};
use itask_bench::{cols, print_table, sweep};

const SEED: u64 = 42;

/// One table row from a problem's CTime, PTime and ITime runs.
fn row(p: &Problem, d: &Detail, runs: &[Run]) -> Vec<String> {
    let [ctime, ptime, itime] = runs else {
        panic!("three runs per problem")
    };
    let secs = |r: &Run| format!("{:.0}s", r.paper_seconds());
    let done = |r: &Run| format!("{}{}", if r.ok() { "" } else { "FAILED@" }, secs(r));
    let crash = if ctime.ok() {
        "no crash!".to_string()
    } else {
        format!("{} attempts", attempts(&ctime.report))
    };
    let cfg = (d.config)();
    vec![
        p.name.into(),
        d.data.into(),
        format!(
            "MH={}K RH={}K MM={} MR={}",
            cfg.map_heap.as_u64() / 1024,
            cfg.reduce_heap.as_u64() / 1024,
            cfg.max_mappers,
            cfg.max_reducers
        ),
        format!("{} ({crash})", secs(ctime)),
        done(ptime),
        done(itime),
    ]
}

fn main() {
    let mut h = sweep::harness("table1");
    let detailed = PROBLEMS
        .iter()
        .filter_map(|p| Some((p, p.detail.as_ref()?)));
    h.end_flags(&detailed.clone().map(|(p, _)| p.key).collect::<Vec<_>>());
    let chosen: Vec<_> = detailed.filter(|(p, _)| h.wants(p.key)).collect();

    let specs = chosen
        .iter()
        .flat_map(|&(p, d)| {
            [("ctime", p.crash), ("ptime", d.tuned), ("itime", p.itask)].map(|(col, run)| {
                sweep::spec(format!("table1 {} {col}", p.name), move || run(SEED))
            })
        })
        .collect();
    let runs = h.run(specs);
    let rows: Vec<Vec<String>> = chosen
        .iter()
        .zip(runs.chunks(3))
        .map(|(&(p, d), runs)| row(p, d, runs))
        .collect();

    let header = cols(&[
        "Name",
        "Data",
        "Config (paper MB)",
        "CTime",
        "PTime",
        "ITime",
    ]);
    print_table(
        "Table 1: Hadoop problems — crash / tuned / ITask times",
        &header,
        &rows,
    );
    h.finish();
}
