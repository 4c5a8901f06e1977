//! Table 2: memory-savings breakdown of the ITask runs of the five
//! Hadoop problems — bytes reclaimed from processed input, final
//! results, intermediate results, and lazy serialization.
//!
//! Usage: `table2 [--jobs N] [problem ...]`.

use apps::hadoop_apps::{Problem, Run, PROBLEMS};
use itask_bench::{cols, print_table, sweep};
use simcore::{ByteSize, SCALE};

const SEED: u64 = 42;

/// One table row from a problem's ITask run, in paper-scale bytes
/// (simulated bytes × 1024).
fn row(p: &Problem, run: &Run) -> Vec<String> {
    let paper = |counter| ByteSize((run.report.counter(counter) * SCALE as f64) as u64).to_string();
    vec![
        p.name.into(),
        paper("reclaim.processed_input"),
        paper("reclaim.final_results"),
        paper("reclaim.intermediate_results"),
        paper("reclaim.lazy_serialized"),
        if run.ok() { "ok" } else { "FAILED" }.into(),
    ]
}

fn main() {
    let mut h = sweep::harness("table2");
    let detailed = PROBLEMS.iter().filter(|p| p.detail.is_some());
    h.end_flags(&detailed.clone().map(|p| p.key).collect::<Vec<_>>());
    let chosen: Vec<&Problem> = detailed.filter(|p| h.wants(p.key)).collect();

    let specs = chosen
        .iter()
        .map(|&p| sweep::spec(format!("table2 {} itask", p.name), || (p.itask)(SEED)))
        .collect();
    let runs = h.run(specs);
    let rows: Vec<Vec<String>> = chosen.iter().zip(&runs).map(|(p, r)| row(p, r)).collect();

    let header = cols(&[
        "Name",
        "Processed Input",
        "Final Results",
        "Intermediate Results",
        "Lazy Serialization",
        "outcome",
    ]);
    print_table(
        "Table 2: ITask memory-savings breakdown (paper-equivalent bytes)",
        &header,
        &rows,
    );
    h.finish();
}
