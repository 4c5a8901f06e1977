//! Table 2: memory-savings breakdown of the ITask runs of the five
//! Hadoop problems — bytes reclaimed from processed input, final
//! results, intermediate results, and lazy serialization.
//!
//! Usage: `table2 [--jobs N] [problem ...]`.

use apps::hadoop_apps::{crp, iib, imc, msa, wcm};
use apps::RunSummary;
use itask_bench::sweep::{self, RunSpec};
use itask_bench::{cols, print_table};
use simcore::{ByteSize, SCALE};

const SEED: u64 = 42;

fn fmt_paper(bytes: f64) -> String {
    // Report at paper scale: simulated bytes × 1024.
    format!("{}", ByteSize((bytes * SCALE as f64) as u64))
}

fn row<T>(name: &str, s: &RunSummary<T>) -> Vec<String> {
    vec![
        name.to_string(),
        fmt_paper(s.report.counter("reclaim.processed_input")),
        fmt_paper(s.report.counter("reclaim.final_results")),
        fmt_paper(s.report.counter("reclaim.intermediate_results")),
        fmt_paper(s.report.counter("reclaim.lazy_serialized")),
        if s.ok() { "ok".into() } else { "FAILED".into() },
    ]
}

fn main() {
    let mut h = sweep::harness("table2");
    h.end_flags();

    let mut specs: Vec<RunSpec<Vec<String>>> = Vec::new();
    if h.wants("msa") {
        specs.push(sweep::spec("table2 MSA itask", || {
            row("MSA", &msa::run_itask(SEED))
        }));
    }
    if h.wants("imc") {
        specs.push(sweep::spec("table2 IMC itask", || {
            row("IMC", &imc::run_itask(SEED))
        }));
    }
    if h.wants("iib") {
        specs.push(sweep::spec("table2 IIB itask", || {
            row("IIB", &iib::run_itask(SEED))
        }));
    }
    if h.wants("wcm") {
        specs.push(sweep::spec("table2 WCM itask", || {
            row("WCM", &wcm::run_itask(SEED))
        }));
    }
    if h.wants("crp") {
        specs.push(sweep::spec("table2 CRP itask", || {
            row("CRP", &crp::run_itask(SEED))
        }));
    }
    let rows = h.run(specs);

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
