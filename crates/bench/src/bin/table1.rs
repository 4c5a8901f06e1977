//! Table 1: the five reproduced Hadoop problems — CTime (time until the
//! job dies under the reported configuration, YARN retries included),
//! PTime (the StackOverflow-recommended fix), ITime (the ITask version
//! under the reported configuration).
//!
//! Usage: `table1 [--jobs N] [problem ...]`, problems ∈ {msa, imc, iib, wcm, crp}.

use apps::hadoop_apps::{crp, iib, imc, msa, wcm};
use apps::RunSummary;
use itask_bench::sweep::{self, RunSpec};
use itask_bench::{cols, print_table};
use simcore::SCALE;

const SEED: u64 = 42;

fn secs<T>(s: &RunSummary<T>) -> f64 {
    s.report.elapsed.as_secs_f64() * SCALE as f64
}

fn show_crash<T>(s: &RunSummary<T>, attempts: u32) -> String {
    if s.ok() {
        format!("{:.0}s (no crash!)", secs(s))
    } else {
        format!("{:.0}s ({} attempts)", secs(s), attempts)
    }
}

fn show_ok<T>(s: &RunSummary<T>) -> String {
    if s.ok() {
        format!("{:.0}s", secs(s))
    } else {
        format!("FAILED@{:.0}s", secs(s))
    }
}

fn config_col(cfg: &hadoop::HadoopConfig) -> String {
    format!(
        "MH={}K RH={}K MM={} MR={}",
        cfg.map_heap.as_u64() / 1024,
        cfg.reduce_heap.as_u64() / 1024,
        cfg.max_mappers,
        cfg.max_reducers
    )
}

/// The three timed cells of one problem row, as independent sweep jobs.
macro_rules! problem_specs {
    ($specs:ident, $name:expr, $module:ident) => {{
        $specs.push(sweep::spec(concat!("table1 ", $name, " ctime"), || {
            let (s, attempts) = $module::run_ctime(SEED);
            show_crash(&s, attempts)
        }));
        $specs.push(sweep::spec(concat!("table1 ", $name, " ptime"), || {
            let (s, _) = $module::run_tuned(SEED);
            show_ok(&s)
        }));
        $specs.push(sweep::spec(concat!("table1 ", $name, " itime"), || {
            show_ok(&$module::run_itask(SEED))
        }));
    }};
}

fn main() {
    let mut h = sweep::harness("table1");
    h.end_flags();

    // (Name, Data, Config) in table order; each contributes 3 jobs.
    let mut meta: Vec<(&str, &str, String)> = Vec::new();
    let mut specs: Vec<RunSpec<String>> = Vec::new();
    if h.wants("msa") {
        meta.push((
            "MSA",
            "StackOverflow FD 29GB",
            config_col(&msa::table1_config()),
        ));
        problem_specs!(specs, "MSA", msa);
    }
    if h.wants("imc") {
        meta.push((
            "IMC",
            "Wikipedia FD 49GB",
            config_col(&imc::table1_config()),
        ));
        problem_specs!(specs, "IMC", imc);
    }
    if h.wants("iib") {
        meta.push((
            "IIB",
            "Wikipedia FD 49GB",
            config_col(&iib::table1_config()),
        ));
        problem_specs!(specs, "IIB", iib);
    }
    if h.wants("wcm") {
        meta.push((
            "WCM",
            "Wikipedia FD 49GB",
            config_col(&wcm::table1_config()),
        ));
        problem_specs!(specs, "WCM", wcm);
    }
    if h.wants("crp") {
        meta.push(("CRP", "Wikipedia SP 5GB", config_col(&crp::table1_config())));
        problem_specs!(specs, "CRP", crp);
    }

    let mut cells = h.run(specs).into_iter();

    let table: Vec<Vec<String>> = meta
        .into_iter()
        .map(|(name, data, config)| {
            vec![
                name.into(),
                data.into(),
                config,
                cells.next().expect("ctime cell"),
                cells.next().expect("ptime cell"),
                cells.next().expect("itime cell"),
            ]
        })
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
        &table,
    );
    h.finish();
}
