//! §6.1's headline: all 13 reproduced StackOverflow problems survive
//! with ITask. The five detailed ones (Table 1) plus the other eight,
//! each under its reported (crashing) configuration.
//!
//! Usage: `survival13 [--jobs N] [--five-only|--eight-only]`.

use apps::hadoop_apps::{attempts, Problem, Run, PROBLEMS};
use itask_bench::{cols, print_table, sweep};
use simcore::SCALE;

const SEED: u64 = 42;

/// One table row from a problem's crashing and ITask runs.
fn row(p: &Problem, runs: &[Run]) -> Vec<String> {
    let [crash, itask] = runs else {
        panic!("two runs per problem")
    };
    let crash = if crash.ok() {
        "no crash (!)".to_string()
    } else {
        format!(
            "crash @{:.0}s ({} att.)",
            crash.paper_seconds(),
            attempts(&crash.report)
        )
    };
    let itask = match &itask.result {
        Ok(_) => format!("survives, {:.0}s", itask.paper_seconds()),
        Err(e) => format!("FAILED ({e})"),
    };
    vec![
        format!("{} {}", p.name, p.citation),
        p.story.into(),
        crash,
        itask,
    ]
}

fn main() {
    let mut h = sweep::harness("survival13");
    let (five_only, eight_only) = h.exclusive("--five-only", "--eight-only");
    h.end_flags(&[]);
    let chosen: Vec<&Problem> = PROBLEMS
        .iter()
        .filter(|p| match p.detail {
            Some(_) => !eight_only,
            None => !five_only,
        })
        .collect();

    let specs = chosen
        .iter()
        .flat_map(|p| {
            [("ctime", p.crash), ("itask", p.itask)].map(|(col, run)| {
                sweep::spec(format!("survival13 {} {col}", p.name), move || run(SEED))
            })
        })
        .collect();
    let runs = h.run(specs);
    let rows: Vec<Vec<String>> = chosen
        .iter()
        .zip(runs.chunks(2))
        .map(|(p, r)| row(p, r))
        .collect();

    let header = cols(&[
        "problem",
        "root cause",
        "regular (reported config)",
        "ITask (same config)",
    ]);
    print_table(
        &format!(
            "All 13 reproduced problems (seed {SEED}, times x{} paper-equivalent)",
            SCALE
        ),
        &header,
        &rows,
    );
    h.finish();
}
