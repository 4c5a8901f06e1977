//! §6.1's headline: all 13 reproduced StackOverflow problems survive
//! with ITask. The five detailed ones (Table 1) plus the other eight,
//! each under its reported (crashing) configuration.
//!
//! Usage: `survival13 [--jobs N] [--five-only|--eight-only]`.

use apps::hadoop_apps::{crp, iib, imc, more_problems, msa, wcm};
use itask_bench::sweep::{self, RunSpec};
use itask_bench::{cols, print_table};
use simcore::SCALE;

const SEED: u64 = 42;

fn secs(s: f64) -> String {
    format!("{s:.0}s")
}

fn crash_col<T>(crash: &apps::RunSummary<T>, attempts: u32) -> String {
    if crash.ok() {
        "no crash (!)".into()
    } else {
        format!("crash @{} ({attempts} att.)", secs(crash.paper_seconds()))
    }
}

fn survive_col<T>(survive: &apps::RunSummary<T>) -> String {
    if survive.ok() {
        format!("survives, {}", secs(survive.paper_seconds()))
    } else {
        format!(
            "FAILED ({})",
            survive
                .result
                .as_ref()
                .err()
                .map(|e| e.to_string())
                .unwrap_or_default()
        )
    }
}

/// The two timed columns of one problem row, as parallel jobs.
macro_rules! five_specs {
    ($specs:ident, $key:expr, $module:ident) => {{
        $specs.push(sweep::spec(concat!("survival13 ", $key, " ctime"), || {
            let (c, a) = $module::run_ctime(SEED);
            crash_col(&c, a)
        }));
        $specs.push(sweep::spec(concat!("survival13 ", $key, " itask"), || {
            survive_col(&$module::run_itask(SEED))
        }));
    }};
}

fn main() {
    let mut h = sweep::harness("survival13");
    let five = !h.flag("--eight-only");
    let eight = !h.flag("--five-only");
    h.end_flags();

    // The five detailed problems contribute (crash, survive) column
    // pairs; each of the other eight renders its whole row (its crash
    // and survive runs share the generated dataset).
    let five_meta: [(&str, &str); 5] = [
        ("MSA [13]", "map-side aggregation"),
        ("IMC [16]", "in-map combiner"),
        ("IIB [8]", "inverted-index building"),
        ("WCM [15]", "co-occurrence matrix"),
        ("CRP [10]", "review lemmatizer"),
    ];
    let mut five_specs: Vec<RunSpec<String>> = Vec::new();
    if five {
        five_specs!(five_specs, "MSA", msa);
        five_specs!(five_specs, "IMC", imc);
        five_specs!(five_specs, "IIB", iib);
        five_specs!(five_specs, "WCM", wcm);
        five_specs!(five_specs, "CRP", crp);
    }
    let mut eight_specs: Vec<RunSpec<Vec<String>>> = Vec::new();
    if eight {
        type Mk = fn(u64) -> more_problems::Survival;
        let mks: [(&str, Mk); 8] = [
            ("sba", more_problems::sba),
            ("lsb", more_problems::lsb),
            ("wpp", more_problems::wpp),
            ("fav", more_problems::fav),
            ("spi", more_problems::spi),
            ("hjd", more_problems::hjd),
            ("tfr", more_problems::tfr),
            ("rhm", more_problems::rhm),
        ];
        for (key, mk) in mks {
            eight_specs.push(sweep::spec(format!("survival13 {key}"), move || {
                let s = mk(SEED);
                vec![
                    s.name.to_string(),
                    s.story.to_string(),
                    crash_col(&s.crash, s.attempts),
                    survive_col(&s.survive),
                ]
            }));
        }
    }

    let mut rows = Vec::new();
    if five {
        let mut cells = h.run(five_specs).into_iter();
        for (name, story) in five_meta {
            rows.push(vec![
                name.to_string(),
                story.to_string(),
                cells.next().expect("crash col"),
                cells.next().expect("survive col"),
            ]);
        }
    }
    if eight {
        rows.extend(h.run(eight_specs));
    }

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
