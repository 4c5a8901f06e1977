//! Every harness binary rejects a flag nobody consumes — exit 2, the
//! flag named on stderr, nothing on stdout — before it runs anything.
//! `--shards` was a flag once: a stale `--shards 2` must fail the same
//! way, not turn into a positional `2` that selects no program. And a
//! binary writes files only when an instrument flag asks for them.

use std::process::Command;

const HARNESS_BINS: [(&str, &str); 16] = [
    ("ablation", env!("CARGO_BIN_EXE_ablation")),
    ("faults", env!("CARGO_BIN_EXE_faults")),
    ("fig3", env!("CARGO_BIN_EXE_fig3")),
    ("fig9", env!("CARGO_BIN_EXE_fig9")),
    ("fig10", env!("CARGO_BIN_EXE_fig10")),
    ("fig11", env!("CARGO_BIN_EXE_fig11")),
    ("overload", env!("CARGO_BIN_EXE_overload")),
    ("service", env!("CARGO_BIN_EXE_service")),
    ("smr", env!("CARGO_BIN_EXE_smr")),
    ("survival13", env!("CARGO_BIN_EXE_survival13")),
    ("table1", env!("CARGO_BIN_EXE_table1")),
    ("table2", env!("CARGO_BIN_EXE_table2")),
    ("table3", env!("CARGO_BIN_EXE_table3")),
    ("table4", env!("CARGO_BIN_EXE_table4")),
    ("table5", env!("CARGO_BIN_EXE_table5")),
    ("table6", env!("CARGO_BIN_EXE_table6")),
];

#[test]
fn unknown_flags_exit_2_on_every_harness_binary() {
    for (name, bin) in HARNESS_BINS {
        for args in [&["--no-such-flag"][..], &["--shards", "2"]] {
            let out = Command::new(bin)
                .args(args)
                .output()
                .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{name} {args:?} printed a table");
            let want = format!("{name}: unknown flag {}", args[0]);
            assert!(stderr.starts_with(&want), "{name} {args:?}: {stderr}");
            assert!(stderr.contains(&format!("usage: {name} [--jobs N]")));
        }
    }
}

/// Runs `bin args`, asserting that it exits 2 with nothing on stdout
/// and an error naming `what` above the usage line on stderr.
fn assert_usage_error(name: &str, bin: &str, args: &[&str], what: &str) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{name} {args:?} printed a table");
    assert!(
        stderr.starts_with(&format!("{name}: {what}")),
        "{name} {args:?}: {stderr}"
    );
    assert!(stderr.contains(&format!("usage: {name} [--jobs N]")));
}

/// A positional that selects nothing — a misspelt problem or program,
/// or any positional to a binary that takes none — used to print an
/// empty table (or ignore the argument) and exit 0.
#[test]
fn unknown_positionals_exit_2_on_every_harness_binary() {
    for (name, bin) in HARNESS_BINS {
        assert_usage_error(name, bin, &["mas"], "unknown argument mas");
    }
    let table1 = env!("CARGO_BIN_EXE_table1");
    assert_usage_error("table1", table1, &["imc", "mas"], "unknown argument mas");
    // A Hyracks program is not a Hadoop problem.
    assert_usage_error(
        "table2",
        env!("CARGO_BIN_EXE_table2"),
        &["wc"],
        "unknown argument wc",
    );
    // The eight undetailed problems are not Table 1 rows.
    assert_usage_error("table1", table1, &["sba"], "unknown argument sba");
}

/// The metrics cadence is fixed at 10ms: `--metrics-cadence-ms` was a
/// flag once, and a stale one fails like any unknown flag.
#[test]
fn metrics_cadence_flag_exits_2() {
    for (name, bin) in HARNESS_BINS {
        let args = ["--metrics-cadence-ms", "5"];
        let what = "unknown flag --metrics-cadence-ms";
        assert_usage_error(name, bin, &args, what);
    }
}

/// Two filters that exclude each other used to print an empty table.
#[test]
fn exclusive_filters_exit_2() {
    let pairs = [
        (
            "survival13",
            env!("CARGO_BIN_EXE_survival13"),
            "--five-only",
            "--eight-only",
        ),
        (
            "faults",
            env!("CARGO_BIN_EXE_faults"),
            "--wc-only",
            "--ii-only",
        ),
    ];
    for (name, bin, a, b) in pairs {
        let what = format!("{a} and {b} exclude each other");
        assert_usage_error(name, bin, &[a, b], &what);
        assert_usage_error(name, bin, &[b, a], &what);
    }
}

#[test]
fn help_prints_usage_and_exits_0() {
    let out = Command::new(env!("CARGO_BIN_EXE_table5"))
        .arg("--help")
        .output()
        .expect("spawn table5");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("usage: table5 [--jobs N]"), "{stdout}");
    assert!(stdout.contains("[--quick]"), "{stdout}");
}

/// The names in `dir`, sorted.
fn names_in(dir: &std::path::Path) -> Vec<String> {
    let entries = std::fs::read_dir(dir).expect("read scratch dir");
    let mut names: Vec<String> = entries
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

/// A binary given no instrument flag writes no file; `--profile` writes
/// its two sidecars and nothing else.
#[test]
fn only_an_instrument_flag_writes_files() {
    let scratch = std::env::temp_dir().join(format!("itask-flags-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    let run = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_smr"))
            .arg("--quick")
            .args(extra)
            .env("ITASK_BENCH_RESULTS", &scratch)
            .output()
            .expect("spawn smr");
        assert!(out.status.success(), "smr --quick {extra:?}");
    };
    run(&[]);
    assert_eq!(names_in(&scratch), Vec::<String>::new());
    run(&["--profile"]);
    assert_eq!(names_in(&scratch), ["sweeps"]);
    assert_eq!(
        names_in(&scratch.join("sweeps")),
        ["smr.profile.json", "smr.profile.txt"]
    );
    std::fs::remove_dir_all(&scratch).ok();
}
