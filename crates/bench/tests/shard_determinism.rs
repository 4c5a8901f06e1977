//! Regression suite: the intra-run shard executor must be unobservable.
//!
//! Each bench binary runs once with `--shards 1` (the inline serial
//! path) and once with `--shards 4` (the pooled lockstep path); stdout
//! and — where exercised — the trace files must be byte-identical.
//! Every simulation is a deterministic virtual-time world; shards only
//! change which host thread advances a node, never what it computes or
//! in what canonical order its events merge.

use std::path::PathBuf;
use std::process::Command;

/// Runs `bin args --shards <n>` (plus `--trace` when `trace` is set)
/// and returns `(stdout, chrome json, jsonl)`.
fn run_sharded(
    bin: &str,
    args: &[&str],
    shards: usize,
    trace: bool,
    tag: &str,
) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    let scratch = std::env::temp_dir().join(format!(
        "itask-shards-{}-{tag}-s{shards}",
        std::process::id()
    ));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    let trace_path: PathBuf = scratch.join("trace.json");
    let mut cmd = Command::new(bin);
    cmd.args(args)
        .arg("--shards")
        .arg(shards.to_string())
        .env("ITASK_BENCH_RESULTS", &scratch);
    if trace {
        cmd.arg("--trace").arg(&trace_path);
    }
    let out = cmd
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} {args:?} --shards {shards} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let (chrome, jsonl) = if trace {
        (
            std::fs::read(&trace_path).expect("chrome trace written"),
            std::fs::read(format!("{}.jsonl", trace_path.display())).expect("jsonl twin written"),
        )
    } else {
        (Vec::new(), Vec::new())
    };
    (out.stdout, chrome, jsonl)
}

fn assert_shards_invariant(bin: &str, args: &[&str], trace: bool, tag: &str) {
    let (o1, c1, l1) = run_sharded(bin, args, 1, trace, tag);
    let (o4, c4, l4) = run_sharded(bin, args, 4, trace, tag);
    assert!(
        o1 == o4,
        "{tag}: stdout differs between --shards 1 and --shards 4"
    );
    assert!(
        c1 == c4,
        "{tag}: chrome trace differs between --shards 1 and --shards 4"
    );
    assert!(
        l1 == l4,
        "{tag}: jsonl trace differs between --shards 1 and --shards 4"
    );
}

#[test]
fn shards_invariant_service_quick() {
    assert_shards_invariant(env!("CARGO_BIN_EXE_service"), &["--quick"], true, "service");
}

#[test]
fn shards_invariant_overload_quick() {
    assert_shards_invariant(
        env!("CARGO_BIN_EXE_overload"),
        &["--quick"],
        true,
        "overload",
    );
}

#[test]
fn shards_invariant_faults_wc() {
    // Crash plans shard the crash-free windows between scheduled
    // crashes; the fault sweeps also cover slowdown/partition plans on
    // the pooled path, so the flag must be a no-op either way.
    assert_shards_invariant(env!("CARGO_BIN_EXE_faults"), &["--wc-only"], true, "faults");
}

#[test]
fn shards_invariant_smr_quick() {
    // The SMR quorum rides the lockstep executor directly (one replica
    // per node, consensus between rounds), so commit latencies, view
    // changes and the causal trace must all be shard-invariant.
    assert_shards_invariant(env!("CARGO_BIN_EXE_smr"), &["--quick"], true, "smr");
}

#[test]
fn shards_invariant_table5_quick_wc() {
    // Minutes in debug; the CI golden job runs tests with --release.
    if cfg!(debug_assertions) {
        eprintln!("skipping table5 shard determinism in debug mode");
        return;
    }
    assert_shards_invariant(
        env!("CARGO_BIN_EXE_table5"),
        &["--quick", "wc"],
        true,
        "table5",
    );
}

#[test]
fn shards_invariant_fig3_and_fig11() {
    // Both figures are computed from the harvested trace stream, so
    // their stdout depends on the merge order this suite pins.
    if cfg!(debug_assertions) {
        eprintln!("skipping fig3/fig11 shard determinism in debug mode");
        return;
    }
    assert_shards_invariant(env!("CARGO_BIN_EXE_fig3"), &[], true, "fig3");
    assert_shards_invariant(env!("CARGO_BIN_EXE_fig11"), &[], true, "fig11");
}

#[test]
fn shards_env_var_matches_flag() {
    // `ITASK_BENCH_SHARDS=2` must behave exactly like `--shards 2`.
    let scratch = std::env::temp_dir().join(format!("itask-shards-env-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    let run = |env_val: Option<&str>, flag: bool| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_service"));
        cmd.arg("--quick").env("ITASK_BENCH_RESULTS", &scratch);
        if let Some(v) = env_val {
            cmd.env("ITASK_BENCH_SHARDS", v);
        }
        if flag {
            cmd.args(["--shards", "2"]);
        }
        let out = cmd.output().expect("spawn service");
        assert!(out.status.success());
        out.stdout
    };
    let via_flag = run(None, true);
    let via_env = run(Some("2"), false);
    assert!(via_flag == via_env, "env var and flag outputs differ");
}
