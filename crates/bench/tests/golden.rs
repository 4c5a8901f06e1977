//! Golden-output snapshot tests for the bench binaries.
//!
//! Each test runs a bench binary in its quick mode and diffs its stdout
//! against a checked-in snapshot under `tests/golden/` at the workspace
//! root. The binaries print only virtual-time results on stdout
//! (wall-clock progress lines go to stderr), so the snapshots are
//! byte-stable across hosts, `--jobs` counts, and host-side
//! optimisations — any diff means the simulation itself changed.
//!
//! To regenerate after an intentional behaviour change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --release -p itask-bench --test golden
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Run `bin` with `args`, capture stdout, and compare to the snapshot.
fn check_golden(bin: &str, args: &[&str], golden_name: &str) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} {args:?} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let actual = String::from_utf8(out.stdout).expect("bench stdout is UTF-8");

    let path = golden_dir().join(golden_name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("write golden snapshot");
        eprintln!("updated {}", path.display());
        return;
    }

    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); regenerate with \
             UPDATE_GOLDEN=1 cargo test --release -p itask-bench --test golden",
            path.display()
        )
    });
    if expected != actual {
        let mut first_diff = None;
        for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
            if e != a {
                first_diff = Some((i + 1, e.to_string(), a.to_string()));
                break;
            }
        }
        let detail = match first_diff {
            Some((line, e, a)) => {
                format!("first differing line {line}:\n  golden: {e}\n  actual: {a}")
            }
            None => format!(
                "line counts differ: golden {} vs actual {}",
                expected.lines().count(),
                actual.lines().count()
            ),
        };
        panic!(
            "{bin} {args:?} stdout diverged from {}\n{detail}\n\
             If the change is intentional, regenerate with UPDATE_GOLDEN=1.",
            path.display()
        );
    }
}

#[test]
fn golden_service_quick() {
    check_golden(
        env!("CARGO_BIN_EXE_service"),
        &["--quick"],
        "service_quick.txt",
    );
}

#[test]
fn golden_faults_wc() {
    check_golden(
        env!("CARGO_BIN_EXE_faults"),
        &["--wc-only"],
        "faults_wc.txt",
    );
}

/// Two stages: a sweep of `bin` dumping through `flag` (`--trace` or
/// `--metrics`), then `ctl report` over the dump. The report is pure
/// virtual-time aggregation, so its stdout is as byte-stable as the
/// table itself.
fn check_report(bin: &str, args: &[&str], flag: &str, ctl: &str, golden_name: &str) {
    let scratch =
        std::env::temp_dir().join(format!("itask-golden-{}-{golden_name}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    let dump = scratch.join("dump.json");
    let out = Command::new(bin)
        .args(args)
        .arg(flag)
        .arg(&dump)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} {args:?} {flag} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let dump = dump.to_str().expect("utf-8 scratch path");
    check_golden(ctl, &["report", dump], golden_name);
}

#[test]
fn golden_tracectl_faults_wc() {
    check_report(
        env!("CARGO_BIN_EXE_faults"),
        &["--wc-only"],
        "--trace",
        env!("CARGO_BIN_EXE_tracectl"),
        "tracectl_faults_wc.txt",
    );
}

/// Service runs carry the engine's `shuffle` span and `frame` event —
/// they ride the same pipeline as the batch tables.
#[test]
fn golden_tracectl_service_quick() {
    check_report(
        env!("CARGO_BIN_EXE_service"),
        &["--quick"],
        "--trace",
        env!("CARGO_BIN_EXE_tracectl"),
        "tracectl_service_quick.txt",
    );
}

#[test]
fn golden_metricsctl_faults_wc() {
    check_report(
        env!("CARGO_BIN_EXE_faults"),
        &["--wc-only"],
        "--metrics",
        env!("CARGO_BIN_EXE_metricsctl"),
        "metricsctl_faults_wc.txt",
    );
}

#[test]
fn golden_overload_quick() {
    check_golden(
        env!("CARGO_BIN_EXE_overload"),
        &["--quick"],
        "overload_quick.txt",
    );
}

/// The only output that runs the breaker and brownout defaults in scale
/// mode: quarantines and brownout rounds under a 10^4-tenant ramp.
#[test]
fn golden_overload_scale_quick() {
    check_golden(
        env!("CARGO_BIN_EXE_overload"),
        &["--scale", "--quick"],
        "overload_scale_quick.txt",
    );
}

#[test]
fn golden_service_scale_quick() {
    // The million-tenant admission plane's snapshot: lazy 10^4-tenant
    // population, 4 admission shards, shard-merged sketches. Pins the
    // indexed WFQ order, the lazy arrival stream, and the shard-order
    // sketch merge all at once.
    check_golden(
        env!("CARGO_BIN_EXE_service"),
        &["--scale", "--quick"],
        "service_scale_quick.txt",
    );
}

#[test]
fn golden_smr_quick() {
    check_golden(env!("CARGO_BIN_EXE_smr"), &["--quick"], "smr_quick.txt");
}

/// The dataset tables: generator counts for every webmap size and every
/// TPC-H scale, beside the paper's (fast enough for debug builds).
#[test]
fn golden_table3() {
    check_golden(env!("CARGO_BIN_EXE_table3"), &[], "table3.txt");
}

#[test]
fn golden_table4() {
    check_golden(env!("CARGO_BIN_EXE_table4"), &[], "table4.txt");
}

#[test]
fn golden_table5_quick_wc() {
    // ~10s in release but minutes in debug; the CI golden job runs the
    // suite with --release so this stays covered there.
    if cfg!(debug_assertions) {
        eprintln!("skipping table5 golden in debug mode; run with --release to cover it");
        return;
    }
    check_golden(
        env!("CARGO_BIN_EXE_table5"),
        &["--quick", "wc"],
        "table5_quick_wc.txt",
    );
}

/// A golden too slow for debug builds: runs `bin --jobs 2 args...` in
/// release only (the CI golden job runs the suite with `--release`).
fn check_release(bin: &str, args: &[&str], golden_name: &str) {
    if cfg!(debug_assertions) {
        eprintln!("skipping {golden_name} golden in debug mode; run with --release to cover it");
        return;
    }
    let mut all = vec!["--jobs", "2"];
    all.extend_from_slice(args);
    check_golden(bin, &all, golden_name);
}

/// The Hadoop tables: the only goldens that run the hadoop crate's
/// per-task attempt JVMs, YARN retry chains and sort-buffer spills.
/// ~16-25s each in release at `--jobs 2`, far longer in debug.
#[test]
fn golden_table1() {
    check_release(env!("CARGO_BIN_EXE_table1"), &[], "table1.txt");
}

#[test]
fn golden_survival13() {
    check_release(env!("CARGO_BIN_EXE_survival13"), &[], "survival13.txt");
}

/// Table 2's reclaim breakdown: the ITask runs of the five Hadoop
/// problems (~6s).
#[test]
fn golden_table2() {
    check_release(env!("CARGO_BIN_EXE_table2"), &[], "table2.txt");
}

/// The Hyracks grid, regular side: every program on its two smallest
/// datasets at every thread count (~2.5s).
#[test]
fn golden_fig9_quick() {
    check_release(env!("CARGO_BIN_EXE_fig9"), &["--quick"], "fig9_quick.txt");
}

/// ITask vs best regular on the TPC-H programs. Their largest datasets
/// OME at every thread count, so the best-configuration rule's
/// all-failed fallback is on the surface (~2s).
#[test]
fn golden_fig10_hj_gr() {
    check_release(
        env!("CARGO_BIN_EXE_fig10"),
        &["hj", "gr"],
        "fig10_hj_gr.txt",
    );
}

/// Table 6's win/saving/scalability summary on three datasets per
/// program, plus the HJ/GR upper-bound probes (~5s).
#[test]
fn golden_table6_quick() {
    check_release(
        env!("CARGO_BIN_EXE_table6"),
        &["--quick"],
        "table6_quick.txt",
    );
}

/// §6.1's ablation: ITask vs kill-restart, random victims, in-memory
/// serialization and lazy hover (~6s).
#[test]
fn golden_ablation() {
    check_release(env!("CARGO_BIN_EXE_ablation"), &[], "ablation.txt");
}

// The two timeline figures compute their stdout from the trace stream,
// so the harvest's merge order is on the golden surface: the snapshot
// must hold at the default and serially.
fn check_figure(bin: &str, golden_name: &str) {
    // ~2-4s per run in release, 10-20s in debug.
    if cfg!(debug_assertions) {
        eprintln!("skipping {golden_name} golden in debug mode; run with --release to cover it");
        return;
    }
    for args in [&[][..], &["--jobs", "1"]] {
        check_golden(bin, args, golden_name);
    }
}

#[test]
fn golden_fig3() {
    check_figure(env!("CARGO_BIN_EXE_fig3"), "fig3.txt");
}

#[test]
fn golden_fig11() {
    check_figure(env!("CARGO_BIN_EXE_fig11"), "fig11.txt");
}
