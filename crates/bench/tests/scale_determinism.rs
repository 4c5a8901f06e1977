//! Scale-mode determinism: `--scale` output is byte-identical at any
//! host parallelism.
//!
//! `service --scale --quick` must emit the same bytes under `--jobs 1`
//! vs `--jobs 4`: its runs share nothing but the process-global arming
//! flags, and per-shard quantile sketches merge in shard order.

use std::process::Command;

/// Runs `service --scale --quick --jobs <jobs>` and returns stdout.
fn run_scale(jobs: usize) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_service"))
        .args(["--scale", "--quick", "--jobs", &jobs.to_string()])
        .output()
        .expect("spawn service --scale");
    assert!(
        out.status.success(),
        "service --scale --quick --jobs {jobs} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn scale_stdout_is_jobs_invariant() {
    let j1 = run_scale(1);
    let j4 = run_scale(4);
    assert!(
        j1 == j4,
        "service --scale stdout differs between --jobs 1 and --jobs 4"
    );
}
