//! The dump readers are operator-facing: on malformed input they exit 1
//! with a message naming the file, line and byte — never a panic or an
//! abort. One line of 300 000 `[` used to overflow the main thread's
//! stack (exit 134). A bad flag value exits 2 with a message.

use std::process::Command;

#[test]
fn dump_tools_reject_deep_nesting_with_a_message() {
    let scratch = std::env::temp_dir().join(format!("itask-dump-tools-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    let deep = scratch.join("deep.jsonl");
    std::fs::write(&deep, "[".repeat(300_000) + "\n").expect("write deep dump");
    for (name, bin) in [
        ("tracectl", env!("CARGO_BIN_EXE_tracectl")),
        ("metricsctl", env!("CARGO_BIN_EXE_metricsctl")),
    ] {
        let out = Command::new(bin)
            .arg("report")
            .arg(&deep)
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(
            stderr.contains("line 1: nesting deeper than 128 at byte 128"),
            "{name}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn metricsctl_threshold_must_be_a_ratio() {
    let scratch = std::env::temp_dir().join(format!("itask-threshold-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    let empty = scratch.join("empty.jsonl");
    std::fs::write(&empty, "").expect("write empty dump");
    let run = |threshold: &str| {
        Command::new(env!("CARGO_BIN_EXE_metricsctl"))
            .arg("report")
            .arg(&empty)
            .args(["--threshold", threshold])
            .output()
            .expect("spawn metricsctl")
    };
    for bad in ["NaN", "inf", "-inf", "-0.5", "1.5", "x"] {
        let out = run(bad);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--threshold {bad}: {stderr}");
        assert!(
            stderr.contains("--threshold requires a number in [0, 1]"),
            "--threshold {bad}: {stderr}"
        );
    }
    for good in ["0", "0.75", "1"] {
        let out = run(good);
        assert_eq!(out.status.code(), Some(0), "--threshold {good}");
    }
    std::fs::remove_dir_all(&scratch).ok();
}
