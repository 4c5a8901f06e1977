//! The dump readers are operator-facing: on malformed input they exit 1
//! with a message naming the file, line and byte — never a panic or an
//! abort. One line of 300 000 `[` used to overflow the main thread's
//! stack (exit 134).

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
