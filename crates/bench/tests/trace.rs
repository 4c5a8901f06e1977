//! Trace determinism and schema tests (§ Observability).
//!
//! The `--trace` dump is part of the deterministic surface: the merged
//! event stream must be byte-identical whatever `--jobs` is, the Chrome
//! JSON must parse, and every causal link must resolve to an event
//! emitted earlier in the same run.

use std::path::PathBuf;
use std::process::Command;

use itask_bench::dumpfmt::{self, Json};
use itask_bench::tracefmt;
use simcore::rng::stable_hash_bytes;

/// Runs `bin args --trace <scratch>/trace.json --jobs <jobs>` and
/// returns the bytes of (chrome json, jsonl).
fn traced_run(bin: &str, args: &[&str], jobs: usize, tag: &str) -> (Vec<u8>, Vec<u8>) {
    let scratch =
        std::env::temp_dir().join(format!("itask-trace-{}-{tag}-j{jobs}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    let trace: PathBuf = scratch.join("trace.json");
    let out = Command::new(bin)
        .args(args)
        .arg("--jobs")
        .arg(jobs.to_string())
        .arg("--trace")
        .arg(&trace)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} {args:?} --jobs {jobs} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let chrome = std::fs::read(&trace).expect("chrome trace written");
    let jsonl = std::fs::read(format!("{}.jsonl", trace.display())).expect("jsonl twin written");
    (chrome, jsonl)
}

fn assert_jobs_invariant(bin: &str, args: &[&str], tag: &str) {
    let (c1, l1) = traced_run(bin, args, 1, tag);
    let (c4, l4) = traced_run(bin, args, 4, tag);
    assert!(
        c1 == c4,
        "{tag}: chrome trace differs between --jobs 1 and --jobs 4"
    );
    assert!(
        l1 == l4,
        "{tag}: jsonl trace differs between --jobs 1 and --jobs 4"
    );
}

#[test]
fn trace_identical_across_jobs_service_quick() {
    assert_jobs_invariant(env!("CARGO_BIN_EXE_service"), &["--quick"], "service");
}

#[test]
fn trace_identical_across_jobs_overload_quick() {
    assert_jobs_invariant(env!("CARGO_BIN_EXE_overload"), &["--quick"], "overload");
}

#[test]
fn trace_identical_across_jobs_table5_quick_wc() {
    // Minutes in debug; the CI golden job runs tests with --release.
    if cfg!(debug_assertions) {
        eprintln!("skipping table5 trace determinism in debug mode");
        return;
    }
    assert_jobs_invariant(env!("CARGO_BIN_EXE_table5"), &["--quick", "wc"], "table5");
}

/// Checks a Chrome dump and its JSONL twin: the dump parses, has the
/// trace-event envelope, every event row carries the required members
/// with the right shapes, and the causal async rows (`b` / `e`,
/// category `causal` only) pair up by `id` within a run, begin before
/// end. Returns the number of causal spans.
fn check_chrome_schema(chrome: &[u8], jsonl: &[u8]) -> u64 {
    let doc = dumpfmt::parse(std::str::from_utf8(chrome).expect("utf-8"))
        .expect("chrome trace parses as JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ns")
    );
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace has events");
    let mut spans = 0u64;
    let mut instants = 0u64;
    // (pid, id) -> (name, begin ts) of each causal span still open.
    let mut open: std::collections::BTreeMap<(i64, String), (String, u64)> = Default::default();
    let mut causal = 0u64;
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("ph member");
        let pid = e.get("pid").and_then(Json::as_i64).expect("pid member");
        assert!(e.get("tid").and_then(Json::as_i64).is_some(), "tid member");
        match ph {
            "M" => continue, // process/thread name metadata
            "X" => {
                spans += 1;
                assert!(e.get("dur").and_then(Json::as_u64).unwrap_or(0) > 0);
            }
            "i" => {
                instants += 1;
                assert_eq!(e.get("s").and_then(Json::as_str), Some("t"));
            }
            "b" | "e" => {
                assert_eq!(e.get("cat").and_then(Json::as_str), Some("causal"));
                let id = e.get("id").and_then(Json::as_str).expect("id member");
                let name = e.get("name").and_then(Json::as_str).expect("name member");
                let ts = e.get("ts").and_then(Json::as_u64).expect("ts member");
                let key = (pid, id.to_string());
                if ph == "b" {
                    let prev = open.insert(key, (name.to_string(), ts));
                    assert!(prev.is_none(), "causal span {id} begins twice");
                } else {
                    let (begin_name, begin_ts) = open
                        .remove(&key)
                        .unwrap_or_else(|| panic!("causal span {id} ends before it begins"));
                    assert_eq!(begin_name, name, "causal span {id} renamed");
                    assert!(begin_ts <= ts, "causal span {id} ends before its cause");
                    causal += 1;
                }
            }
            other => panic!("unexpected phase {other:?}"),
        }
        assert!(e.get("ts").and_then(Json::as_u64).is_some(), "ts member");
        assert!(
            e.get("name").and_then(Json::as_str).is_some(),
            "name member"
        );
    }
    assert!(instants > 0, "expected instant events");
    // Batch and service traces contain at least the shuffle spans.
    assert!(spans > 0, "expected duration spans");
    assert!(open.is_empty(), "unpaired causal spans: {open:?}");

    // Cross-check: the jsonl twin describes the same events, and every
    // link whose cause is in the run drew one causal span.
    let runs = tracefmt::load_jsonl(std::str::from_utf8(jsonl).unwrap()).expect("jsonl loads");
    let jsonl_events: usize = runs.iter().map(|r| r.events.len()).sum();
    assert_eq!(jsonl_events as u64, spans + instants);
    let links: usize = runs
        .iter()
        .map(|r| {
            let ids: std::collections::BTreeSet<u64> = r.events.iter().map(|e| e.id).collect();
            r.events.iter().filter(|e| ids.contains(&e.cause())).count()
        })
        .sum();
    assert_eq!(links as u64, causal);
    causal
}

/// The Chrome dump of a batch sweep is schema-valid.
#[test]
fn trace_chrome_schema_is_valid() {
    let (chrome, jsonl) = traced_run(env!("CARGO_BIN_EXE_faults"), &["--wc-only"], 2, "schema");
    check_chrome_schema(&chrome, &jsonl);
}

/// A crash run's dumps, pinned to the byte. `faults --wc-only` fires
/// node crashes mid-phase and salvages the dead nodes' ITask instances,
/// so these digests fix the order of its `CrashSalvaged` and `Retired`
/// events, and of the metrics they feed, not just their counts. Order:
/// the Chrome trace, its JSONL twin, the metrics JSONL and its
/// OpenMetrics snapshot.
#[test]
fn faults_wc_crash_dumps_are_pinned() {
    let scratch = std::env::temp_dir().join(format!("itask-crash-dumps-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    let metrics = scratch.join("metrics.jsonl");
    let (chrome, jsonl) = traced_run(
        env!("CARGO_BIN_EXE_faults"),
        &[
            "--wc-only",
            "--metrics",
            metrics.to_str().expect("utf-8 path"),
        ],
        2,
        "crash-dumps",
    );
    let metrics_jsonl = std::fs::read(&metrics).expect("metrics jsonl written");
    let om = std::fs::read(format!("{}.om", metrics.display())).expect("openmetrics twin written");
    let got = [&chrome, &jsonl, &metrics_jsonl, &om].map(|b| stable_hash_bytes(b));
    assert_eq!(
        got,
        [
            15042049191298580774,
            8998051981094864294,
            15699027632834361432,
            2614696402471983973
        ]
    );
}

/// The overload bench arms the full control stack, so its trace must
/// carry the overload event kinds, and every breaker/brownout event's
/// causal link must resolve backward to a storm in the same run.
#[test]
fn trace_overload_controls_emit_linked_events() {
    let (_, jsonl) = traced_run(
        env!("CARGO_BIN_EXE_overload"),
        &["--quick"],
        2,
        "overload-ev",
    );
    let runs = tracefmt::load_jsonl(std::str::from_utf8(&jsonl).unwrap()).expect("jsonl loads");
    let mut kinds = std::collections::BTreeSet::new();
    for run in &runs {
        let ids: std::collections::BTreeSet<u64> = run.events.iter().map(|e| e.id).collect();
        for e in &run.events {
            kinds.insert(e.kind.clone());
            if matches!(e.kind.as_str(), "breaker" | "brownout") {
                let cause = e.cause();
                if cause != 0 {
                    assert!(
                        ids.contains(&cause) && cause < e.id,
                        "{}: {} event {} has dangling cause {cause}",
                        run.label,
                        e.kind,
                        e.id
                    );
                }
            }
        }
    }
    for k in ["shed", "storm", "breaker", "brownout"] {
        assert!(kinds.contains(k), "expected {k} events in overload trace");
    }
}

/// Every causal link resolves to an event in the same run that happened
/// no later in virtual time, ids are unique within a run, and the
/// Chrome dump draws one causal span per link.
///
/// Ids are stream-namespaced (`stream << 32 | seq`, stream 0 = driver,
/// stream n+1 = node n) so a driver event may legitimately link to a
/// numerically larger node-stream id; causality is ordered by virtual
/// time, not by raw id.
#[test]
fn trace_causal_links_resolve() {
    let (chrome, jsonl) = traced_run(env!("CARGO_BIN_EXE_service"), &["--quick"], 2, "causal");
    let runs = tracefmt::load_jsonl(std::str::from_utf8(&jsonl).unwrap()).expect("jsonl loads");
    assert!(!runs.is_empty());
    let mut linked = 0u64;
    for run in &runs {
        let at_by_id: std::collections::BTreeMap<u64, u64> =
            run.events.iter().map(|e| (e.id, e.ts)).collect();
        assert_eq!(
            at_by_id.len(),
            run.events.len(),
            "{}: duplicate ids",
            run.label
        );
        for e in &run.events {
            let cause = e.cause();
            if cause != 0 {
                linked += 1;
                let cause_at = at_by_id.get(&cause);
                assert!(
                    cause_at.is_some(),
                    "{}: event {} links to unknown cause {cause}",
                    run.label,
                    e.id
                );
                assert!(
                    *cause_at.unwrap() <= e.ts,
                    "{}: event {} links forward in time to {cause}",
                    run.label,
                    e.id
                );
            }
        }
    }
    assert!(linked > 0, "expected causal links in service trace");
    assert_eq!(check_chrome_schema(&chrome, &jsonl), linked);
}
