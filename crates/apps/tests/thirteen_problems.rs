//! The §6.1 survival claim, as tests. The table's shape and two quick
//! representatives run in the default suite; the full 13-problem sweep over
//! `hadoop_apps::PROBLEMS` is `#[ignore]`d for
//! `cargo test --release -- --ignored` (it simulates ~50GB-scale jobs).

use apps::hadoop_apps::more_problems::{reported_config, tfr_splits, TfrSpec, WppSpec};
use apps::hadoop_apps::{itask, regular, stackoverflow_splits, PROBLEMS};

#[test]
fn the_table_holds_thirteen_problems_in_paper_order_five_detailed() {
    let keys: Vec<&str> = PROBLEMS.iter().map(|p| p.key).collect();
    let paper = [
        "msa", "imc", "iib", "wcm", "crp", "sba", "lsb", "wpp", "fav", "spi", "hjd", "tfr", "rhm",
    ];
    assert_eq!(keys, paper);
    let mut unique = keys.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), PROBLEMS.len(), "keys are unique");
    for p in &PROBLEMS {
        assert_eq!(p.key.to_uppercase(), p.name);
    }
    let tuned: Vec<&str> = PROBLEMS
        .iter()
        .filter(|p| p.detail.is_some())
        .map(|p| p.key)
        .collect();
    assert_eq!(
        tuned,
        paper[..5],
        "exactly the five detailed carry a tuned run"
    );
}

#[test]
fn whole_file_records_crash_regular_and_survive_itask() {
    let cfg = reported_config();
    let (crash, attempts) = regular(&TfrSpec, &cfg, tfr_splits(42));
    assert!(!crash.ok(), "TFR's reported configuration must crash");
    assert!(crash.is_oom());
    assert!(attempts > 4, "the retry ladder ran: {attempts}");
    let survive = itask(&TfrSpec, &cfg, tfr_splits(42));
    assert!(survive.ok(), "ITask survives the same configuration");
    // The outputs account for every file's characters.
    let total: u64 = survive.result.unwrap().iter().map(|o| o.value).sum();
    assert!(total > 0);
}

#[test]
fn web_parser_scratch_crashes_regular_and_survives_itask() {
    let cfg = reported_config();
    let (crash, _) = regular(&WppSpec, &cfg, stackoverflow_splits(42));
    assert!(!crash.ok());
    let survive = itask(&WppSpec, &cfg, stackoverflow_splits(42));
    assert!(survive.ok(), "{:?}", survive.result.err());
    // Every post is parsed exactly once.
    let total: u64 = survive.result.unwrap().iter().map(|o| o.value).sum();
    let posts = workloads::stackoverflow::StackOverflowConfig::full_dump(42).posts;
    assert_eq!(total, posts);
}

/// The full 13-problem sweep (slow; release-mode material).
#[test]
#[ignore = "simulates thirteen ~50GB-scale jobs; run with --release -- --ignored"]
fn all_thirteen_problems_crash_and_survive() {
    for p in &PROBLEMS {
        let crash = (p.crash)(42);
        assert!(
            !crash.ok(),
            "{} must crash under its reported config",
            p.name
        );
        let survive = (p.itask)(42);
        assert!(
            survive.ok(),
            "{} must survive with ITask: {:?}",
            p.name,
            survive.result.err()
        );
    }
}
