//! SMR tail-latency table: commit-latency quantiles of a GC-sensitive
//! replicated state machine vs heap pressure, regular vs ITask vs
//! ITask with election-aware deflation.
//!
//! Each cell is one deterministic quorum run ([`simsmr::run`]): a
//! leader replicates a log over simnet while every replica's applied
//! state inflates its managed heap, so stop-the-world collections land
//! on the propose → replicate → quorum-ack → commit path. At the high
//! pressure tier the regular runtime's full-GC pause outlasts the
//! election timeout — the quorum deposes a perfectly healthy leader and
//! the tail absorbs both the pause and the view change. The ITask
//! runtimes deflate the applied state (IRS REDUCE) before the cliff;
//! the election-aware variant additionally prices the leader's next
//! full collection against the election timeout every round.
//!
//! Usage: `smr [--jobs N] [--quick] [--trace PATH]`.
//! Output is deterministic and byte-identical at any `--jobs` value.

use itask_bench::sweep::{self, Harness};
use itask_bench::{cols, print_table};
use simcore::{FaultPlan, NodeId, SimDuration, SimTime};
use simsmr::{run, RuntimeMode, SmrConfig, SmrOutcome};

const MODES: [RuntimeMode; 3] = [
    RuntimeMode::Regular,
    RuntimeMode::Itask,
    RuntimeMode::ItaskElect,
];
const TIERS: [u64; 3] = [45, 75, 92];

fn ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

fn dur_ms(d: SimDuration) -> String {
    format!("{:.2}", d.as_nanos() as f64 / 1e6)
}

fn config(nodes: usize, mode: RuntimeMode, pressure: u64, quick: bool) -> SmrConfig {
    // `quick` first: `with_pressure` sizes the heap off the log length,
    // so the shortened log must be in place before the tier is applied.
    let cfg = SmrConfig::new(nodes, mode);
    let cfg = if quick { cfg.quick() } else { cfg };
    cfg.with_pressure(pressure)
}

fn check(o: &SmrOutcome, what: &str) {
    if let Err(e) = &o.result {
        panic!("{what} failed: {e}");
    }
    o.check_safety()
        .unwrap_or_else(|e| panic!("{what} violated quorum safety: {e}"));
}

fn row(pressure: u64, o: &SmrOutcome) -> Vec<String> {
    vec![
        format!("{pressure}%"),
        o.mode.label().to_string(),
        ms(o.quantile_ns(0.5)),
        ms(o.quantile_ns(0.99)),
        ms(o.quantile_ns(0.999)),
        ms(o.latency.max()),
        o.view_changes.to_string(),
        o.full_gcs.to_string(),
        o.lugcs.to_string(),
        o.deflations.to_string(),
        dur_ms(o.gc_stall),
        dur_ms(o.elapsed),
    ]
}

/// Headline: commit-latency tail vs heap pressure for one quorum size.
fn pressure_sweep(h: &mut Harness, nodes: usize, quick: bool) {
    let specs = TIERS
        .iter()
        .flat_map(|&p| {
            MODES.iter().map(move |&m| {
                sweep::spec(format!("smr q{nodes} p{p} {}", m.label()), move || {
                    run(&config(nodes, m, p, quick))
                })
            })
        })
        .collect();
    let outcomes = h.run(specs);

    let mut rows = Vec::new();
    for (i, o) in outcomes.iter().enumerate() {
        check(o, &format!("smr quorum-{nodes} sweep run {i}"));
        rows.push(row(TIERS[i / MODES.len()], o));
    }
    let entries = if quick { 160 } else { 400 };
    print_table(
        &format!(
            "SMR commit latency vs heap pressure ({nodes}-node quorum, {entries} entries, virtual ms)"
        ),
        &cols(&[
            "live/heap",
            "runtime",
            "p50",
            "p99",
            "p99.9",
            "max",
            "viewchg",
            "fullGC",
            "LUGC",
            "deflate",
            "gc stall",
            "elapsed",
        ]),
        &rows,
    );

    // The headline claim, stated as a ratio: how much does IRS
    // deflation flatten the p99.9 commit tail at the highest tier?
    let high = &outcomes[outcomes.len() - MODES.len()..];
    let reg = high[0].quantile_ns(0.999) as f64;
    let itask = high[1].quantile_ns(0.999).max(1) as f64;
    let elect = high[2].quantile_ns(0.999).max(1) as f64;
    println!(
        "tail flattening @{}% live/heap (p99.9): regular/itask = {:.1}x, regular/itask+elect = {:.1}x",
        TIERS[TIERS.len() - 1],
        reg / itask,
        reg / elect,
    );
    println!();
}

/// Leader-crash ablation: a scheduled crash deposes the leader mid-log;
/// the quorum must elect, re-replicate, and commit everything anyway.
fn crash_sweep(h: &mut Harness, quick: bool) {
    const NODES: usize = 3;
    const PRESSURE: u64 = 75;
    let plan =
        || FaultPlan::new(13).with_crash(NodeId(0), SimTime::ZERO + SimDuration::from_millis(2));
    let specs = MODES
        .iter()
        .map(|&m| {
            sweep::spec(format!("smr crash {}", m.label()), move || {
                run(&config(NODES, m, PRESSURE, quick).with_faults(plan()))
            })
        })
        .collect();
    let mut rows = Vec::new();
    for o in h.run(specs) {
        check(&o, "smr crash run");
        assert!(
            o.view_changes >= 1,
            "crashing the leader must force a view change"
        );
        rows.push(vec![
            o.mode.label().to_string(),
            o.commits.to_string(),
            o.view_changes.to_string(),
            o.final_view.to_string(),
            ms(o.quantile_ns(0.99)),
            ms(o.quantile_ns(0.999)),
            ms(o.latency.max()),
            dur_ms(o.elapsed),
        ]);
    }
    print_table(
        &format!(
            "Leader crash at 2ms ({NODES}-node quorum, {PRESSURE}% live/heap): elect, re-replicate, commit"
        ),
        &cols(&[
            "runtime", "commits", "viewchg", "view", "p99", "p99.9", "max", "elapsed",
        ]),
        &rows,
    );
}

fn main() {
    let mut h = sweep::harness("smr");
    let quick = h.flag("--quick");
    h.end_flags(&[]);
    pressure_sweep(&mut h, 3, quick);
    if !quick {
        pressure_sweep(&mut h, 5, quick);
    }
    crash_sweep(&mut h, quick);
    h.finish();
}
