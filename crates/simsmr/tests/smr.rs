//! Determinism, view-change, and quorum-safety tests for the SMR
//! engine.

use std::cell::Cell;
use std::rc::Rc;

use proptest::prelude::*;
use simcluster::{NodeState, StepOutcome, Work, WorkCx};
use simcore::{ByteSize, FaultPlan, NodeId, SimDuration, SimError, SimTime};
use simsmr::{run, Ack, Cmd, Mailbox, ReplicaWork, RuntimeMode, SmrConfig, SmrOutcome};

fn crash_leader_plan() -> FaultPlan {
    FaultPlan::new(7).with_crash(NodeId(0), SimTime::ZERO + SimDuration::from_millis(2))
}

fn fingerprint(o: &SmrOutcome) -> (u64, u64, u64, u64, u64, u64, u64) {
    (
        o.commits,
        o.view_changes,
        o.final_view,
        o.committed_digest(),
        o.elapsed.as_nanos(),
        o.quantile_ns(0.99),
        o.quantile_ns(0.5),
    )
}

fn assert_clean(o: &SmrOutcome, cfg: &SmrConfig) {
    assert!(o.result.is_ok(), "run failed: {:?}", o.result);
    assert_eq!(o.commits, cfg.entries, "every entry commits");
    let whole = o.node_digests.iter().filter(|&&(_, n)| n == cfg.entries);
    assert!(
        whole.count() >= cfg.majority(),
        "a majority applied the whole log"
    );
    o.check_safety().expect("quorum safety");
}

#[test]
fn quick_run_commits_everything() {
    for mode in [
        RuntimeMode::Regular,
        RuntimeMode::Itask,
        RuntimeMode::ItaskElect,
    ] {
        let cfg = SmrConfig::new(3, mode).quick().with_pressure(75);
        let o = run(&cfg);
        assert_clean(&o, &cfg);
        assert!(o.latency.count() == cfg.entries, "one sample per commit");
        assert!(o.quantile_ns(0.5) > 0, "commits take virtual time");
    }
}

#[test]
fn same_config_is_bit_identical() {
    let cfg = SmrConfig::new(3, RuntimeMode::Itask)
        .quick()
        .with_pressure(75);
    let a = run(&cfg);
    let b = run(&cfg);
    assert_clean(&a, &cfg);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(a.node_digests, b.node_digests);
}

#[test]
fn leader_crash_forces_deterministic_view_change() {
    let cfg = SmrConfig::new(3, RuntimeMode::Itask)
        .quick()
        .with_pressure(45)
        .with_faults(crash_leader_plan());
    let a = run(&cfg);
    assert_clean(&a, &cfg);
    assert!(
        a.view_changes >= 1,
        "crashing the leader must depose it (saw {} view changes)",
        a.view_changes
    );
    assert_ne!(a.final_view, 0, "leadership rotated off node 0");
    // Deterministic: the same crash schedule replays bit-identically.
    let b = run(&cfg);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(a.node_digests, b.node_digests);
}

#[test]
fn regular_mode_high_pressure_gc_deposes_leader() {
    let cfg = SmrConfig::new(3, RuntimeMode::Regular).with_pressure(92);
    let o = run(&cfg);
    assert_clean(&o, &cfg);
    assert!(
        o.view_changes >= 1,
        "a full-GC pause above the election timeout must look like a dead leader"
    );
}

#[test]
fn election_aware_mode_keeps_leader_seated() {
    let cfg = SmrConfig::new(3, RuntimeMode::ItaskElect).with_pressure(92);
    let o = run(&cfg);
    assert_clean(&o, &cfg);
    assert_eq!(
        o.view_changes, 0,
        "pre-emptive deflation must keep GC pauses under the election timeout"
    );
    assert!(
        o.deflations > 0,
        "the win must come from deflation, not luck"
    );
}

/// Everything a 2 000-entry run at 92% live/heap reports, as the commit
/// before the mailbox/ring rebuild of the driver produced it. A change
/// to the simulator's host-side data structures must not move any of
/// these; a change to the model moves them on purpose and re-captures.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    commits: u64,
    final_view: u64,
    view_changes: u64,
    digest: u64,
    p50: u64,
    p999: u64,
    elapsed: u64,
    gc_stall: u64,
    minor: u64,
    full: u64,
    lugc: u64,
    deflations: u64,
    deflated: u64,
}

struct Pin {
    nodes: usize,
    mode: RuntimeMode,
    crash: bool,
    want: Fingerprint,
}

#[rustfmt::skip]
const PINS: [Pin; 12] = [
    Pin { nodes: 3, mode: RuntimeMode::Regular, crash: false, want: Fingerprint { commits: 2000, final_view: 14, view_changes: 14, digest: 0x095c1c33e74f3ae6, p50: 150049, p999: 148751959, elapsed: 1144996920, gc_stall: 1623998100, minor: 54, full: 21, lugc: 6, deflations: 0, deflated: 0 } },
    Pin { nodes: 3, mode: RuntimeMode::Itask, crash: false, want: Fingerprint { commits: 2000, final_view: 0, view_changes: 0, digest: 0x095c1c33e74f3ae6, p50: 259764, p999: 6009249, elapsed: 121266473, gc_stall: 46900170, minor: 60, full: 0, lugc: 0, deflations: 583, deflated: 153342841 } },
    Pin { nodes: 3, mode: RuntimeMode::ItaskElect, crash: false, want: Fingerprint { commits: 2000, final_view: 0, view_changes: 0, digest: 0x095c1c33e74f3ae6, p50: 259764, p999: 3096401, elapsed: 127412912, gc_stall: 32836204, minor: 59, full: 0, lugc: 0, deflations: 471, deflated: 166866054 } },
    Pin { nodes: 5, mode: RuntimeMode::Regular, crash: false, want: Fingerprint { commits: 2000, final_view: 14, view_changes: 14, digest: 0x095c1c33e74f3ae6, p50: 150049, p999: 148751959, elapsed: 1144996920, gc_stall: 2706663500, minor: 90, full: 35, lugc: 10, deflations: 0, deflated: 0 } },
    Pin { nodes: 5, mode: RuntimeMode::Itask, crash: false, want: Fingerprint { commits: 2000, final_view: 0, view_changes: 0, digest: 0x095c1c33e74f3ae6, p50: 259764, p999: 6009249, elapsed: 121266473, gc_stall: 78166950, minor: 100, full: 0, lugc: 0, deflations: 971, deflated: 255396639 } },
    Pin { nodes: 5, mode: RuntimeMode::ItaskElect, crash: false, want: Fingerprint { commits: 2000, final_view: 0, view_changes: 0, digest: 0x095c1c33e74f3ae6, p50: 259764, p999: 3096401, elapsed: 127412912, gc_stall: 64102984, minor: 99, full: 0, lugc: 0, deflations: 859, deflated: 268919852 } },
    Pin { nodes: 3, mode: RuntimeMode::Regular, crash: true, want: Fingerprint { commits: 2000, final_view: 22, view_changes: 15, digest: 0x095c1c33e74f3ae6, p50: 150049, p999: 149919415, elapsed: 1152596920, gc_stall: 1082665400, minor: 36, full: 14, lugc: 4, deflations: 0, deflated: 0 } },
    Pin { nodes: 3, mode: RuntimeMode::Itask, crash: true, want: Fingerprint { commits: 2000, final_view: 1, view_changes: 1, digest: 0x095c1c33e74f3ae6, p50: 259764, p999: 6009249, elapsed: 127466473, gc_stall: 31266780, minor: 40, full: 0, lugc: 0, deflations: 389, deflated: 102315942 } },
    Pin { nodes: 3, mode: RuntimeMode::ItaskElect, crash: true, want: Fingerprint { commits: 2000, final_view: 1, view_changes: 1, digest: 0x095c1c33e74f3ae6, p50: 259764, p999: 6416545, elapsed: 134314664, gc_stall: 17202814, minor: 39, full: 0, lugc: 0, deflations: 277, deflated: 116633225 } },
    Pin { nodes: 5, mode: RuntimeMode::Regular, crash: true, want: Fingerprint { commits: 2000, final_view: 18, view_changes: 15, digest: 0x095c1c33e74f3ae6, p50: 150049, p999: 148751959, elapsed: 1151196920, gc_stall: 2165330800, minor: 72, full: 28, lugc: 8, deflations: 0, deflated: 0 } },
    Pin { nodes: 5, mode: RuntimeMode::Itask, crash: true, want: Fingerprint { commits: 2000, final_view: 1, view_changes: 1, digest: 0x095c1c33e74f3ae6, p50: 259764, p999: 6009249, elapsed: 127466473, gc_stall: 62533560, minor: 80, full: 0, lugc: 0, deflations: 777, deflated: 204369740 } },
    Pin { nodes: 5, mode: RuntimeMode::ItaskElect, crash: true, want: Fingerprint { commits: 2000, final_view: 1, view_changes: 1, digest: 0x095c1c33e74f3ae6, p50: 259764, p999: 6416545, elapsed: 134314664, gc_stall: 48469594, minor: 79, full: 0, lugc: 0, deflations: 665, deflated: 218687023 } },
];

#[test]
fn pinned_fingerprints_hold() {
    for pin in &PINS {
        let mut cfg = SmrConfig::new(pin.nodes, pin.mode);
        cfg.entries = 2_000;
        cfg = cfg.with_pressure(92);
        if pin.crash {
            cfg = cfg.with_faults(crash_leader_plan());
        }
        let o = run(&cfg);
        assert_clean(&o, &cfg);
        let got = Fingerprint {
            commits: o.commits,
            final_view: o.final_view,
            view_changes: o.view_changes,
            digest: o.committed_digest(),
            p50: o.quantile_ns(0.5),
            p999: o.quantile_ns(0.999),
            elapsed: o.elapsed.as_nanos(),
            gc_stall: o.gc_stall.as_nanos(),
            minor: o.minor_gcs,
            full: o.full_gcs,
            lugc: o.lugcs,
            deflations: o.deflations,
            deflated: o.deflated.as_u64(),
        };
        assert_eq!(
            got,
            pin.want,
            "{}-node {} crash={}",
            pin.nodes,
            pin.mode.label(),
            pin.crash
        );
    }
}

// ---------------------------------------------------------- the mailbox

/// One replica on a bare node, stepped by hand with a generous quantum.
struct Rig {
    node: NodeState,
    work: ReplicaWork,
    mailbox: Mailbox,
    cfg: SmrConfig,
}

impl Rig {
    fn new(heap: ByteSize) -> Rig {
        let cfg = SmrConfig::new(3, RuntimeMode::Itask);
        let id = NodeId(0);
        let mut node = NodeState::new(id, 2, heap, ByteSize::gib(1));
        let space = node.heap.create_space("smr.state0");
        let (work, mailbox) = ReplicaWork::new(id, space, &cfg, Rc::new(Cell::new(false)));
        Rig {
            node,
            work,
            mailbox,
            cfg,
        }
    }

    fn step(&mut self, cmds: &[Cmd]) -> (StepOutcome, Vec<Ack>) {
        let mut staged = cmds.to_vec();
        self.mailbox.deliver(&mut staged);
        assert!(staged.is_empty(), "deliver takes everything staged");
        let mut cx = WorkCx::detached(&mut self.node, SimDuration::from_secs(1));
        let outcome = self.work.step(&mut cx);
        let mut acks = Vec::new();
        self.mailbox.collect(&mut acks);
        (outcome, acks)
    }

    /// Live bytes one applied entry adds to the state.
    fn grow(&self) -> ByteSize {
        self.cfg.payload * simsmr::EXPANSION
    }
}

fn apply(index: u64, ready_at: SimTime) -> Cmd {
    Cmd::Apply { index, ready_at }
}

fn indices(acks: &[Ack]) -> Vec<u64> {
    acks.iter().map(|a| a.index).collect()
}

#[test]
fn staged_order_is_apply_order() {
    let mut b = Rig::new(ByteSize::mib(32));
    let (outcome, acks) = b.step(&[
        apply(1, SimTime::ZERO),
        apply(2, SimTime::ZERO),
        apply(3, SimTime::ZERO),
    ]);
    assert!(matches!(outcome, StepOutcome::Ran));
    assert_eq!(indices(&acks), [1, 2, 3]);
    assert_eq!(b.mailbox.stats().applied, 3);
    // A later batch queues behind, and a duplicate is acked, not re-run.
    let (_, acks) = b.step(&[apply(4, SimTime::ZERO), apply(2, SimTime::ZERO)]);
    assert_eq!(indices(&acks), [4, 2]);
    let stats = b.mailbox.stats();
    assert_eq!((stats.applied, stats.dupes), (4, 1));
}

#[test]
fn an_rpc_on_the_wire_blocks_everything_behind_it() {
    let mut b = Rig::new(ByteSize::mib(32));
    let later = SimTime::ZERO + SimDuration::from_secs(5);
    let (outcome, acks) = b.step(&[
        apply(1, SimTime::ZERO),
        apply(2, later),
        Cmd::Deflate {
            target: ByteSize::mib(1),
        },
        apply(3, SimTime::ZERO),
    ]);
    assert!(matches!(outcome, StepOutcome::Ran));
    assert_eq!(indices(&acks), [1]);
    assert_eq!(b.mailbox.stats().deflations, 0);
    // Still blocked: nothing runs, nothing is published.
    let (outcome, acks) = b.step(&[]);
    assert!(matches!(outcome, StepOutcome::Waiting));
    assert!(acks.is_empty());
    // The RPC lands: the rest runs in the order it was staged.
    b.node.now = later;
    let (outcome, acks) = b.step(&[]);
    assert!(matches!(outcome, StepOutcome::Ran));
    assert_eq!(indices(&acks), [2, 3]);
    assert_eq!(b.mailbox.stats().deflations, 1);
}

#[test]
fn a_deflate_between_two_applies_runs_between_them() {
    let mut b = Rig::new(ByteSize::mib(32));
    let everything = ByteSize::mib(32);
    let (_, acks) = b.step(&[
        apply(1, SimTime::ZERO),
        Cmd::Deflate { target: everything },
        apply(2, SimTime::ZERO),
    ]);
    assert_eq!(indices(&acks), [1, 2]);
    // Run first it would have found nothing to release, run last it
    // would have released both entries.
    let stats = b.mailbox.stats();
    assert_eq!((stats.deflations, stats.deflated), (1, b.grow()));
}

#[test]
fn a_step_that_fails_still_publishes_its_acks() {
    // Room for a handful of entries, then the state outgrows the heap.
    let mut b = Rig::new(ByteSize::kib(512));
    let cmds: Vec<Cmd> = (1..=64).map(|i| apply(i, SimTime::ZERO)).collect();
    let (outcome, acks) = b.step(&cmds);
    assert!(
        matches!(outcome, StepOutcome::Failed(SimError::OutOfMemory { .. })),
        "{outcome:?}"
    );
    assert!(!acks.is_empty() && acks.len() < 64, "{} acks", acks.len());
    assert_eq!(indices(&acks), (1..=acks.len() as u64).collect::<Vec<_>>());
    assert_eq!(b.mailbox.stats().applied, acks.len() as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Quorum safety: across quorum sizes, pressure tiers, runtime
    /// modes and crash schedules, no two nodes' applied sequences may
    /// diverge from the committed log on a common prefix.
    #[test]
    fn committed_logs_never_diverge(
        five in any::<bool>(),
        mode_ix in 0usize..3,
        pressure in prop_oneof![Just(45u64), Just(75u64), Just(92u64)],
        crash_leader in any::<bool>(),
    ) {
        let nodes = if five { 5 } else { 3 };
        let mode = [RuntimeMode::Regular, RuntimeMode::Itask, RuntimeMode::ItaskElect][mode_ix];
        let mut cfg = SmrConfig::new(nodes, mode).quick().with_pressure(pressure);
        cfg.entries = 64;
        if crash_leader {
            cfg = cfg.with_faults(crash_leader_plan());
        }
        let o = run(&cfg);
        prop_assert!(o.result.is_ok(), "run failed: {:?}", o.result);
        prop_assert_eq!(o.commits, cfg.entries);
        prop_assert!(o.check_safety().is_ok(), "{:?}", o.check_safety());
    }
}
