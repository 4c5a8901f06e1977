//! Deterministic fault injection: a seeded schedule of substrate
//! failures (disk, network, whole nodes) for chaos-testing the runtime.
//!
//! The paper treats memory pressure as the interrupt source; a
//! production runtime must also degrade gracefully when the *substrate*
//! misbehaves. A [`FaultPlan`] describes what goes wrong and when — all
//! in virtual time, all derived from an explicit seed — and a
//! [`FaultInjector`] turns the plan into per-operation decisions that
//! the storage ([`crate::error::SimError::IoTransient`],
//! [`crate::error::SimError::CorruptPartition`]), network
//! ([`crate::error::SimError::NetPartition`]) and cluster
//! ([`crate::error::SimError::NodeLost`]) layers consult.
//!
//! Decisions are *counter-hashed*, not drawn from a shared stream: the
//! verdict for the `k`-th disk operation on node `n` is a pure function
//! of `(seed, n, op-kind, k)`. Runs are therefore bit-identical even if
//! unrelated code is later reordered, which keeps the determinism test
//! (`same seed + same plan → same report`) robust across refactors.

use std::collections::BTreeMap;

use crate::ids::NodeId;
use crate::rng::stable_hash64;
use crate::time::SimTime;

/// What goes wrong on a network link, and when.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NetFaultKind {
    /// Transfers take `factor`× their healthy time (e.g. `4.0`).
    Slowdown(f64),
    /// No traffic passes during the window; senders stall until it
    /// closes (or fail with `NetPartition` if it never does).
    Partition,
}

/// One scheduled network disturbance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetFault {
    /// Window start (inclusive, virtual time).
    pub from: SimTime,
    /// Window end (exclusive). `SimTime::MAX` means "never heals".
    pub until: SimTime,
    /// Affected link (order-insensitive), or `None` for every link.
    pub link: Option<(NodeId, NodeId)>,
    /// The disturbance.
    pub kind: NetFaultKind,
}

impl NetFault {
    fn covers(&self, src: NodeId, dst: NodeId, now: SimTime) -> bool {
        let window = self.from <= now && now < self.until;
        let on_link = match self.link {
            None => true,
            Some((a, b)) => (a, b) == (src, dst) || (b, a) == (src, dst),
        };
        window && on_link
    }
}

/// A whole-node failure at a given virtual time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeCrash {
    /// The node that dies.
    pub node: NodeId,
    /// When its clock reaches this instant, it is gone: threads killed,
    /// heap and disk contents lost.
    pub at: SimTime,
}

/// Upper bound on *consecutive* transient failures of one kind on one
/// node. Retry loops with a budget above this bound always converge, so
/// bounded-retry recovery is guaranteed to terminate.
pub const MAX_TRANSIENT_BURST: u16 = 3;

/// A complete, seeded description of everything that will go wrong.
///
/// The default plan is fault-free; builder methods opt into each fault
/// class. Rates are per-mille per operation so integer plans hash
/// deterministically (no floats in the schedule itself).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for every injection decision.
    pub seed: u64,
    /// Per-mille chance a disk read fails transiently.
    pub read_transient_permille: u16,
    /// Per-mille chance a disk write fails transiently.
    pub write_transient_permille: u16,
    /// Per-mille chance a disk write silently corrupts the file.
    pub corrupt_permille: u16,
    /// Scheduled network disturbances.
    pub net: Vec<NetFault>,
    /// Scheduled node crashes.
    pub crashes: Vec<NodeCrash>,
}

impl FaultPlan {
    /// A fault-free plan with the given decision seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Sets both disk transient rates (per-mille).
    pub fn with_disk_transients(mut self, permille: u16) -> Self {
        self.read_transient_permille = permille;
        self.write_transient_permille = permille;
        self
    }

    /// Sets the silent-corruption rate for disk writes (per-mille).
    pub fn with_corruption(mut self, permille: u16) -> Self {
        self.corrupt_permille = permille;
        self
    }

    /// Schedules a node crash.
    pub fn with_crash(mut self, node: NodeId, at: SimTime) -> Self {
        self.crashes.push(NodeCrash { node, at });
        self
    }

    /// Schedules a network disturbance.
    pub fn with_net_fault(mut self, fault: NetFault) -> Self {
        self.net.push(fault);
        self
    }

    /// Slows every link by `factor` during `[from, until)`.
    pub fn with_slowdown(self, from: SimTime, until: SimTime, factor: f64) -> Self {
        self.with_net_fault(NetFault {
            from,
            until,
            link: None,
            kind: NetFaultKind::Slowdown(factor),
        })
    }

    /// Partitions one link during `[from, until)`.
    pub fn with_link_partition(self, a: NodeId, b: NodeId, from: SimTime, until: SimTime) -> Self {
        self.with_net_fault(NetFault {
            from,
            until,
            link: Some((a, b)),
            kind: NetFaultKind::Partition,
        })
    }

    /// Whether this plan injects nothing at all.
    pub fn is_fault_free(&self) -> bool {
        self.read_transient_permille == 0
            && self.write_transient_permille == 0
            && self.corrupt_permille == 0
            && self.net.is_empty()
            && self.crashes.is_empty()
    }
}

/// The verdict for one disk write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteFault {
    /// The write succeeds and the data is intact.
    Ok,
    /// The write fails transiently; retrying may succeed.
    Transient,
    /// The write "succeeds" but the stored bytes are corrupt — only a
    /// later checksum verification will notice.
    SilentCorruption,
}

/// The verdict for one disk read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadFault {
    /// The read succeeds.
    Ok,
    /// The read fails transiently; retrying may succeed.
    Transient,
}

/// The state of a link at some instant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LinkState {
    /// Traffic flows, dilated by `factor` (1.0 = healthy).
    Up {
        /// Transfer-time multiplier (≥ 1.0).
        factor: f64,
    },
    /// Partitioned until the given instant; senders wait it out.
    BlockedUntil(SimTime),
    /// Partitioned forever; transfers fail with `NetPartition`.
    Severed,
}

/// Counts of injected faults, for reports and the survival table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient disk-read failures injected.
    pub transient_reads: u64,
    /// Transient disk-write failures injected.
    pub transient_writes: u64,
    /// Silently corrupted disk writes injected.
    pub corrupted_writes: u64,
    /// Transfers delayed by a partition window.
    pub delayed_transfers: u64,
    /// Transfers refused by a permanent partition.
    pub severed_transfers: u64,
    /// Node crashes fired.
    pub crashes: u64,
}

impl FaultStats {
    /// Total injected disk faults.
    pub fn disk_faults(&self) -> u64 {
        self.transient_reads + self.transient_writes + self.corrupted_writes
    }
}

const OP_READ: u64 = 1;
const OP_WRITE: u64 = 2;
const OP_CORRUPT: u64 = 3;

/// Turns a [`FaultPlan`] into per-operation verdicts.
///
/// Verdicts are a pure function of `(seed, node, op-kind, per-node op
/// count)` — the injector keeps *no* cross-node state on the I/O paths.
/// That means separate instances built from the same plan and consulted
/// only for their own node draw exactly the verdicts one globally
/// shared instance would, regardless of how node operations interleave.
/// The cluster exploits this to give every disk its own injector (a
/// node simulator owns everything its round touches) while keeping the
/// failure schedule identical to the old shared-`Rc` wiring.
/// Crash scheduling (`crash_due`) *is* cross-node state and stays on a
/// single driver-side instance.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Per-(node, op-kind) operation counters.
    ops: BTreeMap<(u32, u64), u64>,
    /// Per-(node, op-kind) consecutive-failure runs (burst cap).
    bursts: BTreeMap<(u32, u64), u16>,
    /// Crash schedule entries already fired.
    fired: Vec<bool>,
    stats: FaultStats,
}

impl FaultInjector {
    /// Builds the injector for a plan.
    pub fn new(plan: FaultPlan) -> Self {
        let fired = vec![false; plan.crashes.len()];
        FaultInjector {
            plan,
            ops: BTreeMap::new(),
            bursts: BTreeMap::new(),
            fired,
            stats: FaultStats::default(),
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Injection counts so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Pure per-operation verdict: true = the fault fires.
    fn decide(&mut self, node: NodeId, op: u64, permille: u16) -> bool {
        if permille == 0 {
            return false;
        }
        let key = (node.as_u32(), op);
        let k = self.ops.entry(key).or_insert(0);
        let count = *k;
        *k += 1;
        let h = stable_hash64(
            self.plan
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(stable_hash64((node.as_u32() as u64) << 8 | op))
                .wrapping_add(count.wrapping_mul(0x6C62_272E_07BB_0142)),
        );
        let fires = (h % 1000) < permille as u64;
        // Burst cap: force success once `MAX_TRANSIENT_BURST` faults of
        // this kind have fired back-to-back on this node, so bounded
        // retry loops always converge.
        let run = self.bursts.entry(key).or_insert(0);
        if fires && *run < MAX_TRANSIENT_BURST {
            *run += 1;
            true
        } else {
            *run = 0;
            false
        }
    }

    /// Verdict for the next disk read on `node`.
    pub fn on_disk_read(&mut self, node: NodeId) -> ReadFault {
        if self.decide(node, OP_READ, self.plan.read_transient_permille) {
            self.stats.transient_reads += 1;
            ReadFault::Transient
        } else {
            ReadFault::Ok
        }
    }

    /// Verdict for the next disk write on `node`.
    pub fn on_disk_write(&mut self, node: NodeId) -> WriteFault {
        if self.decide(node, OP_WRITE, self.plan.write_transient_permille) {
            self.stats.transient_writes += 1;
            return WriteFault::Transient;
        }
        if self.decide(node, OP_CORRUPT, self.plan.corrupt_permille) {
            self.stats.corrupted_writes += 1;
            return WriteFault::SilentCorruption;
        }
        WriteFault::Ok
    }

    /// The state of the `src → dst` link at `now`. Fault windows
    /// compose: slowdown factors multiply, and any partition window
    /// dominates slowdowns.
    pub fn link_state(&self, src: NodeId, dst: NodeId, now: SimTime) -> LinkState {
        let mut factor = 1.0f64;
        let mut blocked: Option<SimTime> = None;
        for f in &self.plan.net {
            if !f.covers(src, dst, now) {
                continue;
            }
            match f.kind {
                NetFaultKind::Slowdown(x) => factor *= x.max(1.0),
                NetFaultKind::Partition => {
                    if f.until == SimTime::MAX {
                        return LinkState::Severed;
                    }
                    blocked = Some(blocked.map_or(f.until, |b| b.max(f.until)));
                }
            }
        }
        match blocked {
            Some(until) => LinkState::BlockedUntil(until),
            None => LinkState::Up { factor },
        }
    }

    /// Records the outcome of a degraded transfer (for [`FaultStats`]).
    pub fn note_transfer(&mut self, delayed: bool, severed: bool) {
        if delayed {
            self.stats.delayed_transfers += 1;
        }
        if severed {
            self.stats.severed_transfers += 1;
        }
    }

    /// If `node`'s clock has reached a scheduled crash that has not
    /// fired yet, fires it and returns `true`.
    pub fn crash_due(&mut self, node: NodeId, now: SimTime) -> bool {
        let mut fire = false;
        for (i, c) in self.plan.crashes.iter().enumerate() {
            if !self.fired[i] && c.node == node && c.at <= now {
                self.fired[i] = true;
                fire = true;
            }
        }
        if fire {
            self.stats.crashes += 1;
        }
        fire
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_fault_free() {
        let mut inj = FaultInjector::new(FaultPlan::default());
        assert!(inj.plan().is_fault_free());
        for _ in 0..1000 {
            assert_eq!(inj.on_disk_read(NodeId(0)), ReadFault::Ok);
            assert_eq!(inj.on_disk_write(NodeId(1)), WriteFault::Ok);
        }
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn decisions_replay_bit_identically() {
        let plan = FaultPlan::new(7)
            .with_disk_transients(200)
            .with_corruption(100);
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan);
        let va: Vec<_> = (0..500)
            .map(|i| {
                (
                    a.on_disk_read(NodeId(i % 3)),
                    a.on_disk_write(NodeId(i % 3)),
                )
            })
            .collect();
        let vb: Vec<_> = (0..500)
            .map(|i| {
                (
                    b.on_disk_read(NodeId(i % 3)),
                    b.on_disk_write(NodeId(i % 3)),
                )
            })
            .collect();
        assert_eq!(va, vb);
        assert_eq!(a.stats(), b.stats());
        assert!(
            a.stats().disk_faults() > 0,
            "a 20% rate must fire in 500 ops"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = FaultInjector::new(FaultPlan::new(1).with_disk_transients(300));
        let mut b = FaultInjector::new(FaultPlan::new(2).with_disk_transients(300));
        let va: Vec<_> = (0..200).map(|_| a.on_disk_read(NodeId(0))).collect();
        let vb: Vec<_> = (0..200).map(|_| b.on_disk_read(NodeId(0))).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn burst_cap_bounds_consecutive_failures() {
        let plan = FaultPlan::new(3).with_disk_transients(1000);
        let mut inj = FaultInjector::new(plan);
        let mut run = 0u16;
        for _ in 0..200 {
            match inj.on_disk_read(NodeId(0)) {
                ReadFault::Transient => {
                    run += 1;
                    assert!(run <= MAX_TRANSIENT_BURST, "burst cap violated");
                }
                ReadFault::Ok => run = 0,
            }
        }
    }

    #[test]
    fn link_states_follow_windows() {
        let plan = FaultPlan::new(0)
            .with_slowdown(SimTime::from_nanos(100), SimTime::from_nanos(200), 4.0)
            .with_link_partition(
                NodeId(1),
                NodeId(2),
                SimTime::from_nanos(150),
                SimTime::from_nanos(300),
            );
        let inj = FaultInjector::new(plan);
        assert_eq!(
            inj.link_state(NodeId(0), NodeId(1), SimTime::from_nanos(50)),
            LinkState::Up { factor: 1.0 }
        );
        assert_eq!(
            inj.link_state(NodeId(0), NodeId(1), SimTime::from_nanos(150)),
            LinkState::Up { factor: 4.0 }
        );
        // Partition dominates the slowdown on the affected link (both
        // directions), and ends when the window closes.
        assert_eq!(
            inj.link_state(NodeId(2), NodeId(1), SimTime::from_nanos(160)),
            LinkState::BlockedUntil(SimTime::from_nanos(300))
        );
        assert_eq!(
            inj.link_state(NodeId(1), NodeId(2), SimTime::from_nanos(350)),
            LinkState::Up { factor: 1.0 }
        );
    }

    #[test]
    fn permanent_partition_severs() {
        let plan = FaultPlan::new(0).with_link_partition(
            NodeId(0),
            NodeId(1),
            SimTime::ZERO,
            SimTime::MAX,
        );
        let inj = FaultInjector::new(plan);
        assert_eq!(
            inj.link_state(NodeId(0), NodeId(1), SimTime::from_nanos(5)),
            LinkState::Severed
        );
        assert_eq!(
            inj.link_state(NodeId(0), NodeId(2), SimTime::from_nanos(5)),
            LinkState::Up { factor: 1.0 }
        );
    }

    #[test]
    fn crashes_fire_once_at_their_instant() {
        let plan = FaultPlan::new(0).with_crash(NodeId(2), SimTime::from_nanos(100));
        let mut inj = FaultInjector::new(plan);
        assert!(!inj.crash_due(NodeId(2), SimTime::from_nanos(99)));
        assert!(inj.crash_due(NodeId(2), SimTime::from_nanos(100)));
        // Fires exactly once.
        assert!(!inj.crash_due(NodeId(2), SimTime::from_nanos(200)));
        assert_eq!(inj.stats().crashes, 1);
        assert!(!inj.crash_due(NodeId(1), SimTime::from_nanos(200)));
    }

    /// The contract the per-owner split rests on: per-node injector
    /// instances of one plan draw exactly the verdict schedule a single
    /// cluster-shared instance draws, no matter how node operations
    /// interleave, and their stats sum to the shared instance's.
    #[test]
    fn per_node_split_replays_the_shared_schedule() {
        let plan = FaultPlan::new(42)
            .with_disk_transients(250)
            .with_corruption(125);
        const NODES: u32 = 4;
        const OPS: usize = 200;

        // Shared instance, driven with nodes interleaved (the old
        // Rc<RefCell> wiring: every disk consults the same injector).
        let mut shared = FaultInjector::new(plan.clone());
        let mut shared_verdicts = vec![Vec::new(); NODES as usize];
        for i in 0..OPS {
            for n in 0..NODES {
                let v = if i % 3 == 0 {
                    (shared.on_disk_read(NodeId(n)), WriteFault::Ok)
                } else {
                    (ReadFault::Ok, shared.on_disk_write(NodeId(n)))
                };
                shared_verdicts[n as usize].push(v);
            }
        }

        // Split instances, each driven only with its own node's ops —
        // in a *different* global order (node-major, and node ids
        // reversed) to prove interleaving is irrelevant.
        let mut split_stats = FaultStats::default();
        for n in (0..NODES).rev() {
            let mut own = FaultInjector::new(plan.clone());
            let mut verdicts = Vec::new();
            for i in 0..OPS {
                let v = if i % 3 == 0 {
                    (own.on_disk_read(NodeId(n)), WriteFault::Ok)
                } else {
                    (ReadFault::Ok, own.on_disk_write(NodeId(n)))
                };
                verdicts.push(v);
            }
            assert_eq!(
                verdicts, shared_verdicts[n as usize],
                "node {n}: split schedule diverged from shared"
            );
            let s = own.stats();
            split_stats.transient_reads += s.transient_reads;
            split_stats.transient_writes += s.transient_writes;
            split_stats.corrupted_writes += s.corrupted_writes;
        }
        assert_eq!(split_stats, shared.stats());
        // The plan actually fired faults (the test is not vacuous).
        assert!(split_stats.disk_faults() > 0);
    }
}
