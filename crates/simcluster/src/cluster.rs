//! The cluster: a set of node simulators plus the shared fabric.
//!
//! Fault injection is *split by owner*: every node's disk owns a
//! private [`FaultInjector`] instance, the fabric owns one, and the
//! cluster keeps a driver-side one for crash scheduling. All are built
//! from the same [`FaultPlan`], and because verdicts are keyed purely
//! on `(seed, node, op, count)` the split draws exactly the schedule a
//! single shared injector would, with no state shared between nodes.

use simcore::{
    ByteSize, CostModel, FaultInjector, FaultPlan, FaultStats, NodeId, SimDuration, SimResult,
    SimTime,
};
use simnet::Fabric;

use crate::node::NodeState;
use crate::report::{JobOutcome, JobReport, NodeReport};
use crate::sched::NodeSim;

/// Disk capacity per node. Generous on purpose: the paper's failures are
/// heap failures, and no run comes near it (no cluster disk ever holds
/// more than 64 MiB).
const DISK_PER_NODE: ByteSize = ByteSize::mib(2048);

/// Cluster sizing. Defaults mirror the paper's testbed at 1/1024 scale:
/// 10 worker nodes (11 minus the master), 8 cores each, 12 GB heaps
/// (12 MiB here) and SSD storage.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of worker nodes.
    pub nodes: usize,
    /// Cores per node.
    pub cores: usize,
    /// Managed-heap capacity per node.
    pub heap_per_node: ByteSize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 10,
            cores: 8,
            heap_per_node: ByteSize::mib(12),
        }
    }
}

/// A running cluster.
pub struct Cluster {
    cfg: ClusterConfig,
    sims: Vec<NodeSim>,
    fabric: Fabric,
    injector: Option<FaultInjector>,
    /// Next per-node trace-stream sequence numbers (tracer stream `n+1`
    /// belongs to node `n`; stream 0 is the driver). The round runner
    /// ([`crate::shard`]) reads and advances these so event ids encode
    /// *which node emitted, at which point in its own logical
    /// progress*, not the order the driver visited nodes in.
    stream_seqs: Vec<u64>,
}

impl Cluster {
    /// Builds a cluster from the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero nodes or zero cores.
    pub fn new(cfg: ClusterConfig) -> Self {
        assert!(cfg.nodes > 0, "cluster needs nodes");
        assert!(cfg.cores > 0, "nodes need cores");
        let sims = (0..cfg.nodes)
            .map(|i| {
                NodeSim::new(NodeState::new(
                    NodeId(i as u32),
                    cfg.cores,
                    cfg.heap_per_node,
                    DISK_PER_NODE,
                ))
            })
            .collect();
        let fabric = Fabric::new(cfg.nodes, CostModel);
        let nodes = cfg.nodes;
        Cluster {
            cfg,
            sims,
            fabric,
            injector: None,
            stream_seqs: vec![0; nodes],
        }
    }

    /// Arms a fault plan: every node's disk gets its *own* injector
    /// instance of the plan, the fabric gets one, and the cluster keeps
    /// a driver-side one for crash scheduling. Because verdicts are
    /// keyed purely on `(seed, node, op, count)`, the per-owner split
    /// draws the same deterministic schedule a single shared injector
    /// would.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        for sim in &mut self.sims {
            sim.node_mut()
                .install_injector(FaultInjector::new(plan.clone()));
        }
        self.fabric
            .install_injector(FaultInjector::new(plan.clone()));
        self.injector = Some(FaultInjector::new(plan));
    }

    /// Fires any scheduled crash whose instant `node`'s clock has
    /// reached: threads die, the disk is purged, the node goes down and
    /// its dead threads are salvaged ([`NodeSim::crash`]). Returns the
    /// first salvage error. With no crash due it is one check, so a
    /// driver polls every node after each of its rounds.
    pub fn poll_crash(&mut self, node: NodeId) -> SimResult<()> {
        let sim = &mut self.sims[node.as_usize()];
        let due = match &mut self.injector {
            Some(inj) => inj.crash_due(node, sim.node().now),
            None => false,
        };
        if due {
            sim.crash()
        } else {
            Ok(())
        }
    }

    /// Injected-fault counters summed across every injector instance
    /// (per-node disks, fabric, driver). Each owner only accrues its
    /// own fault kinds, so the sum equals what the old cluster-shared
    /// injector reported.
    pub fn fault_stats(&self) -> FaultStats {
        let mut total = self
            .injector
            .as_ref()
            .map(|inj| inj.stats())
            .unwrap_or_default();
        for sim in &self.sims {
            let s = sim.node().disk.injector_stats();
            total.transient_reads += s.transient_reads;
            total.transient_writes += s.transient_writes;
            total.corrupted_writes += s.corrupted_writes;
        }
        let net = self.fabric.injector_stats();
        total.delayed_transfers += net.delayed_transfers;
        total.severed_transfers += net.severed_transfers;
        total
    }

    /// Nodes still up (crashed nodes excluded).
    pub fn live_nodes(&self) -> Vec<NodeId> {
        self.sims
            .iter()
            .filter(|s| !s.is_crashed())
            .map(|s| s.node().id)
            .collect()
    }

    /// The configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.sims.len()
    }

    /// The node simulators.
    pub fn sims(&mut self) -> &mut [NodeSim] {
        &mut self.sims
    }

    /// One node simulator.
    pub fn sim(&mut self, node: NodeId) -> &mut NodeSim {
        &mut self.sims[node.as_usize()]
    }

    /// Next trace-stream sequence number for `node` (see `stream_seqs`).
    pub fn stream_seq(&self, node: NodeId) -> u64 {
        self.stream_seqs[node.as_usize()]
    }

    /// Advances `node`'s trace-stream cursor after a harvested round.
    pub fn set_stream_seq(&mut self, node: NodeId, next: u64) {
        self.stream_seqs[node.as_usize()] = next;
    }

    /// The network fabric.
    pub fn fabric(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    /// The cluster-wide clock: the slowest node's time.
    pub fn elapsed(&self) -> SimDuration {
        self.sims
            .iter()
            .map(|s| s.node().now.since(SimTime::ZERO))
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Phase barrier: advances every node's clock to the cluster maximum
    /// plus `extra` (e.g. a shuffle transfer time).
    pub fn sync_clocks(&mut self, extra: SimDuration) {
        let target = self
            .sims
            .iter()
            .map(|s| s.node().now)
            .max()
            .unwrap_or(SimTime::ZERO)
            + extra;
        for sim in &mut self.sims {
            let n = sim.node_mut();
            if n.now < target {
                n.now = target;
            }
        }
    }

    /// The tightest free-heap ratio across live nodes (1.0 for an empty
    /// cluster) — what a memory-aware admission controller gates on.
    pub fn min_free_heap_ratio(&self) -> f64 {
        Self::min_free_ratio(self.sims.iter())
    }

    /// [`min_free_heap_ratio`](Cluster::min_free_heap_ratio) restricted
    /// to the given nodes (1.0 when none of them are live) — the
    /// per-shard memory gate for sharded admission.
    pub fn min_free_heap_ratio_of(&self, nodes: &[NodeId]) -> f64 {
        Self::min_free_ratio(nodes.iter().map(|&id| &self.sims[id.as_usize()]))
    }

    /// The smallest effective-free bytes (capacity minus live set —
    /// garbage is reclaimable) over capacity among the live `sims`.
    fn min_free_ratio<'s>(sims: impl Iterator<Item = &'s NodeSim>) -> f64 {
        sims.filter(|s| !s.is_crashed())
            .map(|s| {
                let n = s.node();
                let cap = n.heap.capacity().as_u64().max(1);
                n.heap.effective_free().as_u64() as f64 / cap as f64
            })
            .fold(1.0_f64, f64::min)
    }

    /// Advances every live node's clock to at least `target` (no-op for
    /// nodes already past it). A job service uses this to jump an idle
    /// cluster to the next client arrival instant.
    pub fn advance_clocks_to(&mut self, target: SimTime) {
        for sim in &mut self.sims {
            if sim.is_crashed() {
                continue;
            }
            let n = sim.node_mut();
            if n.now < target {
                n.now = target;
            }
        }
    }

    /// Builds a job report from the current node states.
    pub fn report(&self, outcome: JobOutcome) -> JobReport {
        let nodes: Vec<NodeReport> = self
            .sims
            .iter()
            .map(|s| {
                let n = s.node();
                NodeReport {
                    node: n.id,
                    elapsed: n.now.since(SimTime::ZERO),
                    gc_time: n.gc_time,
                    compute_time: n.compute_time,
                    io_stall_time: n.io_stall_time,
                    peak_heap: n.heap.peak_used(),
                    minor_gcs: n.heap.stats().minor_count,
                    full_gcs: n.heap.stats().full_count,
                    useless_gcs: n.heap.stats().useless_count,
                }
            })
            .collect();
        let mut report = JobReport {
            outcome,
            elapsed: self.elapsed(),
            nodes,
            counters: std::collections::BTreeMap::new(),
        };
        if self.injector.is_some() {
            let s = self.fault_stats();
            report.bump_counter("faults_transient_reads", s.transient_reads as f64);
            report.bump_counter("faults_transient_writes", s.transient_writes as f64);
            report.bump_counter("faults_corrupted_writes", s.corrupted_writes as f64);
            report.bump_counter("faults_delayed_transfers", s.delayed_transfers as f64);
            report.bump_counter("faults_severed_transfers", s.severed_transfers as f64);
            report.bump_counter("faults_crashes", s.crashes as f64);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_scaled_testbed() {
        let c = Cluster::new(ClusterConfig::default());
        assert_eq!(c.node_count(), 10);
        assert_eq!(c.config().heap_per_node, ByteSize::mib(12));
    }

    #[test]
    fn sync_clocks_is_a_barrier() {
        let mut c = Cluster::new(ClusterConfig {
            nodes: 3,
            ..Default::default()
        });
        c.sim(NodeId(1)).node_mut().now += SimDuration::from_secs(5);
        c.sync_clocks(SimDuration::from_secs(1));
        for i in 0..3 {
            assert_eq!(
                c.sim(NodeId(i)).node().now.since(SimTime::ZERO),
                SimDuration::from_secs(6)
            );
        }
    }

    #[test]
    fn heap_ratios_and_clock_jumps_serve_the_admission_layer() {
        let mut c = Cluster::new(ClusterConfig {
            nodes: 2,
            heap_per_node: ByteSize::kib(100),
            ..Default::default()
        });
        assert_eq!(c.min_free_heap_ratio(), 1.0);
        let node = NodeId(0);
        let space = c.sim(node).node_mut().heap.create_space("ballast");
        c.sim(node)
            .node_mut()
            .heap
            .alloc(space, ByteSize::kib(40), SimTime::ZERO)
            .unwrap();
        assert!((c.min_free_heap_ratio_of(&[node]) - 0.6).abs() < 1e-9);
        assert_eq!(c.min_free_heap_ratio_of(&[NodeId(1)]), 1.0);
        assert!((c.min_free_heap_ratio() - 0.6).abs() < 1e-9);

        c.advance_clocks_to(SimTime::from_nanos(1_000));
        assert_eq!(c.sim(NodeId(1)).node().now, SimTime::from_nanos(1_000));
        // Already-ahead nodes are untouched.
        c.sim(NodeId(1)).node_mut().now += SimDuration::from_secs(1);
        let ahead = c.sim(NodeId(1)).node().now;
        c.advance_clocks_to(SimTime::from_nanos(2_000));
        assert_eq!(c.sim(NodeId(1)).node().now, ahead);
        assert_eq!(c.sim(NodeId(0)).node().now, SimTime::from_nanos(2_000));
    }

    #[test]
    fn armed_faults_fire_crashes_and_count_in_report() {
        let mut c = Cluster::new(ClusterConfig {
            nodes: 3,
            ..Default::default()
        });
        let plan = FaultPlan::new(9).with_crash(NodeId(1), SimTime::from_nanos(500));
        c.install_faults(plan);

        // Before the instant: nothing happens.
        c.poll_crash(NodeId(1)).unwrap();
        assert!(!c.sim(NodeId(1)).is_crashed());
        assert_eq!(c.live_nodes().len(), 3);

        c.sim(NodeId(1)).node_mut().now += SimDuration::from_micros(1);
        c.sim(NodeId(1))
            .node_mut()
            .disk_write_async("spill", ByteSize::kib(8))
            .unwrap();
        c.poll_crash(NodeId(1)).unwrap();
        assert!(c.sim(NodeId(1)).is_crashed());
        assert_eq!(c.sim(NodeId(1)).node().disk.file_count(), 0);
        assert_eq!(c.live_nodes(), vec![NodeId(0), NodeId(2)]);
        // Fires once only.
        c.poll_crash(NodeId(1)).unwrap();

        let r = c.report(JobOutcome::Completed);
        assert_eq!(r.counter("faults_crashes"), 1.0);
    }

    #[test]
    fn report_snapshots_every_node() {
        let mut c = Cluster::new(ClusterConfig {
            nodes: 2,
            ..Default::default()
        });
        c.sim(NodeId(0)).node_mut().now += SimDuration::from_secs(3);
        let r = c.report(JobOutcome::Completed);
        assert_eq!(r.nodes.len(), 2);
        assert_eq!(r.elapsed, SimDuration::from_secs(3));
        assert!(r.outcome.ok());
    }
}
