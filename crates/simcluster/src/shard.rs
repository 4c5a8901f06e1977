//! The round runner: one scheduling round per node, on the caller's
//! thread, in the order the caller names the nodes.
//!
//! Nodes only interact at driver-side barriers (shuffles, clock syncs,
//! admission decisions), so within one scheduling *round* every node's
//! step is independent and a driver is free to visit nodes in any
//! order. What keeps the trace bytes independent of that order is
//! **stream-namespaced event ids**: each node round runs under the
//! node's own tracer stream ([`simcore::tracer::stream_begin`]), so
//! events get ids `(stream << 32) | seq` where stream `n + 1` belongs
//! to node `n` and the per-node `seq` cursor lives in the [`Cluster`].
//! Ids therefore encode *which node emitted, at which point in its own
//! logical progress*, and the run buffer's `(time, node, id)` sort
//! reproduces one canonical order.
//!
//! One run is one thread (DESIGN.md §5f): host parallelism lives in the
//! bench crate's `--jobs` sweep executor, which runs whole simulations
//! side by side.

use simcore::{tracer, NodeId};

use crate::cluster::Cluster;
use crate::sched::{NodeSim, RoundReport};

/// Outcome of one round across a set of nodes.
#[derive(Debug, Default)]
pub struct RoundRun {
    /// Per-node round reports in visit order. Under fail-fast the list
    /// ends at the first node that reported a failure (later nodes did
    /// not run).
    pub reports: Vec<(NodeId, RoundReport)>,
    /// Whether fail-fast aborted the round at the last report.
    pub aborted: bool,
}

impl RoundRun {
    /// The first `(node, thread failures)` of the round, if any.
    pub fn first_failure(&self) -> Option<(NodeId, &RoundReport)> {
        self.reports
            .iter()
            .find(|(_, r)| !r.failed.is_empty())
            .map(|(n, r)| (*n, r))
    }
}

/// Runs one round over `nodes` (each steps once, in slice order).
///
/// With `fail_fast`, the round stops at the first node whose report
/// carries a thread failure: batch engines abort a run on the first
/// thread failure, and the nodes after it must not observably run.
pub fn run_round(cluster: &mut Cluster, nodes: &[NodeId], fail_fast: bool) -> RoundRun {
    let mut run = RoundRun {
        reports: Vec::with_capacity(nodes.len()),
        aborted: false,
    };
    for &node in nodes {
        let report = run_node_round(cluster, node);
        let failed = !report.failed.is_empty();
        run.reports.push((node, report));
        if fail_fast && failed {
            run.aborted = true;
            break;
        }
    }
    run
}

/// One round of one cluster node, under the node's tracer stream. The
/// batch drive calls it directly, node by node, between a controller
/// tick and a crash poll; simserve and simsmr go through [`run_round`].
pub fn run_node_round(cluster: &mut Cluster, node: NodeId) -> RoundReport {
    let mut seq = cluster.stream_seq(node);
    let report = run_solo_round(cluster.sim(node), &mut seq);
    cluster.set_stream_seq(node, seq);
    report
}

/// One round for a standalone simulator outside any [`Cluster`] (the
/// Hadoop single-JVM attempt loop, `Irs::run_to_idle`). The caller owns
/// the stream cursor.
pub fn run_solo_round(sim: &mut NodeSim, seq: &mut u64) -> RoundReport {
    // Stream 0 is the driver; node `n` owns stream `n + 1`.
    tracer::stream_begin(sim.node().id.0 + 1, *seq);
    let report = sim.run_round();
    *seq = tracer::stream_end(*seq);
    report
}

/// No-op; only caller: `benchmark/src/main.rs`, delete with the next
/// benchmark PR.
#[doc(hidden)]
pub fn set_shards(_n: usize) {}

/// Forwards to [`run_round`]; only caller: `benchmark/src/layers.rs`,
/// delete with the next benchmark PR.
#[doc(hidden)]
pub struct ShardExecutor;

#[doc(hidden)]
impl ShardExecutor {
    pub fn with_shards(_shards: usize) -> Self {
        ShardExecutor
    }

    pub fn run_round(
        &mut self,
        cluster: &mut Cluster,
        nodes: &[NodeId],
        fail_fast: bool,
    ) -> RoundRun {
        run_round(cluster, nodes, fail_fast)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::node::WorkCx;
    use crate::work::{StepOutcome, Work};
    use simcore::{ByteSize, SimError, SimTime};

    /// Charges one quantum per step; fails on its first step if told to.
    struct Tick {
        fail: bool,
    }

    impl Work for Tick {
        fn step(&mut self, cx: &mut WorkCx<'_>) -> StepOutcome {
            if self.fail {
                return StepOutcome::Failed(SimError::Internal("planned failure".into()));
            }
            let left = cx.remaining();
            cx.charge(left);
            StepOutcome::Ran
        }

        fn label(&self) -> String {
            "tick".into()
        }
    }

    fn cluster(nodes: usize) -> Cluster {
        Cluster::new(ClusterConfig {
            nodes,
            cores: 2,
            heap_per_node: ByteSize::mib(8),
        })
    }

    #[test]
    fn fail_fast_stops_at_the_failing_node() {
        let mut c = cluster(3);
        for n in 0..3 {
            c.sim(NodeId(n)).spawn(Box::new(Tick { fail: n == 1 }));
        }
        let nodes = [NodeId(0), NodeId(1), NodeId(2)];
        let run = run_round(&mut c, &nodes, true);
        let (node, report) = run.first_failure().expect("failure reported");
        assert_eq!(node, NodeId(1));
        assert_eq!(report.failed.len(), 1);
        assert!(run.aborted);
        assert_eq!(run.reports.len(), 2, "node 2 never ran");
        assert!(c.sim(NodeId(0)).node().now > SimTime::ZERO);
        assert_eq!(c.sim(NodeId(2)).node().now, SimTime::ZERO);
    }

    #[test]
    fn without_fail_fast_every_node_commits() {
        let mut c = cluster(3);
        for n in 0..3 {
            c.sim(NodeId(n)).spawn(Box::new(Tick { fail: n == 1 }));
        }
        let nodes = [NodeId(0), NodeId(1), NodeId(2)];
        let run = run_round(&mut c, &nodes, false);
        assert!(!run.aborted);
        assert_eq!(run.reports.len(), 3);
        assert_eq!(run.first_failure().map(|(n, _)| n), Some(NodeId(1)));
        assert!(c.sim(NodeId(2)).node().now > SimTime::ZERO);
    }
}
