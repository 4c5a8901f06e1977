//! The per-job execution driver: what the service asks of one tenant
//! job, answered by the hyracks two-phase machine.
//!
//! The batch engine's `run_regular`/`run_itask` own the whole cluster
//! and drive one [`TwoPhaseJob`] to completion with cluster-wide
//! barriers between phases — fine for one job, useless for a service
//! where co-located jobs must interleave on the *same* node clocks and
//! heaps. Here the service pumps the *same machine* once per scheduling
//! round for every active job, and the shared
//! [`simcluster::NodeSim::run_round`] steps all jobs' threads together,
//! so co-located jobs genuinely contend for memory and trigger
//! interrupts in each other. Nothing of the pipeline (placement,
//! shuffle, framing, salvage, re-homing) is written in this crate.
//!
//! Isolation comes from allocation scopes: every thread a job spawns —
//! regular operator workers and IRS task instances alike — carries the
//! job's scope, every heap space created inside those steps is
//! attributed to it, and teardown is `kill_scope` + `release_scope` per
//! node, whatever state the job died in.

use apps::agg::{itask_factories, AggMapOp, AggReduceOp, AggSpec};
use hyracks::{ItaskJobSpec, JobSpec, Phase, ShuffleClocks, TwoPhaseJob};
use itask_core::{IrsConfig, MemSignal};
use simcluster::Cluster;
use simcore::{ByteSize, NodeId, SimResult};

/// Which engine executes a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// Fixed thread pools, state pinned for the phase; an OME or node
    /// loss anywhere kills the job (stock Hyracks semantics).
    Regular,
    /// ITasks under a per-node IRS: interruptible, recoverable.
    Itask,
}

impl EngineKind {
    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Regular => "regular",
            EngineKind::Itask => "itask",
        }
    }
}

/// Object-safe handle the service holds on an executing job.
pub trait JobDriver {
    /// Places inputs and spawns phase-1 work. Called exactly once.
    fn start(&mut self, cluster: &mut Cluster) -> SimResult<()>;

    /// Advances the job's control plane one notch: ticks its IRS
    /// controllers, detects phase completion, shuffles and launches the
    /// next phase. Returns `true` when the job has fully completed.
    /// The service steps the data plane separately via `run_round`.
    fn pump(&mut self, cluster: &mut Cluster) -> SimResult<bool>;

    /// Reacts to a node crash (already salvaged by the scheduler): ITask
    /// jobs re-home the dead node's partitions onto survivors; regular
    /// jobs have no recovery plane and fail with `NodeLost`.
    fn on_node_crash(&mut self, cluster: &mut Cluster, node: NodeId) -> SimResult<()>;

    /// Evacuates the node's queued partitions onto `targets` while the
    /// node is still *alive* (quarantine: the service is taking an
    /// OME-storming node out of rotation). Returns how many partitions
    /// moved. Engines without a partition queue have nothing to drain.
    fn drain_node(
        &mut self,
        cluster: &mut Cluster,
        node: NodeId,
        targets: &[NodeId],
    ) -> SimResult<usize>;

    /// Asks the job to proactively shrink its footprint (brownout):
    /// ITask jobs force a `REDUCE` on every controller's next tick,
    /// deflating ahead of the full-GC cliff. A no-op for engines
    /// without an interrupt plane.
    fn deflate(&mut self);

    /// Kills the job's remaining threads and releases every heap space
    /// attributed to it, on every node. Idempotent.
    fn teardown(&mut self, cluster: &mut Cluster);

    /// Worst memory signal across the job's IRS monitors (`Steady` for
    /// regular jobs, which have no monitor).
    fn memory_signal(&self) -> MemSignal;

    /// Number of output tuples, once completed.
    fn output_count(&self) -> Option<u64>;

    /// The allocation scope identifying this job's threads and spaces.
    fn scope(&self) -> u64;
}

/// Regular-engine worker threads per node, for every service job.
const THREADS: usize = 2;
/// IRS max parallelism per node, for every service job.
const MAX_PARALLELISM: usize = 2;
/// Frame/partition granularity of every service job.
const GRANULARITY: ByteSize = ByteSize::kib(8);
/// Hash buckets of every service job's shuffle.
const BUCKETS: u32 = 16;

/// One tenant job on the shared cluster: the hyracks [`TwoPhaseJob`]
/// pumped once per service round. Generic over the [`AggSpec`] so
/// planner queries, Hyracks app specs, and Hadoop-style specs all run
/// through the same driver. Everything about the pipeline is the
/// machine's; this adapter adds only what the service asks of a job.
pub struct ServiceJob<S: AggSpec> {
    job: TwoPhaseJob<'static, S::In, S::Mid, S::Out>,
    scope: u64,
    outputs: Option<u64>,
}

impl<S: AggSpec> ServiceJob<S> {
    /// Builds a job over per-node input frames. `scope` must be unique
    /// among live jobs (the service allocates them monotonically).
    pub fn new(spec: S, engine: EngineKind, scope: u64, inputs: Vec<Vec<Vec<S::In>>>) -> Self {
        let name = format!("svc{scope}");
        // The shuffle delays only the receiving nodes: a cluster barrier
        // would stall every co-located job's clocks.
        let clocks = ShuffleClocks::Receivers;
        let job = match engine {
            EngineKind::Regular => {
                let job_spec = JobSpec {
                    name,
                    threads: THREADS,
                    granularity: GRANULARITY,
                };
                let (map_spec, reduce_spec) = (spec.clone(), spec);
                TwoPhaseJob::regular(
                    &job_spec,
                    Some(scope),
                    clocks,
                    inputs,
                    move || AggMapOp::new(map_spec.clone(), BUCKETS),
                    move || AggReduceOp::new(reduce_spec.clone(), BUCKETS),
                )
            }
            EngineKind::Itask => {
                let job_spec = ItaskJobSpec {
                    name,
                    irs: IrsConfig {
                        max_parallelism: MAX_PARALLELISM,
                        scope: Some(scope),
                        ..IrsConfig::default()
                    },
                    granularity: GRANULARITY,
                };
                TwoPhaseJob::itask(&job_spec, clocks, inputs, &itask_factories(spec, BUCKETS))
            }
        };
        ServiceJob {
            job,
            scope,
            outputs: None,
        }
    }
}

impl<S: AggSpec> JobDriver for ServiceJob<S> {
    fn start(&mut self, cluster: &mut Cluster) -> SimResult<()> {
        self.job.start(cluster)
    }

    fn pump(&mut self, cluster: &mut Cluster) -> SimResult<bool> {
        self.job.tick(cluster)?;
        if !self.job.quiesced(cluster) {
            return Ok(false);
        }
        match self.job.phase() {
            Phase::Map => {
                self.job.enter_reduce(cluster)?;
                // A degenerate job may shuffle nothing; settle next pump.
                Ok(false)
            }
            Phase::Reduce => {
                self.outputs = Some(self.job.finish().len() as u64);
                Ok(true)
            }
            Phase::Done => Ok(true),
        }
    }

    fn on_node_crash(&mut self, cluster: &mut Cluster, node: NodeId) -> SimResult<()> {
        self.job.on_node_crash(cluster, node)
    }

    fn drain_node(
        &mut self,
        cluster: &mut Cluster,
        node: NodeId,
        targets: &[NodeId],
    ) -> SimResult<usize> {
        self.job.drain_node(cluster, node, targets)
    }

    fn deflate(&mut self) {
        for irs in self.job.controllers() {
            irs.request_reduce(ByteSize::ZERO);
        }
    }

    fn teardown(&mut self, cluster: &mut Cluster) {
        for n in 0..cluster.node_count() {
            let sim = cluster.sim(NodeId(n as u32));
            sim.kill_scope(self.scope);
            sim.node_mut().heap.release_scope(self.scope);
        }
    }

    fn memory_signal(&self) -> MemSignal {
        let irss = self.job.controllers();
        if irss.is_empty() {
            // Regular jobs (and phase transitions) have no monitor: the
            // trait contract is Steady, not "room to grow".
            return MemSignal::Steady;
        }
        let mut worst = MemSignal::Grow;
        for irs in irss {
            match irs.memory_signal() {
                MemSignal::Reduce => return MemSignal::Reduce,
                MemSignal::Steady => worst = MemSignal::Steady,
                MemSignal::Grow => {}
            }
        }
        worst
    }

    fn output_count(&self) -> Option<u64> {
        self.outputs
    }

    fn scope(&self) -> u64 {
        self.scope
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{dataset_blocks, JobKind};
    use simcluster::ClusterConfig;

    /// The window the service's crash-transition reporting must cover:
    /// a node that dies holding *only queued partitions* (offered by
    /// `start`/`enter_reduce`, workers not yet spawned by a pump tick)
    /// salvages nothing, yet `on_node_crash` must still re-home every
    /// one of them — abandoning the queue would let the job quiesce
    /// over the survivors and complete with partial output.
    #[test]
    fn on_node_crash_rehomes_queued_partitions_before_workers_spawn() {
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: 4,
            ..ClusterConfig::default()
        });
        let blocks = dataset_blocks(JobKind::DegreeCount, 77, ByteSize::kib(8));
        assert!(blocks.len() >= 4, "need input on every node");
        let mut inputs: Vec<Vec<Vec<workloads::webmap::AdjRecord>>> =
            (0..4).map(|_| Vec::new()).collect();
        for (i, b) in blocks.into_iter().enumerate() {
            inputs[i % 4].push(b);
        }
        let mut job = ServiceJob::new(JobKind::degree_count_query(), EngineKind::Itask, 1, inputs);
        job.start(&mut cluster).unwrap();

        let dead = NodeId(1);
        let queued_before = job.job.controllers()[dead.as_usize()].queued();
        assert!(
            queued_before > 0,
            "offers must be queued on the doomed node"
        );
        assert_eq!(cluster.sim(dead).live_count(), 0, "no workers spawned yet");

        cluster.sim(dead).crash().unwrap();
        job.on_node_crash(&mut cluster, dead).unwrap();

        assert_eq!(
            job.job.controllers()[dead.as_usize()].queued(),
            0,
            "dead queue drained"
        );
        let rehomed: u64 = job
            .job
            .controllers()
            .iter()
            .map(|irs| irs.stats().crash_requeued_partitions)
            .sum();
        assert_eq!(
            rehomed as usize, queued_before,
            "every queued partition must land on a survivor"
        );
    }

    /// Quarantine drain: the node is *alive* but being taken out of
    /// rotation, so `drain_node` must evacuate its queue onto the given
    /// targets without the node crashing — and without routing any
    /// partition back to the drained node.
    #[test]
    fn drain_node_evacuates_a_live_node_onto_targets() {
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: 4,
            ..ClusterConfig::default()
        });
        let blocks = dataset_blocks(JobKind::DegreeCount, 77, ByteSize::kib(8));
        let mut inputs: Vec<Vec<Vec<workloads::webmap::AdjRecord>>> =
            (0..4).map(|_| Vec::new()).collect();
        for (i, b) in blocks.into_iter().enumerate() {
            inputs[i % 4].push(b);
        }
        let mut job = ServiceJob::new(JobKind::degree_count_query(), EngineKind::Itask, 1, inputs);
        job.start(&mut cluster).unwrap();

        let drained = NodeId(2);
        let queued_before = job.job.controllers()[drained.as_usize()].queued();
        assert!(queued_before > 0, "offers must be queued on the node");
        let targets: Vec<NodeId> = cluster
            .live_nodes()
            .into_iter()
            .filter(|&n| n != drained)
            .collect();
        let moved = job.drain_node(&mut cluster, drained, &targets).unwrap();
        assert_eq!(moved, queued_before, "whole queue evacuated");
        assert_eq!(job.job.controllers()[drained.as_usize()].queued(), 0);
        assert!(
            !cluster.sim(drained).is_crashed(),
            "drain must not kill the node"
        );
        // Draining an already-empty node is a no-op, not an error.
        assert_eq!(job.drain_node(&mut cluster, drained, &targets).unwrap(), 0);
    }
}
