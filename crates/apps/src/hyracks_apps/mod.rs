//! The five Hyracks evaluation programs (§6.2), each with a regular and
//! an ITask execution entry point over the paper's datasets.

pub mod gr;
pub mod hj;
pub mod hs;
pub mod ii;
pub mod wc;

use hyracks::{ItaskJobSpec, JobSpec};
use itask_core::IrsConfig;
use simcluster::{Cluster, ClusterConfig};
use simcore::{ByteSize, FaultPlan};

use itask_core::Tuple;
use workloads::webmap::{WebmapConfig, WebmapSize};

use crate::agg::{itask_factories, AggMapOp, AggReduceOp, AggSpec};
use crate::summary::RunSummary;

/// Loads a webmap dataset as per-node frame lists (blocks distributed
/// round-robin like HDFS placement).
pub fn webmap_inputs<T: Tuple>(
    size: WebmapSize,
    params: &HyracksParams,
    convert: impl Fn(workloads::webmap::AdjRecord) -> T,
) -> Vec<Vec<Vec<T>>> {
    let cfg = WebmapConfig::preset(size, params.seed);
    let block_size = ByteSize::kib(128);
    let blocks: Vec<Vec<T>> = (0..cfg.num_blocks(block_size))
        .map(|b| cfg.block(b, block_size).into_iter().map(&convert).collect())
        .collect();
    hyracks::distribute_blocks(NODES, blocks, params.granularity)
}

/// Worker nodes of every Hyracks run (the paper's testbed has 10 slaves).
pub const NODES: usize = 10;

/// Cores per node.
pub const CORES: usize = 8;

/// Shuffle buckets: four per (node, core), so one bucket's aggregation
/// state stays well under a node heap even on the largest datasets.
pub const BUCKETS: u32 = (NODES * CORES * 4) as u32;

/// Knobs common to every Hyracks run.
#[derive(Clone, Debug)]
pub struct HyracksParams {
    /// Heap per node (paper default "12GB" → 12MiB).
    pub heap_per_node: ByteSize,
    /// Threads per node for the regular version (1–8 in Figure 9).
    pub threads: usize,
    /// Task granularity (8–128KB in Table 5).
    pub granularity: ByteSize,
    /// Workload seed.
    pub seed: u64,
    /// Optional chaos schedule, armed on the cluster substrate before
    /// the job starts (both regular and ITask runs).
    pub fault_plan: Option<FaultPlan>,
}

impl Default for HyracksParams {
    fn default() -> Self {
        HyracksParams {
            heap_per_node: ByteSize::mib(12),
            threads: 8,
            granularity: ByteSize::kib(32),
            seed: 42,
            fault_plan: None,
        }
    }
}

impl HyracksParams {
    /// Builds the cluster for these parameters, arming the fault plan
    /// (if any) on every node's substrate and on the fabric.
    pub fn cluster(&self) -> Cluster {
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: NODES,
            cores: CORES,
            heap_per_node: self.heap_per_node,
        });
        if let Some(plan) = &self.fault_plan {
            cluster.install_faults(plan.clone());
        }
        cluster
    }
}

/// Runs a spec's regular two-phase Hyracks job.
pub fn run_regular_spec<S: AggSpec>(
    spec: &S,
    params: &HyracksParams,
    inputs: Vec<Vec<Vec<S::In>>>,
) -> RunSummary<S::Out> {
    let mut cluster = params.cluster();
    let job = JobSpec {
        name: spec.name().into(),
        threads: params.threads,
        granularity: params.granularity,
    };
    let (report, result) = hyracks::run_regular(
        &mut cluster,
        inputs,
        &job,
        || AggMapOp::new(spec.clone(), BUCKETS),
        || AggReduceOp::new(spec.clone(), BUCKETS),
    );
    RunSummary { report, result }
}

/// Runs a spec's ITask Hyracks job (default IRS configuration).
pub fn run_itask_spec<S: AggSpec>(
    spec: &S,
    params: &HyracksParams,
    inputs: Vec<Vec<Vec<S::In>>>,
) -> RunSummary<S::Out> {
    let mut cluster = params.cluster();
    let job = ItaskJobSpec {
        name: spec.name().into(),
        irs: IrsConfig {
            max_parallelism: CORES,
            ..IrsConfig::default()
        },
        granularity: params.granularity,
    };
    let factories = itask_factories(spec.clone(), BUCKETS);
    let (report, result) =
        hyracks::run_itask::<S::In, S::Mid, S::Out>(&mut cluster, inputs, &job, &factories);
    RunSummary { report, result }
}
