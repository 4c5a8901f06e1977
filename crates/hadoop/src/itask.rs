//! The ITask version of a Hadoop job (paper §4.2): the caller's ITask
//! factories (map, reduce, merge) stand in for the regular job's map
//! and reduce [`hyracks::Operator`]s, and each node's task memory
//! (`MM × MH`) is pooled under one IRS instead of being fenced into
//! per-task JVMs.
//!
//! The job driver itself is shared with the Hyracks engine — "the
//! majority of the IRS code can be reused across frameworks" (§4.2) —
//! only the configuration mapping differs.

use hyracks::{distribute_blocks, ItaskFactories, ItaskJobSpec};
use itask_core::{IrsConfig, Tuple};
use simcluster::{Cluster, ClusterConfig, JobReport};
use simcore::{ByteSize, SimError};

use crate::config::HadoopConfig;

/// How much finer the ITask runtime's shuffle tags are than the regular
/// job's reduce-task count: the IRS manages its own partitions, and
/// finer tags keep one group's aggregate well under the pooled heap.
/// The caller's map-task factories bucket into `reduce_tasks` times
/// this many tags.
pub const ITASK_BUCKET_MULTIPLIER: u32 = 16;

/// Runs the ITask version of a Hadoop job under the *same* framework
/// configuration as its regular counterpart (Table 1's methodology).
///
/// Conventions follow [`hyracks::run_itask`]: the map task emits
/// `ShuffleBatch<Mid>` finals, the reduce task queues tagged partials to
/// the merge MITask, the merge emits `Vec<Out>` finals.
pub fn run_itask_job<MIn, Mid, Out>(
    cfg: &HadoopConfig,
    splits: Vec<Vec<MIn>>,
    factories: &ItaskFactories,
) -> (JobReport, Result<Vec<Out>, SimError>)
where
    MIn: Tuple,
    Mid: Tuple,
    Out: 'static,
{
    let mut cluster = Cluster::new(ClusterConfig {
        nodes: cfg.nodes,
        cores: cfg.max_mappers.max(cfg.max_reducers),
        heap_per_node: cfg.pooled_heap(),
    });
    let spec = ItaskJobSpec {
        name: "hadoop-itask".into(),
        irs: IrsConfig {
            max_parallelism: cfg.max_mappers.max(cfg.max_reducers),
            ..IrsConfig::default()
        },
        granularity: ByteSize::kib(32),
    };
    let inputs = distribute_blocks(cfg.nodes, splits, spec.granularity);
    hyracks::run_itask::<MIn, Mid, Out>(&mut cluster, inputs, &spec, factories)
}
