//! Job specs, frame chunking, and the batch driver: one
//! [`TwoPhaseJob`] run to completion on a cluster it owns — start,
//! drive, shuffle, drive, collect — with a cluster barrier closing each
//! phase. The pipeline itself lives in [`crate::job`].

use std::rc::Rc;

use itask_core::{ITask, IrsConfig, Tuple};
use simcluster::{run_node_round, Cluster, JobOutcome, JobReport};
use simcore::{prof, ByteSize, NodeId, SimDuration, SimResult};

use crate::job::{ShuffleClocks, TwoPhaseJob};
use crate::operator::{BucketArena, Operator};

/// Parameters of a regular two-phase job.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Job name (reports).
    pub name: String,
    /// Worker threads per node (the paper sweeps 1–8).
    pub threads: usize,
    /// Frame/task granularity in serialized bytes (the paper sweeps
    /// 8–128KB).
    pub granularity: ByteSize,
}

impl JobSpec {
    /// A conventional spec: `threads` per node, 32KB frames.
    pub fn new(name: impl Into<String>, threads: usize) -> Self {
        JobSpec {
            name: name.into(),
            threads,
            granularity: ByteSize::kib(32),
        }
    }
}

/// Parameters of an ITask two-phase job.
#[derive(Clone, Debug)]
pub struct ItaskJobSpec {
    /// Job name.
    pub name: String,
    /// IRS configuration (defaults are the paper's: N=20, M=10, slow
    /// start, rules-based victim selection).
    pub irs: IrsConfig,
    /// Input partition granularity in serialized bytes.
    pub granularity: ByteSize,
}

impl ItaskJobSpec {
    /// Defaults mirroring [`JobSpec::new`] with the stock IRS config.
    pub fn new(name: impl Into<String>, cores: usize) -> Self {
        ItaskJobSpec {
            name: name.into(),
            irs: IrsConfig {
                max_parallelism: cores,
                ..IrsConfig::default()
            },
            granularity: ByteSize::kib(32),
        }
    }
}

/// What an ITask map task emits as its final output: one flush's
/// partial results, already grouped for the shuffle. Flat — every tuple
/// of the flush in one vector, buckets ascending, and one `(bucket,
/// len)` run per bucket touched — so a batch is two allocations however
/// many buckets it spreads over. (The flush that builds one through
/// `apps`' grouped drain makes two more that die inside it: a 4 B
/// bucket tag per tuple and a 4 B cursor per bucket.)
pub struct ShuffleBatch<T> {
    /// The flush's tuples, grouped by bucket in `runs` order.
    tuples: Vec<T>,
    /// `(bucket, len)` of each group; the lengths sum to `tuples.len()`.
    runs: Vec<(u32, u32)>,
}

impl<T> ShuffleBatch<T> {
    /// From one flush's `tuples` already grouped by bucket, buckets
    /// strictly ascending, and the `(bucket, len)` of each group.
    pub fn from_runs(tuples: Vec<T>, runs: Vec<(u32, u32)>) -> Self {
        debug_assert_eq!(
            runs.iter().map(|&(_, len)| len as usize).sum::<usize>(),
            tuples.len(),
            "run lengths cover the tuples"
        );
        debug_assert!(
            runs.windows(2).all(|w| w[0].0 < w[1].0),
            "buckets strictly ascend"
        );
        ShuffleBatch { tuples, runs }
    }

    /// From `(bucket, tuples)` groups, kept in the order given.
    pub fn from_buckets(buckets: impl IntoIterator<Item = (u32, Vec<T>)>) -> Self {
        let (mut tuples, mut runs) = (Vec::new(), Vec::new());
        for (bucket, group) in buckets {
            runs.push((bucket, group.len() as u32));
            tuples.extend(group);
        }
        ShuffleBatch { tuples, runs }
    }

    /// Hands each `(bucket, run)` group to `arena`, in order.
    pub(crate) fn pour_into(self, arena: &mut BucketArena<T>) {
        let mut tuples = self.tuples.into_iter();
        for (bucket, len) in self.runs {
            arena.push_run(bucket, tuples.by_ref().take(len as usize));
        }
    }
}

/// Splits records into frames of at most `granularity` serialized bytes.
pub fn chunk_into_frames<T: Tuple>(records: Vec<T>, granularity: ByteSize) -> Vec<Vec<T>> {
    let _wall = prof::wall_timer(prof::Stage::FrameChunk);
    prof::count(prof::Stage::FrameChunk, 1, records.len() as u64);
    chunk_by(records, granularity, T::ser_bytes)
}

/// Splits records, in order, into frames whose `size`s sum to at most
/// `granularity`; a record larger than that gets a frame of its own.
/// Two passes: count each frame's length first so every frame (and
/// the outer vec) is allocated at exact capacity instead of grown.
pub fn chunk_by<T>(
    records: Vec<T>,
    granularity: ByteSize,
    size: impl Fn(&T) -> u64,
) -> Vec<Vec<T>> {
    let cap = granularity.as_u64();
    let mut counts: Vec<usize> = Vec::new();
    let mut n = 0usize;
    let mut bytes = 0u64;
    for r in &records {
        let b = size(r);
        if bytes + b > cap && n > 0 {
            counts.push(n);
            n = 0;
            bytes = 0;
        }
        bytes += b;
        n += 1;
    }
    if n > 0 {
        counts.push(n);
    }
    let mut it = records.into_iter();
    counts
        .into_iter()
        .map(|n| {
            let mut frame = Vec::with_capacity(n);
            frame.extend(it.by_ref().take(n));
            frame
        })
        .collect()
}

/// Advances the cluster until `job`'s running phase has retired on
/// every surviving node, then closes the phase with a cluster barrier.
/// The first thread failure aborts.
///
/// With a fault plan armed on the cluster, scheduled node crashes fire
/// as node clocks reach their instants. The scheduler salvages the
/// crashed node's live instances through their interrupt path as the
/// crash fires ([`Cluster::poll_crash`]), and the job reacts: an ITask
/// job re-homes the node's work onto the survivors and keeps going (it
/// fails only when *no* node survives), a regular job dies with
/// `NodeLost` like the paper's baselines.
///
/// Each busy live node, in node order, ticks its controller, runs one
/// round and polls for its crash, so recovery re-homes work before
/// later nodes tick.
/// `tick_node(n)` reads only node n and no other node's round touches
/// node n, so the order nodes are visited in cannot move a byte.
fn drive<In: Tuple, Mid: Tuple, Out: 'static>(
    cluster: &mut Cluster,
    job: &mut TwoPhaseJob<'_, In, Mid, Out>,
) -> SimResult<()> {
    loop {
        let mut any = false;
        for n in 0..cluster.node_count() {
            let node = NodeId(n as u32);
            if cluster.sim(node).is_crashed() || !job.node_busy(cluster, node) {
                continue;
            }
            any = true;
            job.tick_node(cluster, node)?;
            if !job.node_busy(cluster, node) {
                continue;
            }
            let failed = run_node_round(cluster, node).failed;
            cluster.poll_crash(node)?;
            if cluster.sim(node).is_crashed() {
                // The node died this round: its thread errors die with
                // it; recover its work onto the survivors.
                job.on_node_crash(cluster, node)?;
                continue;
            }
            if let Some((_, e)) = failed.into_iter().next() {
                return Err(e);
            }
        }
        if !any {
            break;
        }
    }
    cluster.sync_clocks(SimDuration::ZERO);
    Ok(())
}

/// The batch driver: runs `job` to completion on a cluster it owns.
///
/// Returns the job report (always, even on failure — the paper's CTime
/// is the time *until* the crash) and the final outputs or the error.
fn run_to_completion<In: Tuple, Mid: Tuple, Out: 'static>(
    cluster: &mut Cluster,
    mut job: TwoPhaseJob<'_, In, Mid, Out>,
) -> (JobReport, SimResult<Vec<Out>>) {
    let mut run = || {
        job.start(cluster)?;
        drive(cluster, &mut job)?;
        job.enter_reduce(cluster)?;
        drive(cluster, &mut job)?;
        Ok(job.finish())
    };
    let result: SimResult<Vec<Out>> = run();
    let outcome = match &result {
        Ok(_) => JobOutcome::Completed,
        Err(e) => JobOutcome::Failed(e.clone()),
    };
    let mut report = cluster.report(outcome);
    job.absorb_stats(&mut report);
    (report, result)
}

/// Runs a regular (non-interruptible) two-phase job.
///
/// Returns the job report (always, even on failure) and the final
/// outputs or the error.
pub fn run_regular<M, R>(
    cluster: &mut Cluster,
    inputs: Vec<Vec<Vec<M::In>>>,
    spec: &JobSpec,
    map_factory: impl Fn() -> M,
    reduce_factory: impl Fn() -> R,
) -> (JobReport, SimResult<Vec<R::Out>>)
where
    M: Operator + 'static,
    R: Operator<In = M::Out> + 'static,
{
    let job = TwoPhaseJob::regular(
        spec,
        None,
        ShuffleClocks::Barrier,
        inputs,
        map_factory,
        reduce_factory,
    );
    run_to_completion(cluster, job)
}

/// Per-node ITask factories for one two-phase job.
pub struct ItaskFactories {
    /// Builds the map task (emits final [`ShuffleBatch`]s).
    pub map: Rc<dyn Fn() -> Box<dyn ITask>>,
    /// Builds the reduce task (queues tagged partials to the merge).
    pub reduce: Rc<dyn Fn() -> Box<dyn ITask>>,
    /// Builds the merge MITask (emits final `Vec<Out>`).
    pub merge: Rc<dyn Fn() -> Box<dyn ITask>>,
}

impl Clone for ItaskFactories {
    fn clone(&self) -> Self {
        ItaskFactories {
            map: self.map.clone(),
            reduce: self.reduce.clone(),
            merge: self.merge.clone(),
        }
    }
}

/// Runs the ITask version of a two-phase job (task conventions:
/// [`TwoPhaseJob::itask`]).
pub fn run_itask<MIn, Mid, Out>(
    cluster: &mut Cluster,
    inputs: Vec<Vec<Vec<MIn>>>,
    spec: &ItaskJobSpec,
    factories: &ItaskFactories,
) -> (JobReport, SimResult<Vec<Out>>)
where
    MIn: Tuple,
    Mid: Tuple,
    Out: 'static,
{
    let job = TwoPhaseJob::<MIn, Mid, Out>::itask(spec, ShuffleClocks::Barrier, inputs, factories);
    run_to_completion(cluster, job)
}

/// Convenience: distributes generator blocks across nodes round-robin
/// and chunks each block into frames (HDFS-style locality).
pub fn distribute_blocks<T: Tuple>(
    nodes: usize,
    blocks: Vec<Vec<T>>,
    granularity: ByteSize,
) -> Vec<Vec<Vec<T>>> {
    let mut per_node: Vec<Vec<Vec<T>>> = (0..nodes).map(|_| Vec::new()).collect();
    for (i, block) in blocks.into_iter().enumerate() {
        let frames = chunk_into_frames(block, granularity);
        per_node[i % nodes].extend(frames);
    }
    per_node
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[derive(Clone, Debug, PartialEq)]
    struct K(u64);

    impl Tuple for K {
        fn heap_bytes(&self) -> u64 {
            8
        }
    }

    /// One flush in the per-bucket form map tasks used to emit: the
    /// key-ordered drain dealt into a `BTreeMap<bucket, Vec>`.
    fn per_bucket(drain: &[K], buckets: u64) -> BTreeMap<u32, Vec<K>> {
        let mut groups: BTreeMap<u32, Vec<K>> = BTreeMap::new();
        for k in drain {
            groups
                .entry((k.0 % buckets) as u32)
                .or_default()
                .push(k.clone());
        }
        groups
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// What the shuffle sees of a node's flushes — each bucket's
        /// tuple sequence and the `(bucket, len)` batch list the fabric
        /// is charged by — is the same whether a flush arrives flat with
        /// its run list or dealt into per-bucket vectors.
        #[test]
        fn flat_batches_fill_the_arena_like_per_bucket_ones(
            flushes in proptest::collection::vec(proptest::collection::vec(0u64..400, 0..60), 0..10),
            buckets in 1u64..12,
        ) {
            let mut want_arenas: Vec<Vec<K>> = Vec::new();
            let mut want_batches: Vec<(u32, u32)> = Vec::new();
            let mut from_runs = BucketArena::default();
            let mut from_buckets = BucketArena::default();
            for mut keys in flushes {
                // An aggregate drains unique keys in key order.
                keys.sort_unstable();
                keys.dedup();
                let drain: Vec<K> = keys.into_iter().map(K).collect();
                let old = per_bucket(&drain, buckets);
                for (&bucket, group) in &old {
                    if want_arenas.len() <= bucket as usize {
                        want_arenas.resize_with(bucket as usize + 1, Vec::new);
                    }
                    want_arenas[bucket as usize].extend(group.iter().cloned());
                    want_batches.push((bucket, group.len() as u32));
                }
                let runs = old.iter().map(|(&b, group)| (b, group.len() as u32)).collect();
                let flat = old.values().flatten().cloned().collect();
                ShuffleBatch::from_runs(flat, runs).pour_into(&mut from_runs);
                ShuffleBatch::from_buckets(old).pour_into(&mut from_buckets);
            }
            let want = (want_arenas, want_batches);
            prop_assert_eq!(&from_runs.into_parts(), &want);
            prop_assert_eq!(&from_buckets.into_parts(), &want);
        }
    }
}
