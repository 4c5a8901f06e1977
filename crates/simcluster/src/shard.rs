//! Deterministic lockstep shard executor.
//!
//! Splits one run's node simulators across a fixed pool of worker
//! threads while keeping every observable byte — stdout, trace JSONL,
//! profiler counters — identical to the serial round-robin loop at any
//! shard count (DESIGN.md §5f).
//!
//! The execution model is conservative parallel discrete-event
//! simulation in its simplest shape: nodes only interact at driver-side
//! barriers (shuffles, clock syncs, admission decisions), so within one
//! scheduling *round* every node's step is independent. The executor
//! advances all nodes in lockstep rounds: ship each node to its shard,
//! run one round per node in parallel, then commit the results at a
//! barrier **in node order** — exactly the order the serial loop used.
//!
//! Three mechanisms make the merge byte-identical rather than merely
//! equivalent:
//!
//! 1. **Stream-namespaced event ids.** Each node round runs under a
//!    tracer *stream overlay* ([`simcore::tracer::stream_begin`]):
//!    events get ids `(stream << 32) | seq` where stream `n + 1` belongs
//!    to node `n` and the per-node `seq` cursor lives in the
//!    [`Cluster`]. Ids therefore encode *which node emitted, at which
//!    point in its own logical progress* — invariant under shard count —
//!    and the run buffer's `(time, node, id)` sort reproduces one
//!    canonical order.
//! 2. **Profiler segments.** Worker rounds capture counter deltas into
//!    thread-local [`simcore::prof::ProfSegment`]s, applied at the
//!    barrier in node order (sums are commutative; capture exists so
//!    discarded rounds leave no residue).
//! 3. **Speculation rewind.** Under fail-fast driving (batch engines
//!    abort a run on the first thread failure), the serial loop never
//!    ran nodes after the failing one. Shards run them speculatively,
//!    so each fail-fast round checkpoints every node first
//!    ([`NodeSim::checkpoint`]); when node `k` fails, nodes after `k`
//!    are rewound and their trace/profiler output is discarded.
//!
//! With `shards() == 1` (the default) no worker threads exist: rounds
//! run inline on the driver thread, still under stream overlays so the
//! emitted bytes match the pooled path exactly.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use simcore::{prof, tracer, ByteSize, NodeId};

use crate::cluster::Cluster;
use crate::node::NodeState;
use crate::sched::{NodeSim, NodeSimCheckpoint, RoundReport};

/// Process-wide shard count, set once by the bench/CLI layer
/// (`--shards N` / `ITASK_BENCH_SHARDS`). Default 1 = serial.
static SHARDS: AtomicUsize = AtomicUsize::new(1);

/// Sets the process-wide shard count (values below 1 clamp to 1).
pub fn set_shards(n: usize) {
    SHARDS.store(n.max(1), Ordering::Relaxed);
}

/// The process-wide shard count.
pub fn shards() -> usize {
    SHARDS.load(Ordering::Relaxed)
}

/// The tracer stream owned by a node (stream 0 is the driver).
fn stream_of(node: NodeId) -> u32 {
    node.0 + 1
}

/// Fans generic driver-side work out across scoped worker threads,
/// honouring the process-wide shard count, and commits results **in
/// part order**.
///
/// The generic sibling of [`ShardExecutor::run_round`] for work that is
/// not a node round — e.g. per-shard admission pops in simserve. Part
/// `i` runs on worker `i % shards()` (the same position-based
/// assignment the node pool uses, so placement depends only on the part
/// list, never on timing), and the returned vector is indexed by part
/// regardless of completion order, so output is byte-identical at any
/// shard count. With `shards() <= 1` or a single part, everything runs
/// inline on the caller's thread.
///
/// Closures run on worker threads and must therefore not emit tracer
/// events or profiler counters — those belong to the driver thread.
/// Batch any such output into the returned value and emit it after the
/// merge.
pub fn run_parts<T, R, F>(parts: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    run_parts_with(shards(), parts, f)
}

/// [`run_parts`] with an explicit worker count instead of the
/// process-wide setting (tests and callers that manage their own
/// parallelism).
pub fn run_parts_with<T, R, F>(workers: usize, parts: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let workers = workers.min(parts.len());
    if workers <= 1 {
        return parts
            .into_iter()
            .enumerate()
            .map(|(i, p)| f(i, p))
            .collect();
    }
    let mut buckets: Vec<Vec<(usize, T)>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, p) in parts.into_iter().enumerate() {
        buckets[i % workers].push((i, p));
    }
    let total: usize = buckets.iter().map(Vec::len).sum();
    let mut slots: Vec<Option<R>> = Vec::with_capacity(total);
    slots.resize_with(total, || None);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|bucket| {
                scope.spawn(move || {
                    bucket
                        .into_iter()
                        .map(|(i, p)| (i, f(i, p)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("run_parts worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every part reported"))
        .collect()
}

/// Outcome of one lockstep round across a set of nodes.
#[derive(Debug, Default)]
pub struct RoundRun {
    /// Per-node round reports in node order. Under fail-fast the list
    /// ends at the first node that reported a failure (later nodes did
    /// not observably run, matching the serial loop).
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

/// One node shipped to a shard worker for one round.
struct Entry {
    /// Position in this round's `nodes` slice (commit order).
    pos: usize,
    node: NodeId,
    sim: NodeSim,
    /// Stream cursor before the round.
    seq: u64,
    /// Take a pre-round checkpoint (fail-fast rounds only).
    checkpoint: bool,
}

/// A worker's result for one node round.
struct Done {
    pos: usize,
    node: NodeId,
    sim: NodeSim,
    report: RoundReport,
    /// Stream cursor after the round.
    seq_after: u64,
    events: Vec<tracer::Event>,
    prof: prof::ProfSegment,
    checkpoint: Option<NodeSimCheckpoint>,
}

fn worker_loop(rx: Receiver<Vec<Entry>>, tx: Sender<Vec<Done>>) {
    while let Ok(batch) = rx.recv() {
        let mut out = Vec::with_capacity(batch.len());
        for mut e in batch {
            let checkpoint = e.checkpoint.then(|| e.sim.checkpoint());
            tracer::stream_begin(stream_of(e.node), e.seq);
            prof::segment_begin();
            let report = e.sim.run_round();
            let seg = prof::segment_take();
            let (seq_after, events) = tracer::stream_take(e.seq);
            out.push(Done {
                pos: e.pos,
                node: e.node,
                sim: e.sim,
                report,
                seq_after,
                events,
                prof: seg,
                checkpoint,
            });
        }
        if tx.send(out).is_err() {
            break;
        }
    }
}

/// Persistent worker threads; node at round position `i` goes to shard
/// `i % shards`, so the assignment depends only on the runnable set,
/// never on timing.
struct ShardPool {
    txs: Vec<Sender<Vec<Entry>>>,
    rx: Receiver<Vec<Done>>,
    handles: Vec<JoinHandle<()>>,
}

impl ShardPool {
    fn new(shards: usize) -> Self {
        let (done_tx, done_rx) = channel();
        let mut txs = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for i in 0..shards {
            let (tx, rx) = channel::<Vec<Entry>>();
            let done = done_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("itask-shard-{i}"))
                .spawn(move || worker_loop(rx, done))
                .expect("spawn shard worker");
            txs.push(tx);
            handles.push(handle);
        }
        ShardPool {
            txs,
            rx: done_rx,
            handles,
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        // Closing the job channels ends the worker loops.
        self.txs.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Drives lockstep rounds for one engine run.
///
/// Engines create one executor per drive loop and call
/// [`ShardExecutor::run_round`] with the round's runnable nodes. The
/// executor owns the worker pool (spawned lazily on the first
/// multi-shard round) and the placeholder simulators swapped into the
/// cluster while real ones ride a channel.
pub struct ShardExecutor {
    shards: usize,
    pool: Option<ShardPool>,
    /// Pre-built placeholders, indexed by node; `None` while the slot's
    /// placeholder sits in the cluster during a round.
    spares: Vec<Option<NodeSim>>,
}

impl Default for ShardExecutor {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardExecutor {
    /// An executor honouring the process-wide [`shards`] setting.
    pub fn new() -> Self {
        Self::with_shards(shards())
    }

    /// An executor with an explicit shard count (tests).
    pub fn with_shards(shards: usize) -> Self {
        ShardExecutor {
            shards: shards.max(1),
            pool: None,
            spares: Vec::new(),
        }
    }

    /// The shard count this executor drives.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Runs one lockstep round over `nodes` (each steps once), committing
    /// reports, trace events and profiler deltas in node order.
    ///
    /// With `fail_fast`, the round aborts at the first node whose report
    /// carries a thread failure: later nodes are rewound (pooled path)
    /// or never run (inline path), reproducing the serial loop's
    /// stop-at-first-failure bytes.
    pub fn run_round(
        &mut self,
        cluster: &mut Cluster,
        nodes: &[NodeId],
        fail_fast: bool,
    ) -> RoundRun {
        if self.shards <= 1 || nodes.len() <= 1 {
            Self::run_round_inline(cluster, nodes, fail_fast)
        } else {
            self.run_round_pooled(cluster, nodes, fail_fast)
        }
    }

    /// One node round on the driver thread, under the node's stream
    /// overlay, so its event ids match the executor paths. The batch
    /// drive uses it for the one case that must interleave with the
    /// driver: a node whose scheduled crash has not fired yet runs
    /// round-then-poll; every other node rides [`Self::run_round`].
    pub fn run_node_round(cluster: &mut Cluster, node: NodeId) -> RoundReport {
        let seq = cluster.stream_seq(node);
        tracer::stream_begin(stream_of(node), seq);
        let report = cluster.sim(node).run_round();
        let (next, events) = tracer::stream_take(seq);
        cluster.set_stream_seq(node, next);
        tracer::absorb(events);
        report
    }

    /// One round for a standalone simulator outside any [`Cluster`] (the
    /// Hadoop single-JVM attempt loop). The caller owns the stream
    /// cursor.
    pub fn run_solo_round(sim: &mut NodeSim, seq: &mut u64) -> RoundReport {
        let stream = stream_of(sim.node().id);
        tracer::stream_begin(stream, *seq);
        let report = sim.run_round();
        let (next, events) = tracer::stream_take(*seq);
        *seq = next;
        tracer::absorb(events);
        report
    }

    fn run_round_inline(cluster: &mut Cluster, nodes: &[NodeId], fail_fast: bool) -> RoundRun {
        let mut run = RoundRun {
            reports: Vec::with_capacity(nodes.len()),
            aborted: false,
        };
        for &node in nodes {
            let report = Self::run_node_round(cluster, node);
            let failed = !report.failed.is_empty();
            run.reports.push((node, report));
            if fail_fast && failed {
                run.aborted = true;
                break;
            }
        }
        run
    }

    fn run_round_pooled(
        &mut self,
        cluster: &mut Cluster,
        nodes: &[NodeId],
        fail_fast: bool,
    ) -> RoundRun {
        let pool = self.pool.get_or_insert_with(|| ShardPool::new(self.shards));
        let max_idx = nodes.iter().map(|n| n.as_usize()).max().unwrap_or(0);
        while self.spares.len() <= max_idx {
            let id = NodeId(self.spares.len() as u32);
            self.spares.push(Some(NodeSim::new(NodeState::new(
                id,
                1,
                ByteSize::ZERO,
                ByteSize::ZERO,
            ))));
        }

        // Ship each node to its shard: swap the placeholder in, move the
        // real simulator out through the job channel.
        let mut batches: Vec<Vec<Entry>> = (0..self.shards).map(|_| Vec::new()).collect();
        for (pos, &node) in nodes.iter().enumerate() {
            let mut sim = self.spares[node.as_usize()]
                .take()
                .expect("spare in flight");
            cluster.swap_sim(node, &mut sim);
            batches[pos % self.shards].push(Entry {
                pos,
                node,
                sim,
                seq: cluster.stream_seq(node),
                checkpoint: fail_fast,
            });
        }
        let mut dispatched = 0;
        for (shard, batch) in batches.into_iter().enumerate() {
            if !batch.is_empty() {
                pool.txs[shard].send(batch).expect("shard worker alive");
                dispatched += 1;
            }
        }

        // Barrier: collect every shard's results, then commit in node
        // order so the merge is independent of completion timing.
        let mut done: Vec<Option<Done>> = nodes.iter().map(|_| None).collect();
        for _ in 0..dispatched {
            let batch = pool.rx.recv().expect("shard worker alive");
            for d in batch {
                let pos = d.pos;
                done[pos] = Some(d);
            }
        }

        let mut run = RoundRun {
            reports: Vec::with_capacity(nodes.len()),
            aborted: false,
        };
        for slot in &mut done {
            let d = slot.take().expect("every position reported");
            let node = d.node;
            let mut sim = d.sim;
            cluster.swap_sim(node, &mut sim);
            self.spares[node.as_usize()] = Some(sim);
            if run.aborted {
                // Overshoot: under serial fail-fast this node never ran
                // this round. Rewind it and drop its output.
                let cp = d.checkpoint.expect("fail-fast round checkpoints");
                cluster.sim(node).rewind(&cp);
                continue;
            }
            cluster.set_stream_seq(node, d.seq_after);
            tracer::absorb(d.events);
            prof::segment_apply(&d.prof);
            let failed = !d.report.failed.is_empty();
            run.reports.push((node, d.report));
            if fail_fast && failed {
                run.aborted = true;
            }
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::node::WorkCx;
    use crate::work::{StepOutcome, Work};
    use simcore::{SimError, SpaceId};

    /// Burns CPU over `tuples` synthetic tuples, allocating per tuple;
    /// optionally fails after a fixed number of tuples.
    struct Crunch {
        space: Option<SpaceId>,
        tuples: u64,
        fail_after: Option<u64>,
        processed: u64,
    }

    impl Work for Crunch {
        fn step(&mut self, cx: &mut WorkCx<'_>) -> StepOutcome {
            let space = match self.space {
                Some(s) => s,
                None => {
                    let s = cx.create_space("crunch");
                    self.space = Some(s);
                    s
                }
            };
            let per_tuple = cx.cost().tuple_cost(ByteSize(64));
            while self.tuples > 0 && !cx.out_of_quantum() {
                if self.fail_after.is_some_and(|n| self.processed >= n) {
                    return StepOutcome::Failed(SimError::Internal("planned failure".into()));
                }
                cx.charge(per_tuple);
                if let Err(e) = cx.alloc(space, ByteSize(48)) {
                    return StepOutcome::Failed(e);
                }
                self.tuples -= 1;
                self.processed += 1;
            }
            if self.tuples == 0 {
                StepOutcome::Finished
            } else {
                StepOutcome::Ran
            }
        }

        fn label(&self) -> String {
            "crunch".into()
        }
    }

    fn crunch(tuples: u64) -> Box<dyn Work> {
        Box::new(Crunch {
            space: None,
            tuples,
            fail_after: None,
            processed: 0,
        })
    }

    fn crunch_failing(tuples: u64, fail_after: u64) -> Box<dyn Work> {
        Box::new(Crunch {
            space: None,
            tuples,
            fail_after: Some(fail_after),
            processed: 0,
        })
    }

    fn cluster(nodes: usize) -> Cluster {
        Cluster::new(ClusterConfig {
            nodes,
            cores: 2,
            heap_per_node: ByteSize::mib(8),
            disk_per_node: ByteSize::mib(64),
            ..Default::default()
        })
    }

    /// Runs a workload to completion and returns a determinism
    /// fingerprint: per-node `(final clock ns, compute ns, minor GCs)`
    /// plus the flattened per-round report summary.
    fn drive(shards: usize, fail_node: Option<usize>) -> (Vec<(u128, u128, u64)>, Vec<String>) {
        const NODES: usize = 5;
        let mut c = cluster(NODES);
        for i in 0..NODES {
            let sim = c.sim(NodeId(i as u32));
            // Skewed load: node i gets i+1 threads.
            for _ in 0..=i {
                sim.spawn(crunch(4_000 + 700 * i as u64));
            }
            if fail_node == Some(i) {
                sim.spawn(crunch_failing(10_000, 2_500));
            }
        }
        let mut exec = ShardExecutor::with_shards(shards);
        let mut rounds = Vec::new();
        loop {
            let runnable: Vec<NodeId> = (0..NODES as u32)
                .map(NodeId)
                .filter(|&n| c.sim(n).live_count() > 0)
                .collect();
            if runnable.is_empty() {
                break;
            }
            let run = exec.run_round(&mut c, &runnable, true);
            for (n, r) in &run.reports {
                rounds.push(format!(
                    "{}:{}/{}f{}e{}",
                    n.0,
                    r.stepped,
                    r.wall.as_nanos(),
                    r.finished.len(),
                    r.failed.len()
                ));
            }
            if run.first_failure().is_some() {
                break;
            }
        }
        let fingerprint = (0..NODES as u32)
            .map(|i| {
                let n = c.sim(NodeId(i)).node();
                (
                    n.now.as_nanos() as u128,
                    n.compute_time.as_nanos() as u128,
                    n.heap.stats().minor_count,
                )
            })
            .collect();
        (fingerprint, rounds)
    }

    #[test]
    fn pooled_rounds_match_serial_exactly() {
        let serial = drive(1, None);
        for shards in [2, 3, 4, 8] {
            let pooled = drive(shards, None);
            assert_eq!(serial.0, pooled.0, "state diverged at {shards} shards");
            assert_eq!(serial.1, pooled.1, "reports diverged at {shards} shards");
        }
    }

    #[test]
    fn fail_fast_overshoot_is_rewound() {
        // Node 2 fails mid-run; nodes 3 and 4 run that round
        // speculatively under shards>1 and must be rewound to the bytes
        // the serial abort produced.
        let serial = drive(1, Some(2));
        for shards in [2, 4] {
            let pooled = drive(shards, Some(2));
            assert_eq!(serial.0, pooled.0, "state diverged at {shards} shards");
            assert_eq!(serial.1, pooled.1, "reports diverged at {shards} shards");
        }
    }

    #[test]
    fn first_failure_surfaces_the_failing_node() {
        let mut c = cluster(2);
        c.sim(NodeId(1)).spawn(crunch_failing(100, 0));
        c.sim(NodeId(0)).spawn(crunch(100));
        let mut exec = ShardExecutor::with_shards(2);
        let nodes = [NodeId(0), NodeId(1)];
        let run = exec.run_round(&mut c, &nodes, true);
        let (node, report) = run.first_failure().expect("failure reported");
        assert_eq!(node, NodeId(1));
        assert_eq!(report.failed.len(), 1);
        assert!(run.aborted);
    }

    #[test]
    fn checkpoint_rewind_restores_round_state() {
        let mut c = cluster(1);
        let n = NodeId(0);
        c.sim(n).spawn(crunch(50_000));
        // Advance a bit so the checkpoint captures non-trivial state.
        for _ in 0..10 {
            c.sim(n).run_round();
        }
        let cp = c.sim(n).checkpoint();
        let now = c.sim(n).node().now;
        let compute = c.sim(n).node().compute_time;
        let minors = c.sim(n).node().heap.stats().minor_count;
        for _ in 0..25 {
            c.sim(n).run_round();
        }
        assert!(c.sim(n).node().now > now);
        c.sim(n).rewind(&cp);
        assert_eq!(c.sim(n).node().now, now);
        assert_eq!(c.sim(n).node().compute_time, compute);
        assert_eq!(c.sim(n).node().heap.stats().minor_count, minors);
    }

    #[test]
    fn global_shard_setting_round_trips() {
        assert!(shards() >= 1);
        set_shards(0);
        assert_eq!(shards(), 1);
        set_shards(3);
        assert_eq!(shards(), 3);
        set_shards(1);
    }

    #[test]
    fn run_parts_commits_in_part_order_at_any_shard_count() {
        // The inline path (shards=1) is the reference; pooled runs must
        // return the same vector. Work is skewed so completion order
        // differs from part order under real parallelism.
        let work = |i: usize, x: u64| -> u64 {
            let mut acc = x;
            for k in 0..(1 + (i as u64 % 3)) * 10_000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            acc ^ (i as u64)
        };
        let parts: Vec<u64> = (0..17u64).collect();
        let serial = run_parts_with(1, parts.clone(), work);
        for n in [2, 4, 8] {
            assert_eq!(
                run_parts_with(n, parts.clone(), work),
                serial,
                "diverged at {n} workers"
            );
        }
    }

    #[test]
    fn run_parts_handles_empty_and_single() {
        assert_eq!(
            run_parts_with(4, Vec::<u64>::new(), |_, x| x),
            Vec::<u64>::new()
        );
        assert_eq!(run_parts_with(4, vec![9u64], |i, x| x + i as u64), vec![9]);
    }
}
