//! The two-phase pipeline as one resumable machine: partition-local
//! map → hash shuffle → bucket-exclusive reduce (+ merge), in regular
//! and ITask form, with queue re-homing after a crash (the scheduler
//! salvages the dead threads through the interrupt path first).
//!
//! [`TwoPhaseJob`] owns the pipeline and nothing about *when* it is
//! advanced. Two drivers sequence it: [`crate::engine`] runs one job to
//! completion on a cluster it owns (cluster barriers between phases),
//! and `simserve` pumps many jobs once per scheduling round on shared
//! nodes. Three things differ between them and are arguments here, not
//! second paths: the allocation scope the job's threads and trace events
//! carry (`None` = the job owns the cluster), the [`ShuffleClocks`]
//! policy, and whether a re-homed queue's source node is dead (crash: a
//! surviving donor re-sends) or alive (quarantine drain: it pushes its
//! own bytes).

use std::collections::VecDeque;

use itask_core::{offer_serialized, Irs, IrsConfig, PartitionState, Tag, TaskGraph, Tuple};
use simcluster::{Cluster, JobReport, NodeSim, Work};
use simcore::{metrics, prof, tracer, ByteSize, NodeId, SimDuration, SimError, SimResult, SimTime};

use crate::engine::{chunk_into_frames, ItaskFactories, ItaskJobSpec, JobSpec, ShuffleBatch};
use crate::operator::{BucketArena, Operator, OperatorWorker, OutputSink};

/// Which node clocks the shuffle's wire time advances.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShuffleClocks {
    /// The shuffle is a cluster barrier: every clock moves to the
    /// latest clock plus the slowest transfer (a job that owns the
    /// cluster).
    Barrier,
    /// Only the receiving nodes wait, each for its own slowest inbound
    /// transfer; other jobs' nodes are untouched (a shared cluster).
    Receivers,
}

/// Where a job stands in the pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Phase 1 placed (or about to be) and running.
    Map,
    /// Shuffled; phase 2 running.
    Reduce,
    /// Outputs collected.
    Done,
}

/// Builds one regular worker thread over its share of a phase's frames.
type Spawner<'f, I, O> = Box<dyn Fn(VecDeque<Vec<I>>, OutputSink<O>, String) -> Box<dyn Work> + 'f>;

/// A [`Spawner`] of `factory`'s operators; `charge_read` as in
/// [`OperatorWorker::new`] (the map phase reads its frames off disk).
fn spawner<'f, O: Operator + 'static>(
    factory: impl Fn() -> O + 'f,
    charge_read: bool,
) -> Spawner<'f, O::In, O::Out> {
    Box::new(move |frames, sink, label| {
        Box::new(OperatorWorker::new(
            factory(),
            frames,
            sink,
            charge_read,
            label,
        ))
    })
}

/// The engine-specific half of a job: what runs a phase on a node and
/// where its outputs collect.
enum Plane<'f, In, Mid, Out> {
    Regular(RegularPlane<'f, In, Mid, Out>),
    Itask(ItaskPlane),
}

/// Fixed thread pools, operator state pinned for the phase; an OME or
/// node loss anywhere kills the job.
struct RegularPlane<'f, In, Mid, Out> {
    threads: usize,
    map: Spawner<'f, In, Mid>,
    reduce: Spawner<'f, Mid, Out>,
    /// Per-node sinks of the running phase.
    map_sinks: Vec<OutputSink<Mid>>,
    reduce_sinks: Vec<OutputSink<Out>>,
}

/// ITasks under one IRS controller per node: interruptible, recoverable.
struct ItaskPlane {
    cfg: IrsConfig,
    factories: ItaskFactories,
    /// Per-node controllers of the running phase.
    irss: Vec<Irs>,
    /// Controllers of finished phases, kept for their statistics.
    retired: Vec<Irs>,
}

/// A two-phase job as a resumable machine. A driver calls
/// [`start`](Self::start), advances the cluster until the job is
/// [`quiesced`](Self::quiesced) ([`tick`](Self::tick)ing its controllers
/// between rounds), calls [`enter_reduce`](Self::enter_reduce), advances
/// again, and [`finish`](Self::finish)es.
pub struct TwoPhaseJob<'f, In, Mid, Out> {
    name: String,
    granularity: ByteSize,
    scope: Option<u64>,
    clocks: ShuffleClocks,
    inputs: Option<Vec<Vec<Vec<In>>>>,
    phase: Phase,
    plane: Plane<'f, In, Mid, Out>,
}

impl<'f, In: Tuple, Mid: Tuple, Out: 'static> TwoPhaseJob<'f, In, Mid, Out> {
    /// A regular job over per-node input frames; its threads run under
    /// `scope`.
    pub fn regular<M, R>(
        spec: &JobSpec,
        scope: Option<u64>,
        clocks: ShuffleClocks,
        inputs: Vec<Vec<Vec<In>>>,
        map_factory: impl Fn() -> M + 'f,
        reduce_factory: impl Fn() -> R + 'f,
    ) -> Self
    where
        M: Operator<In = In, Out = Mid> + 'static,
        R: Operator<In = Mid, Out = Out> + 'static,
    {
        assert!(spec.threads > 0, "at least one thread");
        let plane = Plane::Regular(RegularPlane {
            threads: spec.threads,
            map: spawner(map_factory, true),
            reduce: spawner(reduce_factory, false),
            map_sinks: Vec::new(),
            reduce_sinks: Vec::new(),
        });
        Self::new(&spec.name, spec.granularity, scope, clocks, inputs, plane)
    }

    /// An ITask job over per-node input frames; its scope is the IRS
    /// configuration's.
    ///
    /// Conventions (the shape of the paper's Figures 6–7):
    /// * the map task's `interrupt`/`cleanup` emit `Box<ShuffleBatch<Mid>>`
    ///   final outputs;
    /// * the reduce task's `interrupt`/`cleanup` queue partials to the
    ///   merge task, tagged with the input partition's bucket tag;
    /// * the merge MITask's `cleanup` emits `Box<Vec<Out>>` final outputs.
    pub fn itask(
        spec: &ItaskJobSpec,
        clocks: ShuffleClocks,
        inputs: Vec<Vec<Vec<In>>>,
        factories: &ItaskFactories,
    ) -> Self {
        let plane = Plane::Itask(ItaskPlane {
            cfg: spec.irs,
            factories: factories.clone(),
            irss: Vec::new(),
            retired: Vec::new(),
        });
        let (granularity, scope) = (spec.granularity, spec.irs.scope);
        Self::new(&spec.name, granularity, scope, clocks, inputs, plane)
    }

    fn new(
        name: &str,
        granularity: ByteSize,
        scope: Option<u64>,
        clocks: ShuffleClocks,
        inputs: Vec<Vec<Vec<In>>>,
        plane: Plane<'f, In, Mid, Out>,
    ) -> Self {
        TwoPhaseJob {
            name: name.to_string(),
            granularity,
            scope,
            clocks,
            inputs: Some(inputs),
            phase: Phase::Map,
            plane,
        }
    }

    /// The phase the job is in.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// The running phase's IRS controllers, one per node (empty for a
    /// regular job, before `start` and after `finish`).
    pub fn controllers(&self) -> &[Irs] {
        match &self.plane {
            Plane::Regular(_) => &[],
            Plane::Itask(p) => &p.irss,
        }
    }

    /// Places the inputs and launches phase 1. Called exactly once.
    pub fn start(&mut self, cluster: &mut Cluster) -> SimResult<()> {
        let inputs = self.inputs.take().expect("a job starts once");
        assert_eq!(
            inputs.len(),
            cluster.node_count(),
            "one input list per node"
        );
        for (n, frames) in inputs.into_iter().enumerate() {
            let sim = cluster.sim(NodeId(n as u32));
            match &mut self.plane {
                Plane::Regular(p) => {
                    // Deal frames round-robin to the fixed thread pool.
                    let mut per_thread: Vec<_> = (0..p.threads).map(|_| VecDeque::new()).collect();
                    for (i, f) in frames.into_iter().enumerate() {
                        per_thread[i % p.threads].push_back(f);
                    }
                    let label = format!("{}.map", self.name);
                    let sink = spawn_pool(sim, self.scope, per_thread, &p.map, &label);
                    p.map_sinks.push(sink);
                }
                Plane::Itask(p) => {
                    let mut graph = TaskGraph::new();
                    let map_f = p.factories.map.clone();
                    let map = graph.add_task("map", move || map_f());
                    let irs = Irs::new(graph, p.cfg);
                    let handle = irs.handle();
                    for frame in frames {
                        offer_serialized(&handle, sim.node_mut(), map, Tag(0), frame)?;
                    }
                    p.irss.push(irs);
                }
            }
        }
        Ok(())
    }

    /// Whether the job still has work on `node`: live threads (regular)
    /// or queued partitions and running instances (ITask).
    pub fn node_busy(&self, cluster: &mut Cluster, node: NodeId) -> bool {
        match (&self.plane, self.scope) {
            (Plane::Regular(_), Some(scope)) => cluster.sim(node).live_count_in_scope(scope) > 0,
            (Plane::Regular(_), None) => cluster.sim(node).live_count() > 0,
            (Plane::Itask(p), _) => p.irss.get(node.as_usize()).is_some_and(|i| !i.is_idle()),
        }
    }

    /// Whether the running phase has retired on every surviving node.
    pub fn quiesced(&self, cluster: &mut Cluster) -> bool {
        (0..cluster.node_count() as u32).all(|n| {
            let node = NodeId(n);
            cluster.sim(node).is_crashed() || !self.node_busy(cluster, node)
        })
    }

    /// The controller step for one node, between its scheduling rounds
    /// (activation, interrupts, growth). Regular jobs have none.
    pub fn tick_node(&mut self, cluster: &mut Cluster, node: NodeId) -> SimResult<()> {
        match &mut self.plane {
            Plane::Regular(_) => Ok(()),
            Plane::Itask(p) => p.irss[node.as_usize()].tick(cluster.sim(node)),
        }
    }

    /// [`tick_node`](Self::tick_node) on every surviving node the job
    /// still has work on.
    pub fn tick(&mut self, cluster: &mut Cluster) -> SimResult<()> {
        for n in 0..cluster.node_count() as u32 {
            let node = NodeId(n);
            if !cluster.sim(node).is_crashed() && self.node_busy(cluster, node) {
                self.tick_node(cluster, node)?;
            }
        }
        Ok(())
    }

    /// Map → reduce: collects phase-1 outputs, shuffles them under the
    /// job's clock policy, frames each bucket and launches phase 2.
    pub fn enter_reduce(&mut self, cluster: &mut Cluster) -> SimResult<()> {
        let outputs: BucketedOutputs<Mid> = match &mut self.plane {
            // A sink is a shared cell; drain it in place.
            Plane::Regular(p) => std::mem::take(&mut p.map_sinks)
                .into_iter()
                .map(|s| s.take())
                .collect(),
            Plane::Itask(p) => {
                let outputs = p.irss.iter_mut().map(|irs| {
                    let mut arena = BucketArena::default();
                    for batch in finals::<ShuffleBatch<Mid>>(irs, "map tasks emit ShuffleBatch") {
                        batch.pour_into(&mut arena);
                    }
                    arena
                });
                let outputs = outputs.collect();
                p.retired.append(&mut p.irss);
                outputs
            }
        };
        let per_node = shuffle(cluster, outputs, self.scope, self.clocks)?;
        self.phase = Phase::Reduce;

        let node_count = cluster.node_count();
        for (n, buckets) in per_node.into_iter().enumerate() {
            let node = NodeId(n as u32);
            let mut framed_tuples = 0u64;
            let framed: Vec<(u32, Vec<Vec<Mid>>)> = nonempty_buckets(buckets)
                .map(|(bucket, tuples)| {
                    framed_tuples += tuples.len() as u64;
                    let frames = chunk_into_frames(tuples, self.granularity);
                    (bucket, frames)
                })
                .collect();
            trace_frame_chunk(cluster, node, self.scope, framed_tuples);
            let sim = cluster.sim(node);
            match &mut self.plane {
                Plane::Regular(p) => {
                    // Whole buckets per thread (hash semantics).
                    let mut per_thread: Vec<_> = (0..p.threads).map(|_| VecDeque::new()).collect();
                    for (bucket, frames) in framed {
                        per_thread[(bucket as usize / node_count) % p.threads].extend(frames);
                    }
                    let label = format!("{}.red", self.name);
                    let sink = spawn_pool(sim, self.scope, per_thread, &p.reduce, &label);
                    p.reduce_sinks.push(sink);
                }
                Plane::Itask(p) => {
                    let mut graph = TaskGraph::new();
                    let red_f = p.factories.reduce.clone();
                    let mer_f = p.factories.merge.clone();
                    let reduce = graph.add_task("reduce", move || red_f());
                    let merge = graph.add_mitask("merge", move || mer_f());
                    graph.connect(reduce, merge);
                    graph.connect(merge, merge);
                    let irs = Irs::new(graph, p.cfg);
                    let handle = irs.handle();
                    for (bucket, frames) in framed {
                        for frame in frames {
                            let tag = Tag(bucket as u64);
                            offer_serialized(&handle, sim.node_mut(), reduce, tag, frame)?;
                        }
                    }
                    p.irss.push(irs);
                }
            }
        }
        Ok(())
    }

    /// Collects the reduce outputs — bucket order (regular) or node
    /// order (ITask merge finals), for determinism — and retires the job.
    pub fn finish(&mut self) -> Vec<Out> {
        self.phase = Phase::Done;
        match &mut self.plane {
            Plane::Regular(p) => {
                let mut all: Vec<(u32, Vec<Out>)> = Vec::new();
                for s in std::mem::take(&mut p.reduce_sinks) {
                    all.extend(s.borrow_mut().drain_groups());
                }
                all.sort_by_key(|(b, _)| *b);
                all.into_iter().flat_map(|(_, v)| v).collect()
            }
            Plane::Itask(p) => {
                let mut outs = Vec::new();
                for irs in &mut p.irss {
                    outs.extend(finals::<Vec<Out>>(irs, "merge tasks emit Vec<Out>").flatten());
                }
                p.retired.append(&mut p.irss);
                outs
            }
        }
    }

    /// Reacts to the crash of `node`, whose live workers the scheduler
    /// has already salvaged back into their controllers' queues
    /// ([`simcluster::NodeSim::crash`]): an ITask job re-homes
    /// everything the dead node still owned onto the survivors;
    /// a regular job has no recovery plane — the phase's operator state
    /// died with the node — and fails with `NodeLost`.
    pub fn on_node_crash(&mut self, cluster: &mut Cluster, node: NodeId) -> SimResult<()> {
        if self.phase == Phase::Done {
            return Ok(());
        }
        if matches!(self.plane, Plane::Regular(_)) {
            return Err(SimError::NodeLost { node });
        }
        let live = cluster.live_nodes();
        self.rehome(cluster, node, &live, false).map(drop)
    }

    /// Evacuates `node`'s queued partitions onto `targets` while the
    /// node is still alive (quarantine). Returns how many moved; a
    /// regular job pins its state to running threads and has no queue.
    pub fn drain_node(
        &mut self,
        cluster: &mut Cluster,
        node: NodeId,
        targets: &[NodeId],
    ) -> SimResult<usize> {
        self.rehome(cluster, node, targets, true)
    }

    /// Moves every partition queued on `src` onto `targets`, paying a
    /// transfer plus a destination disk write each (DESIGN.md "Fault
    /// model"). With a dead source this is the second half of crash
    /// recovery: a crash is an interrupt at the last safe point, the
    /// salvaged instances' processed prefixes already left the node and
    /// their cursors mark where processing stopped, so emitted outputs
    /// are never re-emitted, the remainder is processed once more
    /// elsewhere, and results stay bit-identical to a fault-free run.
    fn rehome(
        &mut self,
        cluster: &mut Cluster,
        src: NodeId,
        targets: &[NodeId],
        src_alive: bool,
    ) -> SimResult<usize> {
        let Plane::Itask(ItaskPlane { irss, .. }) = &mut self.plane else {
            return Ok(0);
        };
        let Some(irs) = irss.get_mut(src.as_usize()) else {
            return Ok(0);
        };
        let mut parts = irs.drain_queue();
        parts.sort_by_key(|p| p.meta().id);
        if targets.is_empty() {
            return Err(SimError::NodeLost { node: src });
        }
        let now = SimTime::ZERO + cluster.elapsed();
        let moved = parts.len();
        for mut part in parts {
            // Whatever heap form was accounted on the source dies there.
            if let Some(space) = part.meta().space() {
                cluster.sim(src).node_mut().heap.release_space(space);
            }
            let (pid, ser) = (part.meta().id, part.meta().ser_bytes);
            // Keep a whole tag group on ONE target. An MITask aggregates
            // its tag group in a single instance, and upstream tasks emit
            // partials *locally* — so a reduce partition tagged B and the
            // source's merge partials tagged B must land on the same
            // node, or two merge instances would each emit finals for the
            // same keys (duplicated results). Routing by tag alone (not
            // partition id or consumer task) guarantees that.
            let dst = targets[(part.meta().tag.0 % targets.len() as u64) as usize];
            // A live source pushes its own bytes; for a dead one any
            // survivor other than the target re-replicates.
            let tx = if src_alive {
                src
            } else {
                targets.iter().copied().find(|&n| n != dst).unwrap_or(dst)
            };
            let wire = cluster.fabric().transfer_at(tx, dst, ser, now)?;
            let dst_sim = cluster.sim(dst);
            dst_sim.node_mut().now += wire;
            let (file, _retries) = dst_sim
                .node_mut()
                .disk_write_retried(&format!("{pid}.rehome"), ser)?;
            let meta = part.meta_mut();
            meta.state = PartitionState::Serialized(file);
            meta.last_serialized = Some(dst_sim.node().now);
            if tracer::is_enabled() {
                tracer::emit(
                    Some(dst),
                    self.scope,
                    dst_sim.node().now,
                    SimDuration::ZERO,
                    tracer::TraceData::Rehome {
                        partition: pid.as_u32(),
                        from: src.as_u32(),
                    },
                );
            }
            let handle = irss[dst.as_usize()].handle();
            handle.push_partition(part);
            handle.note_crash_requeued(1);
        }
        Ok(moved)
    }

    /// Accumulates every phase's IRS statistics into the report counters.
    pub fn absorb_stats(&self, report: &mut JobReport) {
        if let Plane::Itask(p) = &self.plane {
            absorb_irs_stats(report, &p.retired);
            absorb_irs_stats(report, &p.irss);
        }
    }
}

/// Accumulates one phase's IRS statistics into the report counters.
fn absorb_irs_stats(report: &mut JobReport, irss: &[Irs]) {
    for irs in irss {
        let st = irs.stats();
        report.bump_counter("itask.interrupts", st.interrupts as f64);
        report.bump_counter("itask.emergency_interrupts", st.emergency_interrupts as f64);
        report.bump_counter("itask.grows", st.grows as f64);
        report.bump_counter("itask.serializations", st.serializations as f64);
        report.bump_counter("itask.deserializations", st.deserializations as f64);
        report.bump_counter("itask.peak_instances", st.peak_instances as f64);
        report.bump_counter("itask.transient_io_retries", st.transient_io_retries as f64);
        report.bump_counter(
            "itask.corruption_recoveries",
            st.corruption_recoveries as f64,
        );
        report.bump_counter(
            "itask.crash_salvaged_instances",
            st.crash_salvaged_instances as f64,
        );
        report.bump_counter(
            "itask.crash_requeued_partitions",
            st.crash_requeued_partitions as f64,
        );
        report.bump_counter(
            "reclaim.local_structs",
            st.reclaim.local_structs.as_u64() as f64,
        );
        report.bump_counter(
            "reclaim.processed_input",
            st.reclaim.processed_input.as_u64() as f64,
        );
        report.bump_counter(
            "reclaim.final_results",
            st.reclaim.final_results.as_u64() as f64,
        );
        report.bump_counter(
            "reclaim.intermediate_results",
            st.reclaim.intermediate_results.as_u64() as f64,
        );
        report.bump_counter(
            "reclaim.lazy_serialized",
            st.reclaim.lazy_serialized.as_u64() as f64,
        );
        report.bump_counter("monitor.lugcs", irs.monitor_stats().lugcs_seen as f64);
    }
}

/// The final outputs a controller's tasks published since the last call,
/// each downcast to the `T` the task conventions promise.
fn finals<T: 'static>(irs: &mut Irs, promise: &'static str) -> impl Iterator<Item = T> {
    let outputs = irs.take_final_outputs().into_iter();
    outputs.map(move |out| *out.data.downcast::<T>().expect(promise))
}

/// Spawns one worker per non-empty frame queue on `sim`, all feeding one
/// fresh node sink, which is returned.
fn spawn_pool<I, O>(
    sim: &mut NodeSim,
    scope: Option<u64>,
    per_thread: Vec<VecDeque<Vec<I>>>,
    spawner: &Spawner<'_, I, O>,
    label: &str,
) -> OutputSink<O> {
    let sink: OutputSink<O> = OutputSink::default();
    for (t, frames) in per_thread.into_iter().enumerate() {
        if !frames.is_empty() {
            sim.spawn_scoped(spawner(frames, sink.clone(), format!("{label}{t}")), scope);
        }
    }
    sink
}

/// Bucketed output entering the shuffle, indexed by source node: each
/// node's [`BucketArena`] of flush-ordered batches over dense
/// per-bucket tuple arenas.
type BucketedOutputs<T> = Vec<BucketArena<T>>;

/// Per-destination-node bucket → tuples leaving the shuffle: a dense
/// vector indexed by bucket id (empty slot = no tuples routed there).
/// The bucket space is small (nodes × threads × a small constant), so
/// direct indexing replaces the per-batch `BTreeMap` probe the old
/// representation paid millions of times per run; in-order iteration
/// filtered to non-empty slots yields exactly the ascending-bucket walk
/// a BTreeMap gave.
type ShuffledInputs<T> = Vec<Vec<Vec<T>>>;

/// Iterates a node's shuffled buckets in ascending order, skipping the
/// empty slots of the dense representation.
fn nonempty_buckets<T>(buckets: Vec<Vec<T>>) -> impl Iterator<Item = (u32, Vec<T>)> {
    buckets
        .into_iter()
        .enumerate()
        .filter(|(_, tuples)| !tuples.is_empty())
        .map(|(b, tuples)| (b as u32, tuples))
}

/// Routes bucketed outputs to their destination nodes, charging the
/// fabric, advances the clocks `clocks` names by the wire time, and
/// returns the per-node bucket → tuples tables.
///
/// Buckets only land on live nodes (on a healthy cluster that is every
/// node, and the routing is identical to the classic `bucket % nodes`).
/// Finals produced by a node that crashed afterwards were streamed out
/// before the crash, so a surviving node re-sends them on its behalf.
/// Transfers consult the armed fault plan: slowdown windows dilate the
/// wire time, finite partitions stall the sender, and a permanent
/// partition fails the shuffle with `NetPartition`.
fn shuffle<T: Tuple>(
    cluster: &mut Cluster,
    outputs: BucketedOutputs<T>,
    scope: Option<u64>,
    clocks: ShuffleClocks,
) -> SimResult<ShuffledInputs<T>> {
    let _wall = prof::wall_timer(prof::Stage::Shuffle);
    let nodes = cluster.node_count();
    let live = cluster.live_nodes();
    let now = SimTime::ZERO + cluster.elapsed();
    let mut per_node: ShuffledInputs<T> = (0..nodes).map(|_| Vec::new()).collect();
    // Slowest inbound transfer per destination node.
    let mut inbound = vec![SimDuration::ZERO; nodes];
    let (mut batch_count, mut byte_count) = (0u64, 0u64);
    let mut wire_total = SimDuration::ZERO;
    let mut cursors: Vec<usize> = Vec::new();
    for (src, arena) in outputs.into_iter().enumerate() {
        let src = NodeId(src as u32);
        let src = if live.contains(&src) {
            src
        } else {
            *live.first().ok_or(SimError::NodeLost { node: src })?
        };
        let (arenas, batches) = arena.into_parts();
        // Charge the fabric per flushed batch, in flush order — the
        // exact transfer sequence (and therefore every wire time) the
        // per-batch-vector representation produced. A cursor per bucket
        // walks each arena so a batch's bytes are summed over its own
        // slice.
        cursors.clear();
        cursors.resize(arenas.len(), 0);
        for (bucket, len) in batches {
            let bi = bucket as usize;
            let dst = live[bi % live.len()];
            let start = cursors[bi];
            cursors[bi] = start + len as usize;
            let bytes = ByteSize(
                arenas[bi][start..cursors[bi]]
                    .iter()
                    .map(Tuple::ser_bytes)
                    .sum(),
            );
            let wire = cluster.fabric().transfer_at(src, dst, bytes, now)?;
            let slowest = &mut inbound[dst.as_usize()];
            *slowest = (*slowest).max(wire);
            batch_count += 1;
            byte_count += bytes.as_u64();
            wire_total += wire;
        }
        // Every batch of bucket `b` from this source lands on the same
        // destination, so the whole per-bucket arena moves in one step:
        // adopted outright by the first source to fill the slot, bulk-
        // appended after that.
        for (bi, mut tuples) in arenas.into_iter().enumerate() {
            if tuples.is_empty() {
                continue;
            }
            let dst = live[bi % live.len()];
            let slots = &mut per_node[dst.as_usize()];
            if slots.len() <= bi {
                slots.resize_with(bi + 1, Vec::new);
            }
            if slots[bi].is_empty() {
                slots[bi] = tuples;
            } else {
                slots[bi].append(&mut tuples);
            }
        }
    }
    let max_wire = inbound.iter().copied().max().unwrap_or(SimDuration::ZERO);
    prof::count(prof::Stage::Shuffle, batch_count, byte_count);
    prof::vtime(prof::Stage::Shuffle, wire_total);
    // One aggregate span per shuffle call (per-batch events would be
    // millions per run): the span covers the slowest transfer.
    if tracer::is_enabled() {
        tracer::emit(
            None,
            scope,
            now,
            max_wire,
            tracer::TraceData::Shuffle {
                batches: batch_count,
                bytes: byte_count,
                wire_ns: wire_total.as_nanos(),
            },
        );
    }
    if metrics::is_enabled() && byte_count > 0 {
        metrics::counter_add(None, metrics::Metric::ShuffleBytes, now, byte_count);
    }
    match clocks {
        ShuffleClocks::Barrier => cluster.sync_clocks(max_wire),
        ShuffleClocks::Receivers => {
            for (n, wire) in inbound.into_iter().enumerate() {
                cluster.sim(NodeId(n as u32)).node_mut().now += wire;
            }
        }
    }
    Ok(per_node)
}

/// Traces one node's phase-2 framing as a single aggregate event (the
/// per-frame `prof` counters already capture volume; the trace only
/// needs the when/where).
fn trace_frame_chunk(cluster: &Cluster, node: NodeId, scope: Option<u64>, tuples: u64) {
    if tracer::is_enabled() && tuples > 0 {
        tracer::emit(
            Some(node),
            scope,
            SimTime::ZERO + cluster.elapsed(),
            SimDuration::ZERO,
            tracer::TraceData::FrameChunk { tuples },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcluster::ClusterConfig;
    use std::collections::BTreeMap;
    use std::rc::Rc;

    #[derive(Clone, Debug, PartialEq)]
    struct W(u64);

    impl Tuple for W {
        fn heap_bytes(&self) -> u64 {
            self.0
        }
    }

    fn cluster(nodes: usize) -> Cluster {
        Cluster::new(ClusterConfig {
            nodes,
            ..ClusterConfig::default()
        })
    }

    /// Four sources, each flushing five batches into buckets 0, 1, 4
    /// and 5 — which on four nodes land on nodes 0 and 1 only.
    fn flushed_batches() -> Vec<Vec<(u32, Vec<W>)>> {
        let batches_of = |src: u64| {
            let batch = move |(i, bucket): (usize, u32)| {
                let len = 1 + (src + i as u64) % 3;
                (
                    bucket,
                    (0..len).map(|k| W(300 * (src + 1) + 7 * k)).collect(),
                )
            };
            [0u32, 5, 4, 1, 0]
                .into_iter()
                .enumerate()
                .map(batch)
                .collect()
        };
        (0..4).map(batches_of).collect()
    }

    fn bucketed_outputs() -> BucketedOutputs<W> {
        let arena_of = |batches: Vec<(u32, Vec<W>)>| {
            let mut arena = BucketArena::default();
            for (bucket, tuples) in batches {
                arena.push_run(bucket, tuples.into_iter());
            }
            arena
        };
        flushed_batches().into_iter().map(arena_of).collect()
    }

    /// Shuffles [`bucketed_outputs`] from staggered clocks; returns the
    /// routed tables, the fabric's ledger and the clocks before/after.
    #[allow(clippy::type_complexity)]
    fn shuffled(clocks: ShuffleClocks) -> (ShuffledInputs<W>, String, Vec<SimTime>, Vec<SimTime>) {
        let mut c = cluster(4);
        for n in 0..4u32 {
            c.sim(NodeId(n)).node_mut().now += SimDuration::from_micros(10 * n as u64);
        }
        let before: Vec<SimTime> = (0..4).map(|n| c.sim(NodeId(n)).node().now).collect();
        let routed = shuffle(&mut c, bucketed_outputs(), None, clocks).unwrap();
        let ledger = format!("{:?}", c.fabric().stats());
        let after = (0..4).map(|n| c.sim(NodeId(n)).node().now).collect();
        (routed, ledger, before, after)
    }

    #[test]
    fn both_clock_policies_route_and_charge_identically() {
        let (barrier, barrier_ledger, _, _) = shuffled(ShuffleClocks::Barrier);
        let (receivers, receivers_ledger, _, _) = shuffled(ShuffleClocks::Receivers);
        assert_eq!(barrier, receivers, "per-node bucket contents");
        assert_eq!(barrier_ledger, receivers_ledger, "transfer sequence");
        // Bucket b lives on node b % 4 and holds every source's batches
        // for it, sources in order, each source's in flush order.
        for (node, buckets) in barrier.iter().enumerate() {
            for (b, got) in buckets.iter().enumerate() {
                let want: Vec<W> = flushed_batches()
                    .into_iter()
                    .flatten()
                    .filter(|(bucket, _)| *bucket as usize == b && b % 4 == node)
                    .flat_map(|(_, tuples)| tuples)
                    .collect();
                assert_eq!(got, &want, "node {node} bucket {b}");
            }
        }
        assert!(barrier[2].is_empty() && barrier[3].is_empty());
        assert_eq!(barrier[1].len(), 6, "buckets 1 and 5 landed on node 1");
    }

    #[test]
    fn barrier_equalizes_clocks_and_receivers_moves_only_destinations() {
        let (_, _, before, after) = shuffled(ShuffleClocks::Barrier);
        let latest = *before.iter().max().unwrap();
        assert!(after.iter().all(|&t| t == after[0]), "{after:?}");
        assert!(after[0] > latest, "the barrier includes the wire time");

        let (_, _, before, after) = shuffled(ShuffleClocks::Receivers);
        assert!(after[0] > before[0] && after[1] > before[1]);
        assert_eq!(after[2..], before[2..], "non-destinations untouched");
    }

    /// An ITask job whose controllers exist but never activate anything,
    /// with two queued partitions for each of twelve tags on `src`.
    fn queued_job(c: &mut Cluster, src: NodeId) -> TwoPhaseJob<'static, W, W, W> {
        let never = || -> Rc<dyn Fn() -> Box<dyn itask_core::ITask>> {
            Rc::new(|| unreachable!("nothing is activated"))
        };
        let factories = ItaskFactories {
            map: never(),
            reduce: never(),
            merge: never(),
        };
        let spec = ItaskJobSpec::new("rehome", 2);
        let inputs = (0..c.node_count()).map(|_| Vec::new()).collect();
        let mut job = TwoPhaseJob::itask(&spec, ShuffleClocks::Barrier, inputs, &factories);
        job.start(c).unwrap();
        let handle = job.controllers()[src.as_usize()].handle();
        for i in 0..24u64 {
            let frame = vec![W(64 + i)];
            let node = c.sim(src).node_mut();
            offer_serialized(&handle, node, simcore::TaskId(0), Tag(i % 12), frame).unwrap();
        }
        job
    }

    /// Where each tag's partitions sit after a re-home: tag → (node → count).
    fn placement(job: &mut TwoPhaseJob<'static, W, W, W>) -> BTreeMap<u64, BTreeMap<usize, usize>> {
        let Plane::Itask(ItaskPlane { irss, .. }) = &mut job.plane else {
            unreachable!("built as an ITask job");
        };
        let mut placed: BTreeMap<u64, BTreeMap<usize, usize>> = BTreeMap::new();
        for (n, irs) in irss.iter_mut().enumerate() {
            for part in irs.drain_queue() {
                *placed
                    .entry(part.meta().tag.0)
                    .or_default()
                    .entry(n)
                    .or_default() += 1;
            }
        }
        placed
    }

    fn assert_tag_groups_whole(
        placed: &BTreeMap<u64, BTreeMap<usize, usize>>,
        src: NodeId,
        targets: &[NodeId],
    ) {
        assert_eq!(placed.len(), 12, "every tag accounted for");
        let mut used = std::collections::BTreeSet::new();
        for (tag, nodes) in placed {
            assert_eq!(nodes.len(), 1, "tag {tag} split across {nodes:?}");
            let (&node, &count) = nodes.iter().next().unwrap();
            assert_eq!(count, 2, "tag {tag} lost a partition");
            assert_ne!(node, src.as_usize(), "tag {tag} routed back to the source");
            assert!(targets.contains(&NodeId(node as u32)));
            used.insert(node);
        }
        assert_eq!(used.len(), targets.len(), "load spread over every target");
    }

    #[test]
    fn dead_source_rehome_keeps_tag_groups_whole() {
        let mut c = cluster(4);
        let src = NodeId(1);
        let mut job = queued_job(&mut c, src);
        c.sim(src).crash().unwrap();
        job.on_node_crash(&mut c, src).unwrap();
        let live = c.live_nodes();
        assert_eq!(live.len(), 3);
        assert_tag_groups_whole(&placement(&mut job), src, &live);
        let requeued: u64 = job
            .controllers()
            .iter()
            .map(|irs| irs.stats().crash_requeued_partitions)
            .sum();
        assert_eq!(requeued, 24);
    }

    #[test]
    fn live_source_drain_keeps_tag_groups_whole_and_never_routes_back() {
        let mut c = cluster(4);
        let src = NodeId(2);
        let mut job = queued_job(&mut c, src);
        let targets = [NodeId(0), NodeId(3)];
        let sent_before = c.fabric().stats().remote_transfers;
        assert_eq!(job.drain_node(&mut c, src, &targets).unwrap(), 24);
        assert!(!c.sim(src).is_crashed());
        assert_eq!(
            c.fabric().stats().remote_transfers - sent_before,
            24,
            "the live source pushes every partition itself"
        );
        assert_tag_groups_whole(&placement(&mut job), src, &targets);
        // A second drain finds nothing; a regular job never has a queue.
        assert_eq!(job.drain_node(&mut c, src, &targets).unwrap(), 0);
    }

    #[test]
    fn a_crash_with_no_survivor_is_node_lost() {
        let mut c = cluster(1);
        let mut job = queued_job(&mut c, NodeId(0));
        c.sim(NodeId(0)).crash().unwrap();
        let err = job.on_node_crash(&mut c, NodeId(0)).unwrap_err();
        assert!(matches!(err, SimError::NodeLost { node: NodeId(0) }));
    }
}
