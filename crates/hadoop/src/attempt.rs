//! Task attempts: one attempt = one simulated task JVM (its own heap),
//! run to completion or to its OME.
//!
//! The attempt's thread is Hyracks' frame loop, [`OperatorWorker`],
//! over the user's [`Operator`]; map and reduce differ only in the task
//! heap and the [`Sink`] the worker emits into: the map side's sort
//! buffer or the reduce side's HDFS writer. One JVM driver and one
//! relaunch loop run either side. An attempt that dies of a transient
//! substrate fault is relaunched here, in a fresh JVM with a re-salted
//! fault seed; an OME is returned at once, and the job's stage
//! scheduler repeats it for what is left of the YARN budget.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use hyracks::{Operator, OperatorWorker, Sink};
use simcluster::{NodeSim, NodeState};
use simcore::{ByteSize, FaultInjector, NodeId, SimDuration, SimError, SimTime};
use simmem::Heap;

use crate::config::{HadoopConfig, MAX_ATTEMPTS};
use crate::task::{HdfsWriter, SortBuffer};

/// How an attempt ended.
#[derive(Clone, Debug)]
pub enum AttemptResult {
    /// Ran to completion.
    Completed,
    /// Died (OME in practice).
    Failed(SimError),
}

impl AttemptResult {
    /// Whether the attempt succeeded.
    pub fn ok(&self) -> bool {
        matches!(self, AttemptResult::Completed)
    }
}

/// Everything the job scheduler needs to know about one attempt.
#[derive(Clone, Debug)]
pub struct AttemptOutcome {
    /// Completed or failed.
    pub result: AttemptResult,
    /// Wall-clock duration of the final attempt (to completion or crash).
    pub duration: SimDuration,
    /// Stop-the-world GC time inside the final attempt's JVM.
    pub gc_time: SimDuration,
    /// Peak heap over the final attempt and its relaunched predecessors.
    pub peak_heap: ByteSize,
    /// Spill files written (map attempts).
    pub spills: u32,
    /// Substrate-fault relaunches before the final attempt: the retry
    /// wrappers re-run an attempt that died of a *transient* substrate
    /// error (disk hiccup, corruption). OMEs are deterministic and are
    /// never relaunched here — the stage scheduler expands those into
    /// their YARN retry chain.
    pub extra_attempts: u32,
    /// Wall-clock time the relaunched attempts took, kept apart from
    /// `duration`: the stage scheduler charges it once per task, not on
    /// every OME repeat.
    pub wasted: SimDuration,
    /// GC time inside the relaunched attempts (part of `wasted`).
    pub wasted_gc: SimDuration,
}

/// Golden-ratio increment that re-salts the fault seed per relaunch, so
/// a retried attempt does not deterministically replay the same faults.
const ATTEMPT_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Runs one attempt in a fresh task JVM of `heap` bytes whose fault
/// seed is re-salted by `salt` (0 = the plan verbatim): one
/// [`OperatorWorker`] thread, labelled `name`, reads `frames` off disk
/// through `op` into the sink `sink` builds on the JVM's heap. The sink
/// comes back only if the attempt completed.
fn run_attempt<O: Operator + 'static, K: Sink<O::Out> + 'static>(
    cfg: &HadoopConfig,
    heap: ByteSize,
    name: &'static str,
    frames: Vec<Vec<O::In>>,
    op: O,
    sink: impl FnOnce(&mut Heap) -> K,
    salt: u64,
) -> (AttemptOutcome, Option<K>) {
    // One core per task JVM; a generous virtual disk for spills.
    let mut jvm = NodeState::new(NodeId(0), 1, heap, ByteSize::gib(4));
    if let Some(plan) = &cfg.fault_plan {
        let mut plan = plan.clone();
        plan.seed ^= salt;
        jvm.install_injector(FaultInjector::new(plan));
    }
    let sink = Rc::new(RefCell::new(sink(&mut jvm.heap)));
    let mut sim = NodeSim::new(jvm);
    let worker = OperatorWorker::new(op, frames.into(), Rc::clone(&sink), true, name);
    sim.spawn(Box::new(worker));
    let result = drive(&mut sim);
    let node = sim.node();
    let outcome = AttemptOutcome {
        result,
        duration: node.now.since(SimTime::ZERO),
        gc_time: node.gc_time,
        peak_heap: node.heap.peak_used(),
        spills: 0,
        extra_attempts: 0,
        wasted: SimDuration::ZERO,
        wasted_gc: SimDuration::ZERO,
    };
    // The worker holds the other handle on the sink.
    drop(sim);
    let sink = Rc::into_inner(sink)
        .filter(|_| outcome.result.ok())
        .map(RefCell::into_inner);
    (outcome, sink)
}

fn drive(sim: &mut NodeSim) -> AttemptResult {
    // Attempt JVMs are single-node worlds: rounds go through the round
    // runner's solo entry so trace events carry the same
    // stream-namespaced ids as cluster runs.
    let mut stream_seq = 0u64;
    loop {
        if sim.live_count() == 0 {
            return AttemptResult::Completed;
        }
        let round = simcluster::run_solo_round(sim, &mut stream_seq);
        if let Some((_, e)) = round.failed.into_iter().next() {
            if e.is_oom() {
                // Death throes: a JVM at the GC-overhead limit performs a
                // burst of desperate full collections (clearing soft
                // references, retrying) before the OutOfMemoryError
                // finally propagates. This is a large part of why the
                // paper's CTime dwarfs a clean run.
                for _ in 0..8 {
                    sim.node_mut().force_full_gc();
                }
            }
            return AttemptResult::Failed(e);
        }
    }
}

/// Runs an attempt, relaunching it (up to the YARN attempt budget) when
/// it dies of a transient substrate fault. OMEs are deterministic —
/// relaunching cannot help — so they are returned at once and the stage
/// scheduler models their retry chain instead. Each relaunch gets a
/// re-salted fault seed; the relaunches' count, time, GC time and peak
/// heap go into the returned outcome beside the final attempt's own.
fn run_attempt_retrying<O: Operator + 'static, K: Sink<O::Out> + 'static>(
    cfg: &HadoopConfig,
    heap: ByteSize,
    name: &'static str,
    frames: Vec<Vec<O::In>>,
    op: impl Fn() -> O,
    sink: impl Fn(&mut Heap) -> K,
) -> (AttemptOutcome, Option<K>)
where
    O::In: Clone,
{
    let mut wasted = SimDuration::ZERO;
    let mut wasted_gc = SimDuration::ZERO;
    let mut peak = ByteSize::ZERO;
    let mut extra = 0u32;
    loop {
        let salt = (extra as u64).wrapping_mul(ATTEMPT_SALT);
        let (mut outcome, out) = run_attempt(cfg, heap, name, frames.clone(), op(), &sink, salt);
        let relaunchable = matches!(&outcome.result,
            AttemptResult::Failed(e) if e.is_substrate() && !e.is_oom());
        if relaunchable && extra + 1 < MAX_ATTEMPTS {
            wasted += outcome.duration;
            wasted_gc += outcome.gc_time;
            peak = peak.max(outcome.peak_heap);
            extra += 1;
            continue;
        }
        outcome.peak_heap = outcome.peak_heap.max(peak);
        outcome.extra_attempts = extra;
        outcome.wasted = wasted;
        outcome.wasted_gc = wasted_gc;
        return (outcome, out);
    }
}

/// Runs a map attempt (`MH` heap, emissions into the `io.sort.mb` sort
/// buffer) with substrate-fault relaunches (see
/// [`AttemptOutcome::extra_attempts`]). Returns the outcome and the
/// bucketed map output — empty if the final attempt died.
pub fn run_map_attempt_retrying<O: Operator + 'static>(
    cfg: &HadoopConfig,
    frames: Vec<Vec<O::In>>,
    op: impl Fn() -> O,
) -> (AttemptOutcome, BTreeMap<u32, Vec<O::Out>>)
where
    O::In: Clone,
{
    let sort_buffer =
        |heap: &mut Heap| SortBuffer::new(heap.create_space("map.sortbuf"), cfg.sort_buffer);
    let (mut outcome, buf) =
        run_attempt_retrying(cfg, cfg.map_heap, "map", frames, op, sort_buffer);
    let Some(mut buf) = buf else {
        return (outcome, BTreeMap::new());
    };
    outcome.spills = buf.spills;
    (outcome, buf.out.drain_groups().into_iter().collect())
}

/// Reduce-side counterpart of [`run_map_attempt_retrying`]: an `RH`
/// heap, and every emission a record written to HDFS (its bucket is
/// ignored).
pub fn run_reduce_attempt_retrying<O: Operator + 'static>(
    cfg: &HadoopConfig,
    frames: Vec<Vec<O::In>>,
    op: impl Fn() -> O,
) -> (AttemptOutcome, Vec<O::Out>)
where
    O::In: Clone,
{
    let (outcome, writer) = run_attempt_retrying(
        cfg,
        cfg.reduce_heap,
        "reduce",
        frames,
        op,
        |_: &mut Heap| HdfsWriter::default(),
    );
    (outcome, writer.map(|w| w.out).unwrap_or_default())
}
