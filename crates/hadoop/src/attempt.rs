//! Task attempts: one attempt = one simulated task JVM (its own heap),
//! run to completion or to its OME.
//!
//! The attempt is written once: a private `Side` trait carries what
//! differs between map and reduce — the task heap, the per-record call,
//! the end-of-input epilogue and the output — and one frame loop, one
//! JVM driver and one relaunch loop run either side. An attempt that
//! dies of a transient substrate fault is relaunched here, in a fresh
//! JVM with a re-salted fault seed; an OME is returned at once, and the
//! job's stage scheduler repeats it for what is left of the YARN budget.

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use itask_core::Tuple;
use simcluster::{NodeSim, NodeState, StepOutcome, Work, WorkCx};
use simcore::{
    ByteSize, CostModel, FaultInjector, NodeId, SimDuration, SimError, SimResult, SimTime, SpaceId,
};
use simmem::Heap;

use crate::config::{HadoopConfig, MAX_ATTEMPTS};
use crate::task::{MapCx, Mapper, ReduceCx, Reducer, SortBuffer};

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

/// What differs between a map and a reduce attempt.
trait Side: Sized + 'static {
    /// The user task (`Mapper` or `Reducer`).
    type Task;
    /// Input record type.
    type In: Tuple;
    /// What a completed attempt hands the job driver.
    type Out: Default + 'static;
    /// Prefix of the thread label and of the heap-space labels.
    const NAME: &'static str;

    /// The task heap (`MH` or `RH`).
    fn heap(cfg: &HadoopConfig) -> ByteSize;

    /// Wraps the user task, after the user-state space was created.
    fn open(task: Self::Task, cfg: &HadoopConfig, heap: &mut Heap) -> Self;

    /// Processes one record.
    fn tuple(&mut self, cx: &mut WorkCx<'_>, state: SpaceId, t: &Self::In) -> SimResult<()>;

    /// End of input: the user's close plus the framework's epilogue.
    fn close(&mut self, cx: &mut WorkCx<'_>, state: SpaceId) -> SimResult<()>;

    /// The output and the spill count of a completed attempt.
    fn finish(&mut self) -> (Self::Out, u32);
}

/// The map side: the mapper and the sort buffer its emissions fill.
struct MapSide<M: Mapper> {
    mapper: M,
    buf: SortBuffer<M::Out>,
}

impl<M: Mapper + 'static> Side for MapSide<M> {
    type Task = M;
    type In = M::In;
    type Out = BTreeMap<u32, Vec<M::Out>>;
    const NAME: &'static str = "map";

    fn heap(cfg: &HadoopConfig) -> ByteSize {
        cfg.map_heap
    }

    fn open(mapper: M, cfg: &HadoopConfig, heap: &mut Heap) -> Self {
        let space = heap.create_space("map.sortbuf");
        MapSide {
            mapper,
            buf: SortBuffer::new(space, cfg.sort_buffer),
        }
    }

    fn tuple(&mut self, cx: &mut WorkCx<'_>, state: SpaceId, t: &M::In) -> SimResult<()> {
        let mut mcx = MapCx {
            work: cx,
            state_space: state,
            buf: &mut self.buf,
        };
        self.mapper.map(&mut mcx, t)
    }

    fn close(&mut self, cx: &mut WorkCx<'_>, state: SpaceId) -> SimResult<()> {
        let mut mcx = MapCx {
            work: cx,
            state_space: state,
            buf: &mut self.buf,
        };
        self.mapper.close(&mut mcx)?;
        self.buf.close(cx)
    }

    fn finish(&mut self) -> (Self::Out, u32) {
        (std::mem::take(&mut self.buf.out), self.buf.spills)
    }
}

/// The reduce side: the reducer and the records it wrote to HDFS.
struct ReduceSide<R: Reducer> {
    reducer: R,
    out: Vec<R::Out>,
    written_ser: ByteSize,
}

impl<R: Reducer + 'static> Side for ReduceSide<R> {
    type Task = R;
    type In = R::In;
    type Out = Vec<R::Out>;
    const NAME: &'static str = "reduce";

    fn heap(cfg: &HadoopConfig) -> ByteSize {
        cfg.reduce_heap
    }

    fn open(reducer: R, _cfg: &HadoopConfig, _heap: &mut Heap) -> Self {
        ReduceSide {
            reducer,
            out: Vec::new(),
            written_ser: ByteSize::ZERO,
        }
    }

    fn tuple(&mut self, cx: &mut WorkCx<'_>, state: SpaceId, t: &R::In) -> SimResult<()> {
        let mut rcx = ReduceCx {
            work: cx,
            state_space: state,
            out: &mut self.out,
            written_ser: &mut self.written_ser,
        };
        self.reducer.reduce(&mut rcx, t)
    }

    fn close(&mut self, cx: &mut WorkCx<'_>, state: SpaceId) -> SimResult<()> {
        let mut rcx = ReduceCx {
            work: cx,
            state_space: state,
            out: &mut self.out,
            written_ser: &mut self.written_ser,
        };
        self.reducer.close(&mut rcx)?;
        cx.charge(CostModel::disk_write(self.written_ser));
        Ok(())
    }

    fn finish(&mut self) -> (Self::Out, u32) {
        (std::mem::take(&mut self.out), 0)
    }
}

/// A completed attempt's output and spill count, shared with the
/// caller: it outlives the thread body, which is dropped on retirement.
type Done<Out> = Rc<Cell<Option<(Out, u32)>>>;

/// One attempt's thread: reads each record-reader frame into the heap,
/// feeds its records to the side, then closes the side and leaves what
/// it finished with in `done`.
struct Attempt<S: Side> {
    side: S,
    frames: VecDeque<Vec<S::In>>,
    cursor: usize,
    state: SpaceId,
    frame_space: Option<SpaceId>,
    done: Done<S::Out>,
}

impl<S: Side> Attempt<S> {
    /// Runs one quantum; `Ok(true)` once the side has closed.
    fn run(&mut self, cx: &mut WorkCx<'_>) -> SimResult<bool> {
        while !cx.out_of_quantum() {
            let Some(frame) = self.frames.front() else {
                break;
            };
            if self.frame_space.is_none() {
                let mem: u64 = frame.iter().map(Tuple::heap_bytes).sum();
                let ser = ByteSize(frame.iter().map(Tuple::ser_bytes).sum());
                let space = cx.create_space(format!("{}.frame", S::NAME));
                cx.charge(CostModel::disk_read(ser));
                cx.charge(CostModel::deserialize_cpu(ser));
                if let Err(e) = cx.alloc(space, ByteSize(mem)) {
                    cx.node().heap.release_space(space);
                    return Err(e);
                }
                self.frame_space = Some(space);
                self.cursor = 0;
            }
            while self.cursor < frame.len() && !cx.out_of_quantum() {
                let t = &frame[self.cursor];
                cx.charge(CostModel::tuple_cost(ByteSize(t.ser_bytes())));
                self.side.tuple(cx, self.state, t)?;
                self.cursor += 1;
            }
            if self.cursor == frame.len() {
                if let Some(space) = self.frame_space.take() {
                    cx.node().heap.release_space(space);
                }
                self.frames.pop_front();
            }
        }
        if !self.frames.is_empty() {
            return Ok(false);
        }
        self.side.close(cx, self.state)?;
        cx.node().heap.release_space(self.state);
        self.done.set(Some(self.side.finish()));
        Ok(true)
    }
}

impl<S: Side> Work for Attempt<S> {
    fn step(&mut self, cx: &mut WorkCx<'_>) -> StepOutcome {
        match self.run(cx) {
            Ok(true) => StepOutcome::Finished,
            Ok(false) => StepOutcome::Ran,
            Err(e) => StepOutcome::Failed(e),
        }
    }

    fn label(&self) -> String {
        format!("{}-attempt", S::NAME)
    }
}

/// Runs one attempt in a fresh task JVM whose fault seed is re-salted
/// by `salt` (0 = the plan verbatim). The output is empty if it died.
fn run_attempt<S: Side>(
    cfg: &HadoopConfig,
    frames: Vec<Vec<S::In>>,
    task: S::Task,
    salt: u64,
) -> (AttemptOutcome, S::Out) {
    // One core per task JVM; a generous virtual disk for spills.
    let mut jvm = NodeState::new(NodeId(0), 1, S::heap(cfg), ByteSize::gib(4));
    if let Some(plan) = &cfg.fault_plan {
        let mut plan = plan.clone();
        plan.seed ^= salt;
        jvm.install_injector(FaultInjector::new(plan));
    }
    let state = jvm.heap.create_space(format!("{}.state", S::NAME));
    let side = S::open(task, cfg, &mut jvm.heap);
    let done = Rc::new(Cell::new(None));
    let mut sim = NodeSim::new(jvm);
    sim.spawn(Box::new(Attempt {
        side,
        frames: frames.into(),
        cursor: 0,
        state,
        frame_space: None,
        done: Rc::clone(&done),
    }));
    let result = drive(&mut sim);
    let node = sim.node();
    let (out, spills) = done.take().unwrap_or_default();
    let outcome = AttemptOutcome {
        result,
        duration: node.now.since(SimTime::ZERO),
        gc_time: node.gc_time,
        peak_heap: node.heap.peak_used(),
        spills,
        extra_attempts: 0,
        wasted: SimDuration::ZERO,
        wasted_gc: SimDuration::ZERO,
    };
    (outcome, out)
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
fn run_attempt_retrying<S: Side>(
    cfg: &HadoopConfig,
    frames: Vec<Vec<S::In>>,
    task: impl Fn() -> S::Task,
) -> (AttemptOutcome, S::Out)
where
    S::In: Clone,
{
    let mut wasted = SimDuration::ZERO;
    let mut wasted_gc = SimDuration::ZERO;
    let mut peak = ByteSize::ZERO;
    let mut extra = 0u32;
    loop {
        let salt = (extra as u64).wrapping_mul(ATTEMPT_SALT);
        let (mut outcome, out) = run_attempt::<S>(cfg, frames.clone(), task(), salt);
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

/// Runs a map attempt with substrate-fault relaunches (see
/// [`AttemptOutcome::extra_attempts`]). Returns the outcome and the
/// bucketed map output — empty if the final attempt died.
pub fn run_map_attempt_retrying<M: Mapper + 'static>(
    cfg: &HadoopConfig,
    frames: Vec<Vec<M::In>>,
    mapper: impl Fn() -> M,
) -> (AttemptOutcome, BTreeMap<u32, Vec<M::Out>>)
where
    M::In: Clone,
{
    run_attempt_retrying::<MapSide<M>>(cfg, frames, mapper)
}

/// Reduce-side counterpart of [`run_map_attempt_retrying`].
pub fn run_reduce_attempt_retrying<R: Reducer + 'static>(
    cfg: &HadoopConfig,
    frames: Vec<Vec<R::In>>,
    reducer: impl Fn() -> R,
) -> (AttemptOutcome, Vec<R::Out>)
where
    R::In: Clone,
{
    run_attempt_retrying::<ReduceSide<R>>(cfg, frames, reducer)
}
