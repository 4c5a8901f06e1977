//! Task attempts: one attempt = one simulated task JVM (its own heap),
//! run to completion or to its OME.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use itask_core::Tuple;
use simcluster::{NodeSim, NodeState, StepOutcome, Work, WorkCx};
use simcore::{ByteSize, FaultInjector, NodeId, SimDuration, SimError, SpaceId};

use crate::config::HadoopConfig;
use crate::task::{MapCx, Mapper, ReduceCx, Reducer};

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
    /// Wall-clock duration of the attempt (to completion or crash).
    pub duration: SimDuration,
    /// Stop-the-world GC time inside the attempt's JVM.
    pub gc_time: SimDuration,
    /// Peak heap of the attempt's JVM.
    pub peak_heap: ByteSize,
    /// Spill files written (map attempts).
    pub spills: u32,
    /// Substrate-fault relaunches folded into this outcome: the retry
    /// wrappers re-run an attempt that died of a *transient* substrate
    /// error (disk hiccup, corruption) and accumulate the wasted time
    /// here. OMEs are deterministic and are never folded — the stage
    /// scheduler expands those into their full YARN retry chain.
    pub extra_attempts: u32,
}

/// Golden-ratio increment that re-salts the fault seed per relaunch, so
/// a retried attempt does not deterministically replay the same faults.
const ATTEMPT_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

fn fresh_jvm(heap: ByteSize, cfg: &HadoopConfig, salt: u64) -> NodeSim {
    // One core per task JVM; a generous virtual disk for spills.
    let mut state = NodeState::new(NodeId(0), 1, heap, ByteSize::gib(4));
    if let Some(plan) = &cfg.fault_plan {
        // Each attempt JVM gets its own injector: same plan, seed
        // re-salted by attempt number (salt 0 = the plan verbatim).
        let mut plan = plan.clone();
        plan.seed ^= salt;
        state.install_injector(FaultInjector::new(plan));
    }
    NodeSim::new(state)
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

struct MapWork<M: Mapper> {
    mapper: M,
    frames: std::collections::VecDeque<Vec<M::In>>,
    cfg: HadoopConfig,
    cursor: usize,
    state_space: Option<SpaceId>,
    buffer_space: Option<SpaceId>,
    frame_space: Option<SpaceId>,
    buffer_bytes: ByteSize,
    spilled_ser: ByteSize,
    spills: u32,
    out: BTreeMap<u32, Vec<M::Out>>,
    closed: bool,
}

impl<M: Mapper> MapWork<M> {
    #[allow(clippy::too_many_arguments)] // mirrors the context fields
    fn cx<'a, 'b>(
        work: &'a mut WorkCx<'b>,
        state_space: SpaceId,
        buffer_space: SpaceId,
        cfg: &HadoopConfig,
        buffer_bytes: &'a mut ByteSize,
        spilled_ser: &'a mut ByteSize,
        spills: &'a mut u32,
        out: &'a mut BTreeMap<u32, Vec<M::Out>>,
    ) -> MapCx<'a, 'b, M::Out> {
        MapCx {
            work,
            state_space,
            buffer_space,
            buffer_bytes,
            sort_buffer: cfg.sort_buffer,
            spilled_ser,
            spills,
            out,
        }
    }

    fn run(&mut self, cx: &mut WorkCx<'_>) -> Result<bool, SimError> {
        let state_space = match self.state_space {
            Some(s) => s,
            None => {
                let s = cx.create_space("map.state");
                self.state_space = Some(s);
                s
            }
        };
        let buffer_space = match self.buffer_space {
            Some(s) => s,
            None => {
                let s = cx.create_space("map.sortbuf");
                self.buffer_space = Some(s);
                s
            }
        };
        while !cx.out_of_quantum() {
            let Some(frame) = self.frames.front() else {
                break;
            };
            if self.frame_space.is_none() {
                let mem: u64 = frame.iter().map(Tuple::heap_bytes).sum();
                let ser: u64 = frame.iter().map(Tuple::ser_bytes).sum();
                let space = cx.create_space("map.frame");
                cx.charge(cx.cost().disk_read(ByteSize(ser)));
                cx.charge(cx.cost().deserialize_cpu(ByteSize(ser)));
                if let Err(e) = cx.alloc(space, ByteSize(mem)) {
                    cx.node().heap.release_space(space);
                    return Err(e);
                }
                self.frame_space = Some(space);
                self.cursor = 0;
            }
            let frame_len = self.frames.front().map(Vec::len).unwrap_or(0);
            while self.cursor < frame_len && !cx.out_of_quantum() {
                let cost = {
                    let t = &self.frames.front().expect("frame")[self.cursor];
                    cx.cost().tuple_cost(ByteSize(t.ser_bytes()))
                };
                cx.charge(cost);
                {
                    let frame = self.frames.front().expect("frame");
                    let t = &frame[self.cursor];
                    let mut mcx = Self::cx(
                        cx,
                        state_space,
                        buffer_space,
                        &self.cfg,
                        &mut self.buffer_bytes,
                        &mut self.spilled_ser,
                        &mut self.spills,
                        &mut self.out,
                    );
                    self.mapper.map(&mut mcx, t)?;
                }
                self.cursor += 1;
            }
            if self.cursor >= frame_len {
                if let Some(space) = self.frame_space.take() {
                    cx.node().heap.release_space(space);
                }
                self.frames.pop_front();
            }
        }
        if self.frames.is_empty() && !self.closed {
            let mut mcx = Self::cx(
                cx,
                state_space,
                buffer_space,
                &self.cfg,
                &mut self.buffer_bytes,
                &mut self.spilled_ser,
                &mut self.spills,
                &mut self.out,
            );
            self.mapper.close(&mut mcx)?;
            mcx.spill()?;
            // Final merge of spill runs: read + write everything once.
            let total = self.spilled_ser;
            cx.charge(cx.cost().disk_read(total));
            cx.charge(cx.cost().disk_write(total));
            cx.node().heap.release_space(state_space);
            cx.node().heap.release_space(buffer_space);
            self.closed = true;
            return Ok(true);
        }
        Ok(self.frames.is_empty())
    }
}

impl<M: Mapper> Work for MapWork<M> {
    fn step(&mut self, cx: &mut WorkCx<'_>) -> StepOutcome {
        match self.run(cx) {
            Ok(true) => StepOutcome::Finished,
            Ok(false) => StepOutcome::Ran,
            Err(e) => StepOutcome::Failed(e),
        }
    }

    fn label(&self) -> String {
        "map-attempt".into()
    }
}

/// Runs one map attempt in a fresh task JVM. Returns the outcome and
/// the (bucketed) map output — empty if the attempt died.
pub fn run_map_attempt<M: Mapper + 'static>(
    cfg: &HadoopConfig,
    frames: Vec<Vec<M::In>>,
    mapper: M,
) -> (AttemptOutcome, BTreeMap<u32, Vec<M::Out>>) {
    run_map_attempt_salted(cfg, frames, mapper, 0)
}

fn run_map_attempt_salted<M: Mapper + 'static>(
    cfg: &HadoopConfig,
    frames: Vec<Vec<M::In>>,
    mapper: M,
    salt: u64,
) -> (AttemptOutcome, BTreeMap<u32, Vec<M::Out>>) {
    let mut sim = fresh_jvm(cfg.map_heap, cfg, salt);
    // The worker is recovered after the run to harvest its outputs, so
    // it communicates through the node only.
    let work = MapWork {
        mapper,
        frames: frames.into_iter().collect(),
        cfg: cfg.clone(),
        cursor: 0,
        state_space: None,
        buffer_space: None,
        frame_space: None,
        buffer_bytes: ByteSize::ZERO,
        spilled_ser: ByteSize::ZERO,
        spills: 0,
        out: BTreeMap::new(),
        closed: false,
    };
    let out_cell = Rc::new(RefCell::new(BTreeMap::new()));
    let spills_cell = Rc::new(Cell::new(0));
    struct Shim<M: Mapper> {
        inner: MapWork<M>,
        out: Rc<RefCell<BTreeMap<u32, Vec<M::Out>>>>,
        spills: Rc<Cell<u32>>,
    }
    impl<M: Mapper> Work for Shim<M> {
        fn step(&mut self, cx: &mut WorkCx<'_>) -> StepOutcome {
            let outcome = self.inner.step(cx);
            if matches!(outcome, StepOutcome::Finished) {
                self.out.replace(std::mem::take(&mut self.inner.out));
                self.spills.set(self.inner.spills);
            }
            outcome
        }
        fn label(&self) -> String {
            self.inner.label()
        }
    }
    sim.spawn(Box::new(Shim {
        inner: work,
        out: out_cell.clone(),
        spills: spills_cell.clone(),
    }));
    let result = drive(&mut sim);
    let node = sim.node();
    let outcome = AttemptOutcome {
        result,
        duration: node.now.since(simcore::SimTime::ZERO),
        gc_time: node.gc_time,
        peak_heap: node.heap.peak_used(),
        spills: spills_cell.get(),
        extra_attempts: 0,
    };
    let out = out_cell.take();
    (outcome, out)
}

/// Runs a map attempt, relaunching (up to the YARN attempt budget) when
/// it dies of a transient substrate fault. OMEs are deterministic —
/// relaunching cannot help — so they are returned immediately and the
/// stage scheduler models their retry chain instead. Each relaunch gets
/// a re-salted fault seed; its wasted duration, GC time and peak heap
/// are folded into the returned outcome, with `extra_attempts` counting
/// the relaunches.
pub fn run_map_attempt_retrying<M: Mapper + 'static>(
    cfg: &HadoopConfig,
    frames: Vec<Vec<M::In>>,
    mapper: impl Fn() -> M,
) -> (AttemptOutcome, BTreeMap<u32, Vec<M::Out>>)
where
    M::In: Clone,
{
    let budget = cfg.max_attempts.max(1);
    let mut wasted = SimDuration::ZERO;
    let mut wasted_gc = SimDuration::ZERO;
    let mut peak = ByteSize::ZERO;
    let mut extra = 0u32;
    loop {
        let salt = (extra as u64).wrapping_mul(ATTEMPT_SALT);
        let (mut outcome, out) = run_map_attempt_salted(cfg, frames.clone(), mapper(), salt);
        let relaunchable = matches!(&outcome.result,
            AttemptResult::Failed(e) if e.is_substrate() && !e.is_oom());
        if relaunchable && extra + 1 < budget {
            wasted += outcome.duration;
            wasted_gc += outcome.gc_time;
            peak = peak.max(outcome.peak_heap);
            extra += 1;
            continue;
        }
        outcome.duration += wasted;
        outcome.gc_time += wasted_gc;
        outcome.peak_heap = outcome.peak_heap.max(peak);
        outcome.extra_attempts = extra;
        return (outcome, out);
    }
}

struct ReduceWork<R: Reducer> {
    reducer: R,
    frames: std::collections::VecDeque<Vec<R::In>>,
    cursor: usize,
    state_space: Option<SpaceId>,
    frame_space: Option<SpaceId>,
    out: Vec<R::Out>,
    written_ser: ByteSize,
    closed: bool,
}

impl<R: Reducer> ReduceWork<R> {
    fn run(&mut self, cx: &mut WorkCx<'_>) -> Result<bool, SimError> {
        let state_space = match self.state_space {
            Some(s) => s,
            None => {
                let s = cx.create_space("reduce.state");
                self.state_space = Some(s);
                s
            }
        };
        while !cx.out_of_quantum() {
            let Some(frame) = self.frames.front() else {
                break;
            };
            if self.frame_space.is_none() {
                let mem: u64 = frame.iter().map(Tuple::heap_bytes).sum();
                let ser: u64 = frame.iter().map(Tuple::ser_bytes).sum();
                let space = cx.create_space("reduce.frame");
                cx.charge(cx.cost().disk_read(ByteSize(ser)));
                cx.charge(cx.cost().deserialize_cpu(ByteSize(ser)));
                if let Err(e) = cx.alloc(space, ByteSize(mem)) {
                    cx.node().heap.release_space(space);
                    return Err(e);
                }
                self.frame_space = Some(space);
                self.cursor = 0;
            }
            let frame_len = self.frames.front().map(Vec::len).unwrap_or(0);
            while self.cursor < frame_len && !cx.out_of_quantum() {
                let cost = {
                    let t = &self.frames.front().expect("frame")[self.cursor];
                    cx.cost().tuple_cost(ByteSize(t.ser_bytes()))
                };
                cx.charge(cost);
                {
                    let frame = self.frames.front().expect("frame");
                    let t = &frame[self.cursor];
                    let mut rcx = ReduceCx {
                        work: cx,
                        state_space,
                        out: &mut self.out,
                        written_ser: &mut self.written_ser,
                    };
                    self.reducer.reduce(&mut rcx, t)?;
                }
                self.cursor += 1;
            }
            if self.cursor >= frame_len {
                if let Some(space) = self.frame_space.take() {
                    cx.node().heap.release_space(space);
                }
                self.frames.pop_front();
            }
        }
        if self.frames.is_empty() && !self.closed {
            let mut rcx = ReduceCx {
                work: cx,
                state_space,
                out: &mut self.out,
                written_ser: &mut self.written_ser,
            };
            self.reducer.close(&mut rcx)?;
            cx.charge(cx.cost().disk_write(self.written_ser));
            cx.node().heap.release_space(state_space);
            self.closed = true;
            return Ok(true);
        }
        Ok(self.frames.is_empty())
    }
}

impl<R: Reducer> Work for ReduceWork<R> {
    fn step(&mut self, cx: &mut WorkCx<'_>) -> StepOutcome {
        match self.run(cx) {
            Ok(true) => StepOutcome::Finished,
            Ok(false) => StepOutcome::Ran,
            Err(e) => StepOutcome::Failed(e),
        }
    }

    fn label(&self) -> String {
        "reduce-attempt".into()
    }
}

/// Runs one reduce attempt in a fresh task JVM.
pub fn run_reduce_attempt<R: Reducer + 'static>(
    cfg: &HadoopConfig,
    frames: Vec<Vec<R::In>>,
    reducer: R,
) -> (AttemptOutcome, Vec<R::Out>) {
    run_reduce_attempt_salted(cfg, frames, reducer, 0)
}

fn run_reduce_attempt_salted<R: Reducer + 'static>(
    cfg: &HadoopConfig,
    frames: Vec<Vec<R::In>>,
    reducer: R,
    salt: u64,
) -> (AttemptOutcome, Vec<R::Out>) {
    let mut sim = fresh_jvm(cfg.reduce_heap, cfg, salt);
    let out_cell = Rc::new(RefCell::new(Vec::new()));
    struct Shim<R: Reducer> {
        inner: ReduceWork<R>,
        out: Rc<RefCell<Vec<R::Out>>>,
    }
    impl<R: Reducer> Work for Shim<R> {
        fn step(&mut self, cx: &mut WorkCx<'_>) -> StepOutcome {
            let outcome = self.inner.step(cx);
            if matches!(outcome, StepOutcome::Finished) {
                self.out.replace(std::mem::take(&mut self.inner.out));
            }
            outcome
        }
        fn label(&self) -> String {
            self.inner.label()
        }
    }
    sim.spawn(Box::new(Shim {
        inner: ReduceWork {
            reducer,
            frames: frames.into_iter().collect(),
            cursor: 0,
            state_space: None,
            frame_space: None,
            out: Vec::new(),
            written_ser: ByteSize::ZERO,
            closed: false,
        },
        out: out_cell.clone(),
    }));
    let result = drive(&mut sim);
    let node = sim.node();
    let outcome = AttemptOutcome {
        result,
        duration: node.now.since(simcore::SimTime::ZERO),
        gc_time: node.gc_time,
        peak_heap: node.heap.peak_used(),
        spills: 0,
        extra_attempts: 0,
    };
    let out = out_cell.take();
    (outcome, out)
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
    let budget = cfg.max_attempts.max(1);
    let mut wasted = SimDuration::ZERO;
    let mut wasted_gc = SimDuration::ZERO;
    let mut peak = ByteSize::ZERO;
    let mut extra = 0u32;
    loop {
        let salt = (extra as u64).wrapping_mul(ATTEMPT_SALT);
        let (mut outcome, out) = run_reduce_attempt_salted(cfg, frames.clone(), reducer(), salt);
        let relaunchable = matches!(&outcome.result,
            AttemptResult::Failed(e) if e.is_substrate() && !e.is_oom());
        if relaunchable && extra + 1 < budget {
            wasted += outcome.duration;
            wasted_gc += outcome.gc_time;
            peak = peak.max(outcome.peak_heap);
            extra += 1;
            continue;
        }
        outcome.duration += wasted;
        outcome.gc_time += wasted_gc;
        outcome.peak_heap = outcome.peak_heap.max(peak);
        outcome.extra_attempts = extra;
        return (outcome, out);
    }
}
