//! The regular (non-interruptible) operator model: Hyracks'
//! `nextFrame`-style push operators, executed by a fixed thread pool,
//! and — with a different [`Sink`] — by Hadoop's task attempts.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use itask_core::{scale_loop, Tuple};
use simcluster::{StepOutcome, Work, WorkCx};
use simcore::{prof, ByteSize, CostModel, SimResult, SpaceId};

/// Context handed to operator callbacks: the operator's state space on
/// the simulated heap, and streaming emission into the worker's [`Sink`].
pub struct OpCx<'a, 'b, Out> {
    work: &'a mut WorkCx<'b>,
    state: SpaceId,
    sink: &'a mut dyn Sink<Out>,
}

impl<'a, 'b, Out> OpCx<'a, 'b, Out> {
    /// Hands one tuple to the worker's sink: a Hyracks connector's
    /// arena, a Hadoop map attempt's sort buffer (which can OME or spill
    /// here) or a reduce attempt's HDFS writer.
    pub fn emit(&mut self, bucket: u32, tuple: Out) -> SimResult<()> {
        self.sink.put(self.work, bucket, tuple)
    }

    /// Allocates into the operator's state space (hash tables, sort
    /// buffers, postings lists — the structures that blow up under
    /// skew). Fails with the simulation's OME when the heap is full.
    pub fn alloc_state(&mut self, bytes: ByteSize) -> SimResult<()> {
        let s = self.state;
        self.work.alloc(s, bytes)
    }

    /// Frees bytes from the state space (they become garbage).
    pub fn free_state(&mut self, bytes: ByteSize) -> ByteSize {
        let s = self.state;
        self.work.free(s, bytes)
    }
}

/// A regular dataflow operator: one instance per worker thread, state
/// kept for the whole phase, streaming emission via [`OpCx::emit`].
pub trait Operator {
    /// Input tuple type.
    type In: Tuple;
    /// Output tuple type (keyed by shuffle bucket).
    type Out: Tuple;

    /// Processes one tuple (Hyracks pushes frames; the worker iterates
    /// the frame's tuples through this).
    fn next(&mut self, cx: &mut OpCx<'_, '_, Self::Out>, tuple: &Self::In) -> SimResult<()>;

    /// Called once after the last tuple (flush aggregates).
    fn close(&mut self, cx: &mut OpCx<'_, '_, Self::Out>) -> SimResult<()>;
}

/// Where a worker's emissions go. The worker hands every
/// [`OpCx::emit`] to [`Self::put`], calls [`Self::end_quantum`] when a
/// quantum ends with input left, and [`Self::end_input`] after the
/// operator's close, before its state space is released.
pub trait Sink<T> {
    /// Takes one emitted tuple.
    fn put(&mut self, cx: &mut WorkCx<'_>, bucket: u32, tuple: T) -> SimResult<()>;

    /// The worker's quantum ended with input left.
    fn end_quantum(&mut self) {}

    /// The operator has closed: nothing more will be put.
    fn end_input(&mut self, cx: &mut WorkCx<'_>) -> SimResult<()>;
}

/// A connector's staged output: flush-ordered batches stored as dense
/// per-bucket arenas. Tuples for bucket `b` live contiguously in one
/// vector (in emission order) instead of one small allocation per
/// flushed batch, and `batches` records each `(bucket, len)` group in
/// the order it was handed over — so the shuffle can still charge the
/// fabric per batch (identical wire-time sequence to per-batch vectors)
/// while moving whole buckets to their destinations in bulk.
pub struct BucketArena<T> {
    /// Tuples per bucket, indexed by bucket id (empty slot = nothing
    /// emitted there). Within a bucket, concatenated flush order.
    arenas: Vec<Vec<T>>,
    /// `(bucket, len)` of every flushed batch, in flush order.
    batches: Vec<(u32, u32)>,
    /// Per-bucket tuple count already covered by `batches` — the seal
    /// high-water mark [`Self::seal_batches`] diffs against.
    sealed: Vec<u32>,
}

impl<T> Default for BucketArena<T> {
    fn default() -> Self {
        BucketArena {
            arenas: Vec::new(),
            batches: Vec::new(),
            sealed: Vec::new(),
        }
    }
}

impl<T> BucketArena<T> {
    /// True when nothing has been flushed into the arena.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Appends one tuple to `bucket`'s arena, growing the bucket table
    /// on first touch. The tuple stays unsealed (not yet part of any
    /// batch) until the next [`Self::seal_batches`].
    pub fn push_grow(&mut self, bucket: u32, t: T) {
        let bi = bucket as usize;
        if self.arenas.len() <= bi {
            self.arenas.resize_with(bi + 1, Vec::new);
        }
        self.arenas[bi].push(t);
    }

    /// Seals everything pushed since the previous seal into one batch
    /// per touched bucket (ascending bucket order) and returns the
    /// newly sealed tuple count. The mark is global to the arena, so
    /// worker threads sharing one node sink — each sealing at its own
    /// quantum end, pushes never interleaving within a quantum — get
    /// exactly one batch per (quantum, bucket), the grouping the old
    /// buffer-then-flush path produced.
    pub fn seal_batches(&mut self) -> u64 {
        if self.sealed.len() < self.arenas.len() {
            self.sealed.resize(self.arenas.len(), 0);
        }
        let mut total = 0u64;
        for (bi, a) in self.arenas.iter().enumerate() {
            let len = a.len() as u32;
            let prev = self.sealed[bi];
            if len > prev {
                self.batches.push((bi as u32, len - prev));
                self.sealed[bi] = len;
                total += (len - prev) as u64;
            }
        }
        total
    }

    /// Absorbs an already-batched `(bucket, tuples)` run (ITask map
    /// finals arrive pre-grouped as [`crate::ShuffleBatch`]) as one
    /// batch. Empty runs are recorded too — the shuffle charges the
    /// fabric per batch, so dropping one would change wire times. Not
    /// meant to be mixed with the [`Self::push_grow`]/
    /// [`Self::seal_batches`] protocol on one arena.
    pub fn push_run(&mut self, bucket: u32, run: impl ExactSizeIterator<Item = T>) {
        let bi = bucket as usize;
        if self.arenas.len() <= bi {
            self.arenas.resize_with(bi + 1, Vec::new);
        }
        self.batches.push((bucket, run.len() as u32));
        self.arenas[bi].extend(run);
    }

    /// Decomposes into `(arenas, batches)` for the shuffle.
    pub fn into_parts(self) -> (Vec<Vec<T>>, Vec<(u32, u32)>) {
        (self.arenas, self.batches)
    }

    /// Takes every non-empty bucket as `(bucket, tuples)` in ascending
    /// bucket order, leaving the arena empty. Per-bucket concatenation
    /// in flush order is exactly what a stable sort of the old
    /// batch-list representation produced, so collection code sees the
    /// same tuple sequence.
    pub fn drain_groups(&mut self) -> Vec<(u32, Vec<T>)> {
        self.batches.clear();
        self.sealed.clear();
        self.arenas
            .iter_mut()
            .enumerate()
            .filter(|(_, a)| !a.is_empty())
            .map(|(b, a)| (b as u32, std::mem::take(a)))
            .collect()
    }
}

/// A Hyracks connector: a push is an arena append with no simulated
/// cost (Hyracks hands full frames to the next operator, so emitted
/// data does not stay on this operator's heap), and every quantum end
/// seals what the worker pushed into one batch per touched bucket
/// ([`BucketArena::seal_batches`]).
impl<T> Sink<T> for BucketArena<T> {
    fn put(&mut self, _cx: &mut WorkCx<'_>, bucket: u32, tuple: T) -> SimResult<()> {
        self.push_grow(bucket, tuple);
        Ok(())
    }

    fn end_quantum(&mut self) {
        let _wall = prof::wall_timer(prof::Stage::EmitFlush);
        let sealed = self.seal_batches();
        if sealed > 0 {
            prof::count(prof::Stage::EmitFlush, 1, sealed);
        }
    }

    fn end_input(&mut self, _cx: &mut WorkCx<'_>) -> SimResult<()> {
        self.end_quantum();
        Ok(())
    }
}

/// Where a worker's outputs are collected (per node, shared by its
/// threads). Workers and the driver touch it at disjoint times — worker
/// quanta during rounds, shuffle drains at barriers.
pub type OutputSink<T> = Rc<RefCell<BucketArena<T>>>;

/// The one regular frame loop: a worker executing one [`Operator`]
/// instance over a queue of frames, its emissions going to a [`Sink`]
/// of type `K` — a Hyracks pool thread's node arena, or a Hadoop task
/// attempt's sort buffer or HDFS writer.
pub struct OperatorWorker<O: Operator, K> {
    op: O,
    frames: VecDeque<Vec<O::In>>,
    sink: Rc<RefCell<K>>,
    state_space: Option<SpaceId>,
    frame_space: Option<SpaceId>,
    cursor: usize,
    /// Whether loading a frame charges a disk read + decode (map phase
    /// reading HDFS blocks) or just decode (reduce phase consuming
    /// staged shuffle output).
    charge_read: bool,
    label: String,
}

impl<O: Operator, K: Sink<O::Out>> OperatorWorker<O, K> {
    /// Creates a worker over `frames`; `label` names the thread and
    /// prefixes its heap spaces (`<label>.state`, `<label>.frame`).
    pub fn new(
        op: O,
        frames: VecDeque<Vec<O::In>>,
        sink: Rc<RefCell<K>>,
        charge_read: bool,
        label: impl Into<String>,
    ) -> Self {
        OperatorWorker {
            op,
            frames,
            sink,
            state_space: None,
            frame_space: None,
            cursor: 0,
            charge_read,
            label: label.into(),
        }
    }

    fn frame_bytes(frame: &[O::In]) -> (ByteSize, ByteSize) {
        let mem: u64 = frame.iter().map(Tuple::heap_bytes).sum();
        let ser: u64 = frame.iter().map(Tuple::ser_bytes).sum();
        (ByteSize(mem), ByteSize(ser))
    }

    fn run(&mut self, cx: &mut WorkCx<'_>) -> SimResult<bool> {
        let state = match self.state_space {
            Some(s) => s,
            None => {
                let s = cx.create_space(format!("{}.state", self.label));
                self.state_space = Some(s);
                s
            }
        };
        // One sink borrow per quantum: emissions land directly in the
        // sink, which hears of the quantum's end before returning
        // (single-threaded simulation — nothing else reads it mid-run).
        let sink_rc = self.sink.clone();
        let mut sink = sink_rc.borrow_mut();
        while !cx.out_of_quantum() {
            // Ensure a loaded frame.
            let Some(frame) = self.frames.front() else {
                break;
            };
            if self.frame_space.is_none() {
                let (mem, ser) = Self::frame_bytes(frame);
                let space = cx.create_space(format!("{}.frame", self.label));
                if self.charge_read {
                    cx.charge(CostModel::disk_read(ser));
                }
                cx.charge(CostModel::deserialize_cpu(ser));
                if let Err(e) = cx.alloc(space, mem) {
                    cx.node().heap.release_space(space);
                    return Err(e);
                }
                self.frame_space = Some(space);
                self.cursor = 0;
            }
            // Process tuples through the ITask scale loop, without its
            // memory safe point: a regular operator cannot yield under
            // pressure.
            let frame_len = frame.len();
            let sink = &mut *sink;
            scale_loop(cx, frame, &mut self.cursor, false, |work, t| {
                self.op.next(&mut OpCx { work, state, sink }, t)
            })?;
            if self.cursor >= frame_len {
                // Frame done: its heap bytes become garbage.
                if let Some(space) = self.frame_space.take() {
                    cx.node().heap.release_space(space);
                }
                self.frames.pop_front();
            }
        }
        if self.frames.is_empty() {
            let mut ocx = OpCx {
                work: cx,
                state,
                sink: &mut *sink,
            };
            self.op.close(&mut ocx)?;
            sink.end_input(cx)?;
            if let Some(s) = self.state_space.take() {
                cx.node().heap.release_space(s);
            }
            return Ok(true);
        }
        sink.end_quantum();
        Ok(false)
    }
}

impl<O: Operator, K: Sink<O::Out>> Work for OperatorWorker<O, K> {
    fn step(&mut self, cx: &mut WorkCx<'_>) -> StepOutcome {
        match self.run(cx) {
            Ok(true) => StepOutcome::Finished,
            Ok(false) => StepOutcome::Ran,
            Err(e) => StepOutcome::Failed(e),
        }
    }

    fn label(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcluster::{NodeSim, NodeState};
    use simcore::{NodeId, SimError};

    struct W(u64);

    impl Tuple for W {
        fn heap_bytes(&self) -> u64 {
            self.0
        }
    }

    /// Counts tuples and bytes; allocates 64B of state per tuple.
    struct Count {
        n: u64,
    }

    impl Operator for Count {
        type In = W;
        type Out = W;

        fn next(&mut self, cx: &mut OpCx<'_, '_, W>, _t: &W) -> SimResult<()> {
            cx.alloc_state(ByteSize(64))?;
            self.n += 1;
            Ok(())
        }

        fn close(&mut self, cx: &mut OpCx<'_, '_, W>) -> SimResult<()> {
            cx.emit(0, W(self.n))
        }
    }

    /// Refuses every tuple with a full disk.
    struct FullDisk;

    impl Sink<W> for FullDisk {
        fn put(&mut self, cx: &mut WorkCx<'_>, _bucket: u32, _t: W) -> SimResult<()> {
            Err(SimError::DiskFull {
                node: cx.node().id,
                requested: ByteSize(7),
            })
        }

        fn end_input(&mut self, _cx: &mut WorkCx<'_>) -> SimResult<()> {
            Ok(())
        }
    }

    fn sim(heap_kib: u64) -> NodeSim {
        NodeSim::new(NodeState::new(
            NodeId(0),
            8,
            ByteSize::kib(heap_kib),
            ByteSize::mib(64),
        ))
    }

    #[test]
    fn worker_processes_all_frames_and_emits() {
        let mut s = sim(4096);
        let sink: OutputSink<W> = OutputSink::default();
        let frames: VecDeque<Vec<W>> = (0..4).map(|_| (0..100).map(|_| W(50)).collect()).collect();
        s.spawn(Box::new(OperatorWorker::new(
            Count { n: 0 },
            frames,
            sink.clone(),
            true,
            "count",
        )));
        for _ in 0..100_000 {
            if s.live_count() == 0 {
                break;
            }
            let r = s.run_round();
            assert!(r.failed.is_empty(), "{:?}", r.failed);
        }
        let groups = sink.borrow_mut().drain_groups();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].1[0].0, 400);
        // Everything was released at close.
        assert_eq!(s.node().heap.live(), ByteSize::ZERO);
    }

    #[test]
    fn state_explosion_fails_with_oom() {
        let mut s = sim(64); // 64KiB heap, state wants 640KiB
        let sink: OutputSink<W> = OutputSink::default();
        let frames: VecDeque<Vec<W>> = (0..10)
            .map(|_| (0..1000).map(|_| W(10)).collect())
            .collect();
        s.spawn(Box::new(OperatorWorker::new(
            Count { n: 0 },
            frames,
            sink.clone(),
            false,
            "count",
        )));
        let mut failed = None;
        for _ in 0..100_000 {
            if s.live_count() == 0 {
                break;
            }
            let r = s.run_round();
            if let Some((_, e)) = r.failed.into_iter().next() {
                failed = Some(e);
                break;
            }
        }
        assert!(failed.expect("must fail").is_oom());
        assert!(sink.borrow().is_empty());
    }

    #[test]
    fn a_failing_put_fails_the_worker_with_its_error() {
        let mut s = sim(4096);
        let frames: VecDeque<Vec<W>> = (0..2).map(|_| (0..10).map(|_| W(50)).collect()).collect();
        s.spawn(Box::new(OperatorWorker::new(
            Count { n: 0 },
            frames,
            Rc::new(RefCell::new(FullDisk)),
            true,
            "count",
        )));
        let mut failed = Vec::new();
        for _ in 0..100_000 {
            if s.live_count() == 0 {
                break;
            }
            failed.extend(s.run_round().failed);
        }
        let errors: Vec<SimError> = failed.into_iter().map(|(_, e)| e).collect();
        assert_eq!(
            errors,
            [SimError::DiskFull {
                node: NodeId(0),
                requested: ByteSize(7),
            }]
        );
    }
}
