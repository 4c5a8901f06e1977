//! Generic keyed-aggregation machinery: one spec type per application,
//! four executions for free (Hyracks regular/ITask, Hadoop
//! regular/ITask) from two sets of adapters. The regular operators run
//! on Hyracks pool threads and in Hadoop task attempts alike; the
//! ITasks run under either framework's IRS.
//!
//! The central idea: the `Mid` tuple is simultaneously the unit that
//! travels through the shuffle *and* the mergeable per-key accumulator
//! ([`MergeableTuple`]). Map-side combining, reduce-side aggregation and
//! the ITask merge stage are then all the same fold.

use std::borrow::Borrow;
use std::rc::Rc;

use hyracks::{ItaskFactories, OpCx, Operator, ShuffleBatch};
use itask_core::{ITask, Scale, TaskCx, Tuple, TupleTask};
use simcore::{prof, ByteSize, KeyMap, SimResult, TaskId};

/// A tuple that knows its aggregation key and can absorb another tuple
/// with the same key.
pub trait MergeableTuple: Tuple + Clone {
    /// The aggregation key.
    fn key(&self) -> u64;

    /// Merges `other` (same key) into `self`. `other` is borrowed: a
    /// reduce or merge task folds the partial at its partition's cursor
    /// where it lies, so no partial is cloned only to be merged and
    /// dropped. What the merge costs is the change in
    /// [`Tuple::heap_bytes`] across it, which [`AggState::add`]
    /// charges: positive when the accumulator grows (postings, collected
    /// groups), zero when the merge collapses (adding counters),
    /// negative when it releases memory (a hash join resolving pending
    /// probes).
    fn merge(&mut self, other: &Self);
}

/// What [`AggState::add`] folds: an owned tuple (a map task's
/// `explode` output), which moves into a new entry, or a borrowed one
/// (a partial at a partition's cursor), which is cloned only when its
/// key is new.
pub trait Contribution<M>: Borrow<M> {
    /// The tuple as a new entry's accumulator.
    fn into_entry(self) -> M;
}

impl<M> Contribution<M> for M {
    fn into_entry(self) -> M {
        self
    }
}

impl<M: Clone> Contribution<M> for &M {
    fn into_entry(self) -> M {
        self.clone()
    }
}

/// One application's aggregation semantics.
pub trait AggSpec: Clone + 'static {
    /// Input record type.
    type In: Tuple + Clone;
    /// Shuffled/accumulated tuple type.
    type Mid: MergeableTuple;
    /// Final output record type.
    type Out: Tuple + 'static;

    /// Short name, the prefix of a Hyracks job's heap-space labels.
    /// Hadoop jobs label their spaces by task and never read it.
    fn name(&self) -> &'static str {
        std::any::type_name::<Self>()
    }

    /// Decomposes one input record into keyed contributions (map side).
    fn explode(&self, rec: &Self::In, out: &mut Vec<Self::Mid>);

    /// Finalizes one accumulated entry.
    fn finish(&self, mid: Self::Mid) -> Self::Out;

    /// Shuffle bucket of a key (hash by default; sort apps use ranges).
    ///
    /// Contract: `bucket(key, buckets) < buckets` for every key, and the
    /// same `(key, buckets)` always gives the same bucket. The grouped
    /// drain sizes its per-bucket table by `buckets` and the engine
    /// tags reduce partitions by it; a range split must clamp its last
    /// range (as `hs` does) rather than return `buckets`.
    fn bucket(&self, key: u64, buckets: u32) -> u32 {
        (key % buckets as u64) as u32
    }

    /// Bytes of long-lived structures loaded at task start (MSA's join
    /// table).
    fn init_bytes(&self) -> u64 {
        0
    }

    /// Transient scratch needed to process one record (CRP's lemmatizer
    /// working set): allocated before `explode`, garbage right after.
    fn scratch_bytes(&self, _rec: &Self::In) -> u64 {
        0
    }

    /// Map-side combiner cache cap for the *regular* versions: when the
    /// local aggregate exceeds this, it is flushed downstream (Hyracks
    /// per-frame aggregation / a bounded in-map combiner). The ITask map
    /// has no cap — its state grows until the IRS interrupts it, which
    /// is exactly the paper's design. Specs reproducing unbounded-state
    /// bugs (IMC) override this with `u64::MAX`.
    fn map_cache_bytes(&self) -> u64 {
        64 * 1024
    }
}

/// The shared fold: a key → accumulator map with byte-accurate
/// allocation callbacks. The map hashes with `simcore`'s one-multiply
/// [`KeyMap`] hasher instead of SipHash on the per-tuple fold path;
/// order sensitivity is confined to [`AggState::drain`] and
/// [`AggState::drain_grouped`], which sort.
pub struct AggState<M: MergeableTuple> {
    map: KeyMap<u64, M>,
}

impl<M: MergeableTuple> AggState<M> {
    /// Empty state.
    pub fn new() -> Self {
        AggState {
            map: KeyMap::default(),
        }
    }

    /// Whether nothing has been accumulated.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Folds one tuple in; `charge` receives the byte delta (positive:
    /// allocate, negative: free): a new entry's `heap_bytes()`, or an
    /// occupied entry's `heap_bytes()` after the merge minus before it.
    /// A zero delta is not charged.
    ///
    /// `item` is owned or borrowed ([`Contribution`]). An owned tuple
    /// moves into a new entry; a borrowed one is cloned for a new entry
    /// only, since the map must own its accumulators. Either is merged
    /// into an occupied entry by reference, so a fold that grows no
    /// list allocates nothing on the host.
    pub fn add(
        &mut self,
        item: impl Contribution<M>,
        charge: &mut impl FnMut(i64) -> SimResult<()>,
    ) -> SimResult<()> {
        use std::collections::hash_map::Entry;
        let tuple: &M = item.borrow();
        match self.map.entry(tuple.key()) {
            Entry::Vacant(v) => {
                charge(tuple.heap_bytes() as i64)?;
                v.insert(item.into_entry());
            }
            Entry::Occupied(mut o) => {
                let acc = o.get_mut();
                let before = acc.heap_bytes() as i64;
                acc.merge(tuple);
                let delta = acc.heap_bytes() as i64 - before;
                if delta != 0 {
                    charge(delta)?;
                }
            }
        }
        Ok(())
    }

    /// Empties the map in hash order, counting the drain.
    fn take_unordered(&mut self) -> Vec<M> {
        prof::count(prof::Stage::AggDrain, 1, self.map.len() as u64);
        let mut out: Vec<M> = Vec::with_capacity(self.map.len());
        out.extend(self.map.drain().map(|(_, v)| v));
        out
    }

    /// Drains the accumulated tuples in key order; the sort is what
    /// keeps the hash map's iteration order from being observable.
    ///
    /// The ITask map flush uses [`AggState::drain_grouped`] instead;
    /// the callers left here need the whole drain key-ordered, or gain
    /// nothing from grouping, and moving any of the simulated ones
    /// moves a digest:
    ///
    /// * the regular operators ([`AggMapOp`], [`AggReduceOp`]) on a
    ///   Hyracks connector: `OpCx::emit` is an arena push with no
    ///   simulated side effect, so only the per-bucket order matters —
    ///   host-only, but map flushes are capped at
    ///   [`AggSpec::map_cache_bytes`] and the grouped drain measured no
    ///   gain there (EXPERIMENTS.md, PR 22);
    /// * the same operators in a Hadoop attempt: the map side's sort
    ///   buffer charges the heap per tuple and spills at a threshold,
    ///   so emission order is simulated, and the reduce side's is the
    ///   job's output order;
    /// * ITask reduce and merge partials ([`AggReduceTask`],
    ///   [`AggMergeTask`]): re-folded downstream in arrival order, which
    ///   charges allocations in that order — simulated.
    pub fn drain(&mut self) -> Vec<M> {
        let _wall = prof::wall_timer(prof::Stage::AggDrain);
        let mut out = self.take_unordered();
        // Keys are unique, so this is a total order.
        out.sort_unstable_by_key(MergeableTuple::key);
        out
    }

    /// Drains the accumulated tuples grouped for the shuffle: buckets
    /// ascending, keys ascending inside a bucket, plus the `(bucket,
    /// len)` run of every bucket touched — the two halves of a
    /// [`ShuffleBatch`]. Keys are unique, so this is exactly the order
    /// of [`AggState::drain`] followed by a stable sort on the bucket,
    /// reached in linear time: `bucket` is evaluated once per tuple, a
    /// counting pass deals the tuples to their runs in place, and only
    /// a run is comparison-sorted.
    pub fn drain_grouped(
        &mut self,
        buckets: u32,
        bucket: impl Fn(u64) -> u32,
    ) -> (Vec<M>, Vec<(u32, u32)>) {
        let _wall = prof::wall_timer(prof::Stage::AggDrain);
        let mut out = self.take_unordered();
        // Per-bucket lengths first, then (below) each bucket's cursor:
        // where in `out` its next tuple belongs.
        let mut cursor = vec![0u32; buckets as usize];
        let mut tags: Vec<u32> = out
            .iter()
            .map(|m| {
                let b = bucket(m.key());
                debug_assert!(b < buckets, "AggSpec::bucket returned {b} of {buckets}");
                cursor[b as usize] += 1;
                b
            })
            .collect();
        let mut runs = Vec::new();
        let mut start = 0u32;
        for (b, slot) in cursor.iter_mut().enumerate() {
            let len = std::mem::replace(slot, start);
            if len > 0 {
                runs.push((b as u32, len));
            }
            start += len;
        }
        // American-flag placement: earlier buckets' runs are complete,
        // so a stray tuple under this run's `at` belongs to a later
        // bucket; swap it to that bucket's cursor — one swap per tuple
        // at most — and look again at what came back.
        let mut at = 0usize;
        for &(b, len) in &runs {
            let start = at;
            let end = start + len as usize;
            while at < end {
                let home = tags[at];
                if home == b {
                    at += 1;
                } else {
                    let to = cursor[home as usize] as usize;
                    cursor[home as usize] += 1;
                    out.swap(at, to);
                    tags.swap(at, to);
                }
            }
            out[start..end].sort_unstable_by_key(MergeableTuple::key);
        }
        (out, runs)
    }
}

impl<M: MergeableTuple> Default for AggState<M> {
    fn default() -> Self {
        Self::new()
    }
}

fn ser_of<T: Tuple>(items: &[T]) -> ByteSize {
    ByteSize(items.iter().map(Tuple::ser_bytes).sum())
}

/// Signed charge against an operator's state space.
fn charge_state<Out>(cx: &mut OpCx<'_, '_, Out>, delta: i64) -> SimResult<()> {
    if delta >= 0 {
        cx.alloc_state(ByteSize(delta as u64))
    } else {
        cx.free_state(ByteSize((-delta) as u64));
        Ok(())
    }
}

/// Signed charge against an ITask instance's output space.
fn charge_out(cx: &mut TaskCx<'_, '_>, delta: i64) -> SimResult<()> {
    if delta >= 0 {
        cx.alloc_out(ByteSize(delta as u64))
    } else {
        cx.free_out(ByteSize((-delta) as u64));
        Ok(())
    }
}

// ====================================================================
// Regular operators (Hyracks pool threads and Hadoop task attempts)
// ====================================================================

/// Map-side operator: explode + local combining; emits when the cache
/// passes [`AggSpec::map_cache_bytes`] and at close.
pub struct AggMapOp<S: AggSpec> {
    spec: S,
    buckets: u32,
    state: AggState<S::Mid>,
    scratch: Vec<S::Mid>,
    held: i64,
    initialized: bool,
}

impl<S: AggSpec> AggMapOp<S> {
    /// Creates the operator.
    pub fn new(spec: S, buckets: u32) -> Self {
        AggMapOp {
            spec,
            buckets,
            state: AggState::new(),
            scratch: Vec::new(),
            held: 0,
            initialized: false,
        }
    }

    fn flush(&mut self, cx: &mut OpCx<'_, '_, S::Mid>) -> SimResult<()> {
        for item in self.state.drain() {
            let bucket = self.spec.bucket(item.key(), self.buckets);
            cx.emit(bucket, item)?;
        }
        if self.held > 0 {
            cx.free_state(ByteSize(self.held as u64));
        }
        self.held = 0;
        Ok(())
    }
}

impl<S: AggSpec> Operator for AggMapOp<S> {
    type In = S::In;
    type Out = S::Mid;

    fn next(&mut self, cx: &mut OpCx<'_, '_, S::Mid>, rec: &S::In) -> SimResult<()> {
        // The long-lived structures load with the first record, after
        // its frame is on the heap.
        if !self.initialized {
            let init = self.spec.init_bytes();
            if init > 0 {
                cx.alloc_state(ByteSize(init))?;
            }
            self.initialized = true;
        }
        let scratch = self.spec.scratch_bytes(rec);
        if scratch > 0 {
            cx.alloc_state(ByteSize(scratch))?;
        }
        self.scratch.clear();
        self.spec.explode(rec, &mut self.scratch);
        let held = &mut self.held;
        for item in self.scratch.drain(..) {
            self.state.add(item, &mut |d| {
                *held += d;
                charge_state(cx, d)
            })?;
        }
        if scratch > 0 {
            cx.free_state(ByteSize(scratch));
        }
        if self.held > 0 && self.held as u64 > self.spec.map_cache_bytes() {
            self.flush(cx)?;
        }
        Ok(())
    }

    fn close(&mut self, cx: &mut OpCx<'_, '_, S::Mid>) -> SimResult<()> {
        self.flush(cx)
    }
}

/// Reduce-side operator: fold partials, finalize at close.
pub struct AggReduceOp<S: AggSpec> {
    spec: S,
    buckets: u32,
    state: AggState<S::Mid>,
}

impl<S: AggSpec> AggReduceOp<S> {
    /// Creates the operator.
    pub fn new(spec: S, buckets: u32) -> Self {
        AggReduceOp {
            spec,
            buckets,
            state: AggState::new(),
        }
    }
}

impl<S: AggSpec> Operator for AggReduceOp<S> {
    type In = S::Mid;
    type Out = S::Out;

    fn next(&mut self, cx: &mut OpCx<'_, '_, S::Out>, item: &S::Mid) -> SimResult<()> {
        self.state.add(item, &mut |d| charge_state(cx, d))
    }

    fn close(&mut self, cx: &mut OpCx<'_, '_, S::Out>) -> SimResult<()> {
        for item in self.state.drain() {
            let bucket = self.spec.bucket(item.key(), self.buckets);
            let out = self.spec.finish(item);
            cx.emit(bucket, out)?;
        }
        Ok(())
    }
}

// ====================================================================
// ITask versions
// ====================================================================

/// The phase-2 graph built by the engines is `reduce = task0,
/// merge = task1` (see `hyracks::engine::run_itask`).
const MERGE_TASK: TaskId = TaskId(1);

/// Map ITask: explode + combine; interrupt/cleanup push a final
/// [`ShuffleBatch`] (Figure 6's `MapOperator`).
pub struct AggMapTask<S: AggSpec> {
    spec: S,
    buckets: u32,
    state: AggState<S::Mid>,
    scratch: Vec<S::Mid>,
}

impl<S: AggSpec> AggMapTask<S> {
    /// Creates the task.
    pub fn new(spec: S, buckets: u32) -> Self {
        AggMapTask {
            spec,
            buckets,
            state: AggState::new(),
            scratch: Vec::new(),
        }
    }

    fn flush(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        if self.state.is_empty() {
            return Ok(());
        }
        let (items, runs) = self
            .state
            .drain_grouped(self.buckets, |key| self.spec.bucket(key, self.buckets));
        let ser = ser_of(&items);
        cx.emit_final(Box::new(ShuffleBatch::from_runs(items, runs)), ser)
    }
}

impl<S: AggSpec> TupleTask for AggMapTask<S> {
    type In = S::In;

    fn initialize(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        let init = self.spec.init_bytes();
        if init > 0 {
            cx.alloc_local(ByteSize(init))?;
        }
        Ok(())
    }

    fn process(&mut self, cx: &mut TaskCx<'_, '_>, rec: &S::In) -> SimResult<()> {
        let scratch = self.spec.scratch_bytes(rec);
        if scratch > 0 {
            cx.alloc_local(ByteSize(scratch))?;
        }
        self.scratch.clear();
        self.spec.explode(rec, &mut self.scratch);
        for item in self.scratch.drain(..) {
            self.state.add(item, &mut |d| charge_out(cx, d))?;
        }
        if scratch > 0 {
            cx.free_local(ByteSize(scratch));
        }
        Ok(())
    }

    fn interrupt(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        self.flush(cx)
    }

    fn cleanup(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        self.flush(cx)
    }
}

/// Reduce ITask: folds one bucket partition; interrupt/cleanup queue the
/// partial aggregate to the merge MITask tagged with the bucket
/// (Figure 7's `ReduceOperator`).
pub struct AggReduceTask<S: AggSpec> {
    state: AggState<S::Mid>,
}

impl<S: AggSpec> AggReduceTask<S> {
    /// Creates the task.
    pub fn new(_spec: S) -> Self {
        AggReduceTask {
            state: AggState::new(),
        }
    }

    fn flush(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        if self.state.is_empty() {
            return Ok(());
        }
        let items = self.state.drain();
        let tag = cx.input_tag();
        cx.emit_to_task(MERGE_TASK, tag, items)
    }
}

impl<S: AggSpec> TupleTask for AggReduceTask<S> {
    type In = S::Mid;

    fn initialize(&mut self, _cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        Ok(())
    }

    fn process(&mut self, cx: &mut TaskCx<'_, '_>, item: &S::Mid) -> SimResult<()> {
        self.state.add(item, &mut |d| charge_out(cx, d))
    }

    fn interrupt(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        self.flush(cx)
    }

    fn cleanup(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        self.flush(cx)
    }
}

/// Merge MITask: aggregates a tag group; interrupted partials re-enter
/// its own queue (Figure 7's `MergeTask`), cleanup emits the final
/// records.
pub struct AggMergeTask<S: AggSpec> {
    spec: S,
    state: AggState<S::Mid>,
}

impl<S: AggSpec> AggMergeTask<S> {
    /// Creates the task.
    pub fn new(spec: S) -> Self {
        AggMergeTask {
            spec,
            state: AggState::new(),
        }
    }
}

impl<S: AggSpec> TupleTask for AggMergeTask<S> {
    type In = S::Mid;

    fn initialize(&mut self, _cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        Ok(())
    }

    fn process(&mut self, cx: &mut TaskCx<'_, '_>, item: &S::Mid) -> SimResult<()> {
        self.state.add(item, &mut |d| charge_out(cx, d))
    }

    fn interrupt(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        if self.state.is_empty() {
            return Ok(());
        }
        let items = self.state.drain();
        let tag = cx.input_tag();
        let me = cx.task();
        cx.emit_to_task(me, tag, items)
    }

    fn cleanup(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        let out: Vec<S::Out> = self
            .state
            .drain()
            .into_iter()
            .map(|m| self.spec.finish(m))
            .collect();
        let ser = ser_of(&out);
        cx.emit_final(Box::new(out), ser)
    }
}

/// Builds the three ITask factories for a spec.
pub fn itask_factories<S: AggSpec>(spec: S, buckets: u32) -> ItaskFactories {
    let s1 = spec.clone();
    let s2 = spec.clone();
    let s3 = spec;
    ItaskFactories {
        map: Rc::new(move || {
            Box::new(Scale(AggMapTask::new(s1.clone(), buckets))) as Box<dyn ITask>
        }),
        reduce: Rc::new(move || Box::new(Scale(AggReduceTask::new(s2.clone()))) as Box<dyn ITask>),
        merge: Rc::new(move || Box::new(Scale(AggMergeTask::new(s3.clone()))) as Box<dyn ITask>),
    }
}
