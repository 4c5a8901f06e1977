//! The ITask programming model (the paper's `ITask` abstract class,
//! Figure 4) and the execution context handed to task code.
//!
//! Two layers:
//!
//! * [`ITask`] — the object-safe interface the runtime schedules:
//!   `initialize` / `process_batch` / `interrupt` / `cleanup`. The batch
//!   granularity replaces the paper's per-tuple `process(Tuple)` call at
//!   the runtime boundary (one batch ≈ one scheduling quantum); safe
//!   points sit between tuples, checked every 32 tuples.
//! * [`TupleTask`] + [`Scale`] — the typed, paper-shaped layer. A
//!   `TupleTask` implements per-tuple `process(&In)` and [`Scale`] runs
//!   it through [`scale_loop`] (Figure 4's `scaleLoop`), the tuple loop
//!   regular operators run too, with the pressure check off.

use std::any::Any;

use simcluster::WorkCx;
use simcore::{prof, ByteSize, CostModel, SimDuration, SimResult, SpaceId, TaskId};

use crate::partition::{Partition, Tag, Tuple, VecPartition};
use crate::runtime::{FinalOutput, IrsHandle};

/// Single-input task or multi-partition aggregation task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskKind {
    /// One partition per instance (the paper's `ITask`).
    Single,
    /// A tag-group of partitions per instance (the paper's `MITask`).
    Multi,
}

/// The heap spaces owned by one running task instance: local auxiliary
/// structures and the output partition being built (components 1 and 4 of
/// the paper's Figure 1).
#[derive(Debug)]
pub struct InstanceSpaces {
    /// Space for task-local data structures.
    pub local: SpaceId,
    /// Space for the output being accumulated.
    pub out: SpaceId,
}

/// Execution context for task code.
///
/// Wraps the node-level [`WorkCx`] (clock, heap, quantum) and the ITask
/// runtime handle (partition queue, final-output channel, statistics).
pub struct TaskCx<'a, 'b> {
    pub(crate) work: &'a mut WorkCx<'b>,
    pub(crate) shared: &'a IrsHandle,
    pub(crate) task: TaskId,
    pub(crate) input_tag: Tag,
    pub(crate) spaces: &'a mut InstanceSpaces,
    /// Whether this context serves interrupt handling (drives the
    /// Table 2 reclaimed-memory attribution: only pressure-driven
    /// emissions count as savings).
    pub(crate) interrupting: bool,
}

impl<'a, 'b> TaskCx<'a, 'b> {
    pub(crate) fn new(
        work: &'a mut WorkCx<'b>,
        shared: &'a IrsHandle,
        task: TaskId,
        input_tag: Tag,
        spaces: &'a mut InstanceSpaces,
        interrupting: bool,
    ) -> Self {
        TaskCx {
            work,
            shared,
            task,
            input_tag,
            spaces,
            interrupting,
        }
    }

    /// The tag of the partition currently being processed (for a reduce
    /// task, the hash-bucket id its outputs must carry — Figure 7's
    /// `Hyracks.getChannelID()`).
    pub fn input_tag(&self) -> Tag {
        self.input_tag
    }

    /// The logical task this instance executes.
    pub fn task(&self) -> TaskId {
        self.task
    }

    /// Allocates into the instance's local-structures space.
    pub fn alloc_local(&mut self, bytes: ByteSize) -> SimResult<()> {
        let s = self.spaces.local;
        self.work.alloc(s, bytes)
    }

    /// Frees bytes from the local-structures space.
    pub fn free_local(&mut self, bytes: ByteSize) -> ByteSize {
        let s = self.spaces.local;
        self.work.free(s, bytes)
    }

    /// Allocates into the output space. Keep this equal to the summed
    /// [`Tuple::heap_bytes`] of the tuples eventually emitted so that
    /// partition accounting balances; scratch data belongs in
    /// [`Self::alloc_local`].
    pub fn alloc_out(&mut self, bytes: ByteSize) -> SimResult<()> {
        let s = self.spaces.out;
        self.work.alloc(s, bytes)
    }

    /// Frees bytes from the output space (e.g. map-side combining that
    /// collapses entries).
    pub fn free_out(&mut self, bytes: ByteSize) -> ByteSize {
        let s = self.spaces.out;
        self.work.free(s, bytes)
    }

    /// Emits the accumulated output as an *intermediate result*: a tagged
    /// partition pushed to the partition queue, addressed to `dest`
    /// (component 4(b) of Figure 1 — e.g. a Reduce interrupt tagging its
    /// partial map with the hash-bucket id for the Merge task).
    ///
    /// The output space is handed to the new partition; a fresh output
    /// space replaces it.
    pub fn emit_to_task<T: Tuple>(
        &mut self,
        dest: TaskId,
        tag: Tag,
        items: Vec<T>,
    ) -> SimResult<()> {
        let old_out = self.rotate_out_space();
        let bytes = self.work.node().heap.space_live(old_out);
        let mut part =
            VecPartition::new(self.shared.next_partition_id(), dest, tag, items, old_out);
        if self.interrupting {
            self.shared.note_intermediate(bytes);
        }
        // Write-behind: when memory is tight, the partition manager's
        // lazy serialization happens at birth — the queue must not pin
        // the live set (paper §5.3's background serialization).
        let cfg = self.shared.0.borrow().cfg;
        let heap = &self.work.node().heap;
        let tight = heap.effective_free()
            < heap
                .capacity()
                .mul_ratio(cfg.serialize_free_pct as u64, 100);
        if tight {
            let mode = cfg.serialize_mode;
            let freed = crate::manager::serialize_partition(&mut part, self.work.node(), mode)?;
            if !freed.is_zero() {
                self.shared.note_serialized_at_birth(freed);
            }
        }
        self.shared.push_partition(Box::new(part));
        Ok(())
    }

    /// Emits the accumulated output as a *final result*: it leaves the
    /// ITask runtime immediately (component 4(a) of Figure 1 — e.g. a Map
    /// interrupt pushing its buffer straight to the shuffle). The heap
    /// bytes are released locally; the framework decides where the data
    /// goes next.
    pub fn emit_final(&mut self, data: Box<dyn Any>, ser_bytes: ByteSize) -> SimResult<()> {
        let old_out = self.rotate_out_space();
        let mem_bytes = self.work.node().heap.space_live(old_out);
        self.work.node().heap.release_space(old_out);
        if self.interrupting {
            self.shared.note_final(mem_bytes);
        }
        self.shared.push_final(FinalOutput {
            from: self.task,
            data,
            mem_bytes,
            ser_bytes,
        });
        Ok(())
    }

    fn rotate_out_space(&mut self) -> SpaceId {
        let new = self
            .work
            .node()
            .heap
            .create_space(format!("{}.out", self.task));
        std::mem::replace(&mut self.spaces.out, new)
    }
}

/// The object-safe task interface the runtime drives.
pub trait ITask {
    /// Loads inputs / creates local structures (paper: `initialize`).
    fn initialize(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()>;

    /// Processes tuples from `input` until the quantum is exhausted, the
    /// input runs dry, or memory pressure demands a yield. Returns the
    /// number of tuples processed (the speed rule's progress units).
    fn process_batch(
        &mut self,
        cx: &mut TaskCx<'_, '_>,
        input: &mut dyn Partition,
    ) -> SimResult<u64>;

    /// Interrupt handling (paper: `interrupt`): push or tag outputs.
    /// Called by the runtime when this instance is selected for
    /// termination; the runtime itself releases the processed input
    /// prefix and local structures afterwards.
    fn interrupt(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()>;

    /// Finalization when the whole input has been processed.
    fn cleanup(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()>;
}

/// The typed, paper-shaped task layer: per-tuple `process`.
pub trait TupleTask {
    /// Input tuple type.
    type In: Tuple;

    /// Initialization logic.
    fn initialize(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()>;

    /// Processes one tuple. Must be side-effect-free outside the output
    /// space and task-local state (the paper's requirement that makes
    /// resumption sound).
    fn process(&mut self, cx: &mut TaskCx<'_, '_>, tuple: &Self::In) -> SimResult<()>;

    /// Interrupt logic.
    fn interrupt(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()>;

    /// Finalization logic.
    fn cleanup(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()>;
}

/// How often [`scale_loop`] re-checks the memory safe-point predicate.
const PRESSURE_CHECK_EVERY: u64 = 32;

/// Figure 4's scale loop, run by ITasks ([`Scale`]) and regular operators
/// alike: from `*cursor`, charge each tuple the [`CostModel::tuple_cost`]
/// of its payload, hand it to `process` and advance the cursor once that
/// succeeds. Stops when `items` or the quantum runs out or, with
/// `pressure`, at a safe point (every `PRESSURE_CHECK_EVERY` = 32 tuples)
/// that finds free heap below the LUGC line. Returns the tuples moved
/// past, or `process`'s error with the cursor on the failing tuple;
/// either way one `map` event records those tuples and all time charged.
#[inline]
pub fn scale_loop<'b, T: Tuple>(
    work: &mut WorkCx<'b>,
    items: &[T],
    cursor: &mut usize,
    pressure: bool,
    mut process: impl FnMut(&mut WorkCx<'b>, &T) -> SimResult<()>,
) -> SimResult<u64> {
    let _wall = prof::wall_timer(prof::Stage::Map);
    let (start, mut vtime, mut result) = (*cursor, SimDuration::ZERO, Ok(()));
    while *cursor < items.len() && !work.out_of_quantum() {
        let done = (*cursor - start) as u64;
        if pressure && done > 0 && done.is_multiple_of(PRESSURE_CHECK_EVERY) {
            let heap = &work.node().heap;
            if heap.effective_free() < heap.capacity().mul_ratio(simmem::LUGC_FREE_PCT, 100) {
                break;
            }
        }
        let t = &items[*cursor];
        // CPU scales with the tuple's payload, not its managed-heap bloat.
        let cost = CostModel::tuple_cost(ByteSize(t.ser_bytes()));
        work.charge(cost);
        vtime += cost;
        result = process(work, t);
        if result.is_err() {
            break;
        }
        *cursor += 1;
    }
    let moved = (*cursor - start) as u64;
    prof::count(prof::Stage::Map, 1, moved);
    prof::vtime(prof::Stage::Map, vtime);
    result.map(|()| moved)
}

/// Adapter running a [`TupleTask`] through [`scale_loop`] with the memory
/// safe point armed.
pub struct Scale<T>(pub T);

impl<TT: TupleTask> ITask for Scale<TT> {
    fn initialize(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        self.0.initialize(cx)
    }

    fn process_batch(
        &mut self,
        cx: &mut TaskCx<'_, '_>,
        input: &mut dyn Partition,
    ) -> SimResult<u64> {
        let part = input
            .as_any_mut()
            .downcast_mut::<VecPartition<TT::In>>()
            .ok_or_else(|| {
                simcore::SimError::Internal(format!(
                    "task {} fed a partition of the wrong tuple type",
                    cx.task()
                ))
            })?;
        let (items, cursor) = part.items_and_cursor();
        scale_loop(cx.work, items, cursor, true, |work, t| {
            let (shared, task, tag) = (cx.shared, cx.task, cx.input_tag);
            let mut tcx = TaskCx::new(work, shared, task, tag, cx.spaces, cx.interrupting);
            self.0.process(&mut tcx, t)
        })
    }

    fn interrupt(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        self.0.interrupt(cx)
    }

    fn cleanup(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        self.0.cleanup(cx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcluster::NodeState;
    use simcore::{NodeId, SimError};

    struct Item;

    impl Tuple for Item {
        fn heap_bytes(&self) -> u64 {
            64
        }
    }

    const AMPLE: SimDuration = SimDuration::from_secs(1);
    type Ran = (SimResult<u64>, usize);

    /// Runs the loop from cursor `at` over 100 tuples in a quantum `q`,
    /// `process` refusing its `fail`-th call; returns the result and the
    /// cursor.
    fn run(n: &mut NodeState, at: usize, q: SimDuration, pressure: bool, fail: usize) -> Ran {
        let mut work = WorkCx::detached(n, q);
        let (items, mut cursor, mut calls) = ([(); 100].map(|()| Item), at, 0);
        let r = scale_loop(&mut work, &items, &mut cursor, pressure, |_, _| {
            calls += 1;
            if calls == fail {
                return Err(SimError::Internal("refused".into()));
            }
            Ok(())
        });
        (r, cursor)
    }

    fn node() -> NodeState {
        NodeState::new(NodeId(0), 1, ByteSize::mib(1), ByteSize::mib(64))
    }

    #[test]
    fn scale_loop_runs_to_the_quantum_end_or_the_input_end() {
        let one_ns = SimDuration::from_nanos(1);
        assert_eq!(run(&mut node(), 3, one_ns, false, 0), (Ok(1), 4));
        assert_eq!(run(&mut node(), 4, AMPLE, false, 0), (Ok(96), 100));
        assert_eq!(run(&mut node(), 100, AMPLE, false, 0), (Ok(0), 100));
    }

    #[test]
    fn scale_loop_under_the_lugc_line_yields_after_one_check_interval() {
        let mut n = node();
        let space = n.heap.create_space("pinned");
        n.alloc(space, ByteSize::kib(1000)).expect("fits");
        let every = PRESSURE_CHECK_EVERY;
        assert_eq!(run(&mut n, 0, AMPLE, true, 0), (Ok(every), every as usize));
        assert_eq!(run(&mut n, 0, AMPLE, false, 0), (Ok(100), 100));
    }

    #[test]
    fn scale_loop_leaves_the_cursor_on_a_failing_tuple() {
        let refused = Err(SimError::Internal("refused".into()));
        assert_eq!(run(&mut node(), 0, AMPLE, false, 5), (refused, 4));
    }
}
