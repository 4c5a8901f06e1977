//! The ITask programming model (the paper's `ITask` abstract class,
//! Figure 4) and the execution context handed to task code.
//!
//! Two layers:
//!
//! * [`ITask`] — the object-safe interface the runtime schedules:
//!   `initialize` / `process_batch` / `interrupt` / `cleanup`. The batch
//!   granularity replaces the paper's per-tuple `process(Tuple)` call at
//!   the runtime boundary (one batch ≈ one scheduling quantum); safe
//!   points sit between tuples exactly as in the paper because the batch
//!   loop checks [`TaskCx::low_memory`] per tuple.
//! * [`TupleTask`] + [`Scale`] — the typed, paper-shaped layer. A
//!   `TupleTask` implements per-tuple `process(&In)` and the [`Scale`]
//!   adapter supplies the scale loop (cursor advancement, cost charging,
//!   early yield under pressure), mirroring `scaleLoop` in Figure 4.

use std::any::Any;

use simcluster::WorkCx;
use simcore::{ByteSize, CostModel, SimDuration, SimResult, SimTime, SpaceId, TaskId};

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

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.work.now()
    }

    /// The logical task this instance executes.
    pub fn task(&self) -> TaskId {
        self.task
    }

    /// Consumes CPU time.
    pub fn charge(&mut self, t: SimDuration) {
        self.work.charge(t);
    }

    /// Whether the scheduling quantum is exhausted (yield point).
    pub fn out_of_quantum(&self) -> bool {
        self.work.out_of_quantum()
    }

    /// Whether free heap has sunk below the monitor's pressure line — the
    /// per-tuple safe-point check of the scale loop. Task code yields
    /// when this turns true so the IRS can act before an OME.
    pub fn low_memory(&mut self) -> bool {
        let heap = &self.work.node().heap;
        heap.effective_free() < heap.capacity().mul_ratio(simmem::LUGC_FREE_PCT, 100)
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

/// Adapter implementing the scale loop of Figure 4 over a [`TupleTask`]:
/// iterate tuples, charge their cost, advance the cursor, and yield at
/// safe points (quantum exhausted or memory pressure).
pub struct Scale<T>(pub T);

/// How often the scale loop re-checks the memory safe-point predicate.
const PRESSURE_CHECK_EVERY: u64 = 32;

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
        let mut processed = 0u64;
        while !cx.out_of_quantum() {
            if processed > 0 && processed.is_multiple_of(PRESSURE_CHECK_EVERY) && cx.low_memory() {
                break;
            }
            let cursor = part.meta().cursor;
            if cursor >= part.meta().len {
                break;
            }
            let cost = {
                // CPU scales with the tuple's payload, not its
                // managed-heap bloat.
                let t = part.get(cursor);
                CostModel::tuple_cost(ByteSize(t.ser_bytes()))
            };
            cx.charge(cost);
            {
                let t = part.get(cursor);
                self.0.process(cx, t)?;
            }
            part.advance();
            processed += 1;
        }
        Ok(processed)
    }

    fn interrupt(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        self.0.interrupt(cx)
    }

    fn cleanup(&mut self, cx: &mut TaskCx<'_, '_>) -> SimResult<()> {
        self.0.cleanup(cx)
    }
}
