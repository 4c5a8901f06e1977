//! The simulated thread running one ITask instance: the state machine of
//! the paper's Figure 5 (initialize → scale loop → interrupt | cleanup).
//! A node crash takes the interrupt edge too, post-mortem, when the
//! scheduler salvages the dead thread ([`Work::salvage`]).

use std::collections::VecDeque;

use simcluster::{StepOutcome, Work, WorkCx};
use simcore::tracer::{EventId, TraceData};
use simcore::{SimError, SimResult, TaskId};

use crate::manager::deserialize_partition;
use crate::partition::{PartitionBox, Tag};
use crate::runtime::{InterruptMode, IrsHandle};
use crate::task::{ITask, InstanceSpaces, TaskCx, TaskKind};

/// One running instance: a task object plus its input partition(s).
///
/// A `Single` instance holds exactly one partition; a `Multi` (MITask)
/// instance holds a tag group and iterates it lazily — serialized
/// partitions are only deserialized when they reach the front (the
/// paper's out-of-core `PartitionIterator`).
pub(crate) struct ItaskWorker {
    instance: u64,
    handle: IrsHandle,
    task_id: TaskId,
    kind: TaskKind,
    tag: Tag,
    task: Box<dyn ITask>,
    inputs: VecDeque<PartitionBox>,
    spaces: Option<InstanceSpaces>,
    initialized: bool,
    interrupt_mode: InterruptMode,
}

/// Give up on a partition after this many failed activations.
const MAX_ACTIVATION_FAILURES: u32 = 32;

/// Why an instance leaves through [`ItaskWorker::interrupt`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum Cause {
    /// The IRS marked it as a victim; it stopped at a safe point.
    Scheduled,
    /// An allocation failed mid-instance: a self-interrupt.
    Emergency,
    /// Its node died; the scheduler salvages it post-mortem.
    Crash,
}

impl ItaskWorker {
    /// Builds a worker; the IRS spawns it as a simulated thread.
    pub(crate) fn new(
        handle: IrsHandle,
        task_id: TaskId,
        kind: TaskKind,
        tag: Tag,
        task: Box<dyn ITask>,
        inputs: VecDeque<PartitionBox>,
        interrupt_mode: InterruptMode,
    ) -> Self {
        let instance = handle.next_instance_id();
        ItaskWorker {
            instance,
            handle,
            task_id,
            kind,
            tag,
            task,
            inputs,
            spaces: None,
            initialized: false,
            interrupt_mode,
        }
    }

    /// The instance id (the IRS keys its bookkeeping on this).
    pub(crate) fn instance_id(&self) -> u64 {
        self.instance
    }

    fn ensure_spaces(&mut self, cx: &mut WorkCx<'_>) -> &mut InstanceSpaces {
        let (task_id, instance) = (self.task_id, self.instance);
        self.spaces.get_or_insert_with(|| InstanceSpaces {
            local: cx
                .node()
                .heap
                .create_space(format!("{task_id}.i{instance}.local")),
            out: cx
                .node()
                .heap
                .create_space(format!("{task_id}.i{instance}.out")),
        })
    }

    fn current_tag(&self) -> Tag {
        self.inputs
            .front()
            .map(|p| p.meta().tag)
            .unwrap_or(self.tag)
    }

    /// Releases instance spaces; returns bytes from the local space.
    fn release_spaces(&mut self, cx: &mut WorkCx<'_>) -> simcore::ByteSize {
        match self.spaces.take() {
            Some(s) => {
                let local = cx.node().heap.release_space(s.local);
                cx.node().heap.release_space(s.out);
                local
            }
            None => simcore::ByteSize::ZERO,
        }
    }

    /// The one interrupt path (Figure 5, memory-pressure edge): run the
    /// task's interrupt logic, release the processed input prefix and
    /// local structures, push unprocessed inputs back to the queue, and
    /// retire. A failing interrupt logic is returned with the instance
    /// not yet retired.
    ///
    /// A crash takes the same path post-mortem, and it works just as
    /// well after the node died, because everything it relies on is
    /// *already* off-node or deterministic: the processed prefix's
    /// results have left the node (component 4(a) streams finals out as
    /// they are produced; the in-object accumulation until
    /// interrupt/cleanup is a simulation artifact), and the cursor
    /// marks exactly where processing stopped. Flushing accumulated
    /// state and requeueing the unprocessed remainder therefore
    /// reproduces the instant-of-crash state with exactly-once
    /// semantics: emitted outputs are never re-emitted, unprocessed
    /// tuples are processed exactly once more, on whichever surviving
    /// node the engine re-homes them to. The kill-restart baseline
    /// salvages a crash this way too.
    fn interrupt(&mut self, cx: &mut WorkCx<'_>, cause: Cause) -> SimResult<()> {
        if cause != Cause::Crash && self.interrupt_mode == InterruptMode::KillRestart {
            self.kill_restart(cx, cause);
            return Ok(());
        }
        if self.initialized {
            let tag = self.current_tag();
            let spaces = self.spaces.as_mut().expect("initialized implies spaces");
            let mut tcx = TaskCx::new(cx, &self.handle, self.task_id, tag, spaces, true);
            self.task.interrupt(&mut tcx)?;
        }
        // Component 2 of Figure 1: drop the processed prefix.
        for part in &mut self.inputs {
            let freed = part.release_processed(&mut cx.node().heap);
            self.handle.note_processed_input(freed);
        }
        // Component 1: local structures die with the instance.
        let local = self.release_spaces(cx);
        self.handle.note_local(local);
        // Trace the interrupt *before* requeueing so each pushed-back
        // partition can be tagged with this event as its origin (the
        // eventual re-activation links back through it). A scheduled
        // interrupt links to its victim-mark; emergencies are self-
        // inflicted and have none. A crash is no interrupt origin.
        let task = self.task_id.as_u32();
        let origin = match cause {
            Cause::Crash => {
                self.handle
                    .emit(cx.now(), TraceData::CrashSalvaged { task });
                EventId::NONE
            }
            _ => {
                let mark = self.handle.take_victim_mark(self.instance);
                self.handle.emit(
                    cx.now(),
                    TraceData::Interrupted {
                        task,
                        emergency: cause == Cause::Emergency,
                        cause: mark,
                    },
                )
            }
        };
        // Unprocessed inputs go back to the queue for resumption.
        while let Some(part) = self.inputs.pop_front() {
            self.handle.note_interrupt_origin(part.meta().id, origin);
            self.handle.push_partition(part);
        }
        self.count(cause);
        self.handle.retire(self.instance, cx.now());
        Ok(())
    }

    /// The naïve baseline (§6.1): the thread dies without interrupt
    /// logic — partial output is discarded, the cursor resets, and the
    /// whole partition is reprocessed from scratch later.
    fn kill_restart(&mut self, cx: &mut WorkCx<'_>, cause: Cause) {
        self.release_spaces(cx);
        while let Some(mut part) = self.inputs.pop_front() {
            part.meta_mut().cursor = 0;
            self.handle.push_partition(part);
        }
        self.count(cause);
        self.handle.retire(self.instance, cx.now());
    }

    /// Counts an instance leaving through the interrupt path.
    fn count(&self, cause: Cause) {
        self.handle.stats_mut(|st| match cause {
            Cause::Scheduled => st.interrupts += 1,
            Cause::Emergency => st.emergency_interrupts += 1,
            Cause::Crash => st.crash_salvaged_instances += 1,
        });
    }

    /// A scheduled or emergency interrupt, as the step's outcome.
    fn interrupted(&mut self, cx: &mut WorkCx<'_>, cause: Cause) -> StepOutcome {
        match self.interrupt(cx, cause) {
            Ok(()) => StepOutcome::Finished,
            Err(e) => self.fail(cx, e),
        }
    }

    /// Retires the instance and dies with `err`.
    fn fail(&mut self, cx: &mut WorkCx<'_>, err: SimError) -> StepOutcome {
        self.handle.retire(self.instance, cx.now());
        StepOutcome::Failed(err)
    }

    /// Counts a failed activation of the front partition; whether it
    /// has now failed too often to ever fit.
    fn front_gives_up(&self) -> bool {
        self.inputs.front().is_some_and(|p| {
            self.handle.bump_activation_failure(p.meta().id) > MAX_ACTIVATION_FAILURES
        })
    }

    /// Activation failed (input would not fit): requeue everything and
    /// tell the IRS to reduce memory pressure before retrying.
    fn abort_activation(&mut self, cx: &mut WorkCx<'_>, err: SimError) -> StepOutcome {
        let needed = self
            .inputs
            .front()
            .map(|p| p.meta().mem_bytes)
            .unwrap_or(simcore::ByteSize::ZERO);
        self.handle.hint_pressure(needed);
        let give_up = self.front_gives_up();
        self.release_spaces(cx);
        if give_up {
            return self.fail(cx, err);
        }
        while let Some(part) = self.inputs.pop_front() {
            self.handle.push_partition(part);
        }
        self.handle.retire(self.instance, cx.now());
        StepOutcome::Finished
    }
}

impl Work for ItaskWorker {
    fn step(&mut self, cx: &mut WorkCx<'_>) -> StepOutcome {
        // Safe point: scheduler-requested interrupt.
        if self.handle.should_terminate(self.instance) {
            return self.interrupted(cx, Cause::Scheduled);
        }

        // Lazily materialize the front partition before touching it.
        if let Some(front) = self.inputs.front_mut() {
            if !front.meta().in_memory() {
                let pid = front.meta().id;
                match deserialize_partition(front.as_mut(), cx.node()) {
                    Ok((bytes, io_cost, rec)) => {
                        cx.charge(io_cost);
                        if !bytes.is_zero() {
                            self.handle.stats_mut(|st| {
                                st.deserializations += 1;
                                st.transient_io_retries += rec.transient_retries as u64;
                                st.corruption_recoveries += rec.corruption_rebuilds as u64;
                            });
                        }
                        if rec.corruption_rebuilds > 0 {
                            self.handle.emit(
                                cx.now(),
                                TraceData::CorruptionRecovered {
                                    partition: pid.as_u32(),
                                },
                            );
                        }
                    }
                    Err(e) if e.is_oom() => {
                        let needed = front.meta().mem_bytes;
                        self.handle.hint_pressure(needed);
                        return if self.initialized {
                            // Mid-group (MITask): accumulated state must
                            // be flushed, not dropped — interrupt.
                            self.interrupted(cx, Cause::Emergency)
                        } else {
                            self.abort_activation(cx, e)
                        };
                    }
                    Err(e) => return self.fail(cx, e),
                }
            }
        }

        self.ensure_spaces(cx);
        if !self.initialized {
            let tag = self.current_tag();
            let spaces = self.spaces.as_mut().expect("just ensured");
            let mut tcx = TaskCx::new(cx, &self.handle, self.task_id, tag, spaces, false);
            if let Err(e) = self.task.initialize(&mut tcx) {
                return self.fail(cx, e);
            }
            self.initialized = true;
        }

        // Process a batch from the front partition.
        if let Some(front) = self.inputs.front_mut() {
            let tag = front.meta().tag;
            let spaces = self.spaces.as_mut().expect("initialized implies spaces");
            let mut tcx = TaskCx::new(cx, &self.handle, self.task_id, tag, spaces, false);
            match self.task.process_batch(&mut tcx, front.as_mut()) {
                Ok(n) => self.handle.note_progress(self.instance, n),
                Err(e) if e.is_oom() => {
                    // The allocation raced ahead of the monitor: take an
                    // emergency self-interrupt instead of dying — unless
                    // this partition keeps failing even with the rest of
                    // the heap cleared, which means it can never fit.
                    if self.front_gives_up() {
                        return self.fail(cx, e);
                    }
                    self.handle.hint_pressure(simcore::ByteSize::ZERO);
                    return self.interrupted(cx, Cause::Emergency);
                }
                Err(e) => return self.fail(cx, e),
            }
            if front.meta().exhausted() {
                // Fully consumed: its heap space dies here.
                if let Some(space) = front.meta().space() {
                    cx.node().heap.release_space(space);
                }
                self.inputs.pop_front();
            }
        }

        if self.inputs.is_empty() {
            let spaces = self.spaces.as_mut().expect("initialized implies spaces");
            let mut tcx = TaskCx::new(cx, &self.handle, self.task_id, self.tag, spaces, false);
            if let Err(e) = self.task.cleanup(&mut tcx) {
                return self.fail(cx, e);
            }
            self.release_spaces(cx);
            self.handle.retire(self.instance, cx.now());
            StepOutcome::Finished
        } else {
            StepOutcome::Ran
        }
    }

    fn label(&self) -> String {
        format!(
            "{}[i{} {:?} tag{}]",
            self.task_id, self.instance, self.kind, self.tag.0
        )
    }

    fn salvage(&mut self, cx: &mut WorkCx<'_>) -> SimResult<()> {
        self.interrupt(cx, Cause::Crash)
    }
}
