//! The ITask Runtime System (IRS, paper §5): the per-node controller
//! tying together monitor, partition manager and scheduler, and the
//! shared state task instances interact with.
//!
//! An [`Irs`] controls one node. Between scheduling rounds the engine
//! calls [`Irs::tick`], which drains the node's GC records into the
//! monitor and handles the resulting signal:
//!
//! * `REDUCE` — ask the partition manager to serialize queued partitions
//!   (cheapest first by the retention rules), force a collection to
//!   materialize the released spaces, and if free memory is still below
//!   the `M%` target, mark a victim instance for cooperative interrupt;
//! * `GROW` — activate one more task instance (slow-start: one per tick)
//!   chosen by the spatial-locality and finish-line rules, up to the
//!   node's core count.

use std::any::Any;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use simcluster::NodeSim;
use simcore::tracer::{self, EventId, TraceData};
use simcore::{
    metrics, ByteSize, NodeId, PartitionId, SimDuration, SimResult, SimTime, TaskId, ThreadId,
};

use crate::graph::TaskGraph;
use crate::manager::{serialization_order, serialize_partition, SerializeMode};
use crate::monitor::{MemSignal, Monitor, SERIALIZE_FREE_PCT};
use crate::partition::PartitionBox;
use crate::queue::PartitionQueue;
use crate::scheduler::{pick_activation, pick_victim, Activation, RunningInstance, VictimPolicy};
use crate::stats::IrsStats;
use crate::worker::ItaskWorker;

/// A result that has left the ITask runtime (component 4(a) of Figure 1).
/// The framework (shuffle, HDFS writer, ...) decides where it goes.
pub struct FinalOutput {
    /// The task that produced it.
    pub from: TaskId,
    /// The payload (framework-interpreted).
    pub data: Box<dyn Any>,
    /// Heap bytes it occupied on the producing node (already released).
    pub mem_bytes: ByteSize,
    /// Serialized size (what shuffling it costs).
    pub ser_bytes: ByteSize,
}

/// How a victim instance is taken down (§6.1's naïve comparison).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum InterruptMode {
    /// The paper's design: run the task's interrupt logic, keep the
    /// cursor, release the processed prefix, requeue the remainder.
    #[default]
    Cooperative,
    /// The naïve baseline: kill the instance, drop its partial output,
    /// and reprocess the partition from scratch later.
    KillRestart,
}

/// IRS configuration.
#[derive(Clone, Copy, Debug)]
pub struct IrsConfig {
    /// Background-serialization hover target, percent of capacity
    /// effectively free (see [`Monitor`]).
    pub serialize_free_pct: u8,
    /// Where the partition manager serializes to (disk, or in-memory
    /// byte arrays).
    pub serialize_mode: SerializeMode,
    /// Maximum concurrently running instances (defaults to the node's
    /// core count — the paper's optimal point under an ample heap).
    pub max_parallelism: usize,
    /// Victim-selection policy (rules, or the naïve random baseline).
    pub victim_policy: VictimPolicy,
    /// Interrupt mechanism (cooperative, or the naïve kill-restart).
    pub interrupt_mode: InterruptMode,
    /// Allocation scope (owning service-layer job id) the IRS spawns its
    /// workers under, so multi-job heaps attribute every space to a job.
    pub scope: Option<u64>,
}

impl Default for IrsConfig {
    fn default() -> Self {
        IrsConfig {
            serialize_free_pct: SERIALIZE_FREE_PCT,
            serialize_mode: SerializeMode::Disk,
            max_parallelism: 8,
            victim_policy: VictimPolicy::Rules,
            interrupt_mode: InterruptMode::Cooperative,
            scope: None,
        }
    }
}

/// Instances activated per GROW tick under pressure (slow start, §5.1).
const GROW_PER_TICK: usize = 1;

/// State shared between the controller and its running task instances.
pub(crate) struct IrsShared {
    pub(crate) queue: PartitionQueue,
    pub(crate) running: BTreeMap<ThreadId, RunningInstance>,
    /// instance id → thread id (filled at spawn).
    pub(crate) instance_threads: BTreeMap<u64, ThreadId>,
    /// Threads marked for cooperative interrupt.
    pub(crate) terminate: BTreeSet<ThreadId>,
    pub(crate) final_outputs: Vec<FinalOutput>,
    pub(crate) stats: IrsStats,
    pub(crate) activation_failures: BTreeMap<PartitionId, u32>,
    /// Set by workers when an allocation failed (emergency interrupt or
    /// failed activation): forces a REDUCE at the next tick even if no
    /// LUGC record is pending. Carries the bytes the failed allocation
    /// needed, so the REDUCE can aim above the default `M%` target.
    pub(crate) pressure_hint: Option<ByteSize>,
    /// The runtime's configuration, read by the controller and by
    /// `emit_to_task`, which serializes intermediate partitions at birth
    /// when memory is tight (write-behind flavour of the partition
    /// manager's lazy serialization).
    pub(crate) cfg: IrsConfig,
    /// The `(node, scope)` origin stamped onto emitted events (the IRS
    /// refreshes it every tick, so decisions are attributed to the node
    /// the runtime is driving).
    pub(crate) origin: (Option<NodeId>, Option<u64>),
    /// Tracer id of the most recent REDUCE/GROW signal — the causal
    /// root victim-marks and pressure serializations link back to.
    pub(crate) last_signal: EventId,
    /// Victim-mark event per marked thread, consumed when the victim's
    /// interrupt completes (links interrupt → mark → signal).
    pub(crate) victim_marks: BTreeMap<ThreadId, EventId>,
    /// Interrupt event that requeued each partition, consumed when the
    /// partition re-activates (links re-activation → interrupt).
    pub(crate) interrupt_origin: BTreeMap<PartitionId, EventId>,
    next_partition: u32,
    next_instance: u64,
}

impl IrsShared {
    fn new(cfg: IrsConfig) -> Self {
        IrsShared {
            queue: PartitionQueue::new(),
            running: BTreeMap::new(),
            instance_threads: BTreeMap::new(),
            terminate: BTreeSet::new(),
            final_outputs: Vec::new(),
            stats: IrsStats::default(),
            activation_failures: BTreeMap::new(),
            pressure_hint: None,
            cfg,
            origin: (None, None),
            last_signal: EventId::NONE,
            victim_marks: BTreeMap::new(),
            interrupt_origin: BTreeMap::new(),
            next_partition: 0,
            next_instance: 0,
        }
    }
}

/// Cloneable handle to the shared IRS state. The controller (between
/// rounds) and the node's workers (during rounds) alias it at disjoint
/// times, never holding a borrow across a call into the other side.
#[derive(Clone)]
pub struct IrsHandle(pub(crate) Rc<RefCell<IrsShared>>);

impl IrsHandle {
    /// Allocates a fresh partition id.
    pub fn next_partition_id(&self) -> PartitionId {
        let mut s = self.0.borrow_mut();
        let id = PartitionId(s.next_partition);
        s.next_partition += 1;
        id
    }

    /// Enqueues a partition into the global partition queue.
    pub fn push_partition(&self, part: PartitionBox) {
        self.0.borrow_mut().queue.push(part);
    }

    /// Publishes a final output.
    pub fn push_final(&self, out: FinalOutput) {
        self.0.borrow_mut().final_outputs.push(out);
    }

    /// Records intermediate-result bytes for the Table 2 breakdown.
    pub fn note_intermediate(&self, bytes: ByteSize) {
        self.0.borrow_mut().stats.reclaim.intermediate_results += bytes;
    }

    /// Records a write-behind serialization.
    pub(crate) fn note_serialized_at_birth(&self, bytes: ByteSize) {
        let mut s = self.0.borrow_mut();
        s.stats.serializations += 1;
        s.stats.reclaim.lazy_serialized += bytes;
    }

    /// The one write path for IRS decisions: stamps the `(node, scope)`
    /// origin and emits into the run's trace stream, returning the event
    /// id for use as a cause downstream ([`EventId::NONE`] while the
    /// tracer is off). The metrics plane watches the same funnel: signal
    /// level as a gauge, interrupts/serializations as counters. Two
    /// relaxed loads when neither is armed.
    pub(crate) fn emit(&self, at: SimTime, data: TraceData) -> EventId {
        if !tracer::is_enabled() && !metrics::is_enabled() {
            return EventId::NONE;
        }
        let (node, scope) = self.0.borrow().origin;
        if metrics::is_enabled() {
            use metrics::Metric;
            match data {
                TraceData::Signal { reduce } => {
                    let delta = if reduce { -1 } else { 1 };
                    metrics::gauge_add(node, Metric::IrsSignal, at, delta);
                }
                TraceData::Interrupted { .. } => {
                    metrics::counter_add(node, Metric::IrsInterrupts, at, 1);
                }
                TraceData::Serialized { freed, .. } => {
                    metrics::counter_add(node, Metric::IrsSerialized, at, 1);
                    metrics::counter_add(node, Metric::IrsSerializedBytes, at, freed);
                }
                _ => {}
            }
        }
        tracer::emit(node, scope, at, SimDuration::ZERO, data)
    }

    /// Consumes the victim-mark event recorded for `instance`'s thread,
    /// if any (an interrupt links back to the mark that requested it).
    pub(crate) fn take_victim_mark(&self, instance: u64) -> EventId {
        let mut s = self.0.borrow_mut();
        let Some(thread) = s.instance_threads.get(&instance).copied() else {
            return EventId::NONE;
        };
        s.victim_marks.remove(&thread).unwrap_or(EventId::NONE)
    }

    /// Records that `interrupt` requeued `partition`, so the eventual
    /// re-activation can link back to it.
    pub(crate) fn note_interrupt_origin(&self, partition: PartitionId, interrupt: EventId) {
        if interrupt.is_some() {
            self.0
                .borrow_mut()
                .interrupt_origin
                .insert(partition, interrupt);
        }
    }

    /// Records final-result bytes for the Table 2 breakdown.
    pub fn note_final(&self, bytes: ByteSize) {
        self.0.borrow_mut().stats.reclaim.final_results += bytes;
    }

    pub(crate) fn note_local(&self, bytes: ByteSize) {
        self.0.borrow_mut().stats.reclaim.local_structs += bytes;
    }

    pub(crate) fn note_processed_input(&self, bytes: ByteSize) {
        self.0.borrow_mut().stats.reclaim.processed_input += bytes;
    }

    pub(crate) fn next_instance_id(&self) -> u64 {
        let mut s = self.0.borrow_mut();
        let id = s.next_instance;
        s.next_instance += 1;
        id
    }

    /// Whether the scheduler asked this instance to interrupt itself.
    pub(crate) fn should_terminate(&self, instance: u64) -> bool {
        let s = self.0.borrow();
        s.instance_threads
            .get(&instance)
            .map(|t| s.terminate.contains(t))
            .unwrap_or(false)
    }

    /// Adds scale-loop progress to an instance (speed rule input).
    pub(crate) fn note_progress(&self, instance: u64, units: u64) {
        let mut s = self.0.borrow_mut();
        if let Some(&thread) = s.instance_threads.get(&instance) {
            if let Some(r) = s.running.get_mut(&thread) {
                r.recent_progress += units;
            }
        }
    }

    /// Retires an instance (finished, interrupted or failed) — the
    /// single funnel every instance leaves through, so the stream's
    /// `Retired` events pair off with its `Activated` ones.
    pub(crate) fn retire(&self, instance: u64, at: SimTime) {
        let mut s = self.0.borrow_mut();
        let Some(thread) = s.instance_threads.remove(&instance) else {
            return;
        };
        s.terminate.remove(&thread);
        let retired = s.running.remove(&thread);
        drop(s);
        if let Some(task) = retired.map(|r| r.task.as_u32()) {
            self.emit(at, TraceData::Retired { task });
        }
    }

    /// Bumps and returns the failed-activation count of a partition.
    pub(crate) fn bump_activation_failure(&self, id: PartitionId) -> u32 {
        let mut s = self.0.borrow_mut();
        s.stats.failed_activations += 1;
        let c = s.activation_failures.entry(id).or_insert(0);
        *c += 1;
        *c
    }

    pub(crate) fn stats_mut<R>(&self, f: impl FnOnce(&mut IrsStats) -> R) -> R {
        f(&mut self.0.borrow_mut().stats)
    }

    /// A worker hit an allocation failure: force a REDUCE next tick,
    /// aiming to free at least `needed` bytes (zero = default target).
    pub(crate) fn hint_pressure(&self, needed: ByteSize) {
        let mut s = self.0.borrow_mut();
        let cur = s.pressure_hint.unwrap_or(ByteSize::ZERO);
        s.pressure_hint = Some(cur.max(needed));
    }

    /// Records partitions re-homed onto this node after a peer crash
    /// (fault-injection runs; called by the engine's recovery path).
    pub fn note_crash_requeued(&self, n: u64) {
        self.0.borrow_mut().stats.crash_requeued_partitions += n;
    }
}

/// The per-node IRS controller.
pub struct Irs {
    handle: IrsHandle,
    graph: Rc<TaskGraph>,
    monitor: Monitor,
}

impl Irs {
    /// Creates an IRS over a task graph.
    pub fn new(graph: TaskGraph, cfg: IrsConfig) -> Self {
        Irs {
            handle: IrsHandle(Rc::new(RefCell::new(IrsShared::new(cfg)))),
            graph: Rc::new(graph),
            monitor: Monitor::new(cfg.serialize_free_pct),
        }
    }

    /// The configuration the runtime was built with.
    fn cfg(&self) -> IrsConfig {
        self.handle.0.borrow().cfg
    }

    /// The shared handle (what tasks and engines use to enqueue work).
    pub fn handle(&self) -> IrsHandle {
        self.handle.clone()
    }

    /// The task graph.
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// Runtime statistics so far.
    pub fn stats(&self) -> IrsStats {
        self.handle.0.borrow().stats
    }

    /// Monitor statistics so far.
    pub fn monitor_stats(&self) -> crate::monitor::MonitorStats {
        self.monitor.stats()
    }

    /// The monitor's most recent memory signal (`Steady` before the
    /// first observation). Admission controllers consult this before
    /// co-locating another job on the same heap.
    pub fn memory_signal(&self) -> MemSignal {
        self.monitor.last_signal().unwrap_or(MemSignal::Steady)
    }

    /// Queued partition count.
    pub fn queued(&self) -> usize {
        self.handle.0.borrow().queue.len()
    }

    /// Running instance count.
    pub fn running(&self) -> usize {
        self.handle.0.borrow().running.len()
    }

    /// Whether the runtime has no queued partitions and no running
    /// instances (the engine decides if more input is coming).
    pub fn is_idle(&self) -> bool {
        let s = self.handle.0.borrow();
        s.queue.is_empty() && s.running.is_empty()
    }

    /// Takes the final outputs published since the last call.
    pub fn take_final_outputs(&mut self) -> Vec<FinalOutput> {
        std::mem::take(&mut self.handle.0.borrow_mut().final_outputs)
    }

    /// Requests an early REDUCE on the next tick, aiming to free at
    /// least `needed` bytes (`ByteSize::ZERO` = the default target).
    ///
    /// This is the operator-facing deflation hook: a service under
    /// sustained cluster-wide pressure (brownout mode) forces queued
    /// partitions out to disk *before* the heap walks into the full-GC
    /// cliff, instead of waiting for the monitor to cross its own
    /// thresholds. Internally it shares the pressure-hint path that
    /// workers use after allocation failures, so the forced REDUCE is
    /// indistinguishable from an organic one downstream.
    pub fn request_reduce(&self, needed: ByteSize) {
        self.handle.hint_pressure(needed);
    }

    /// Drains every queued partition (crash recovery: after the node
    /// died and its live instances were salvaged, the engine re-homes
    /// the whole queue onto surviving nodes).
    pub fn drain_queue(&mut self) -> Vec<PartitionBox> {
        self.handle.0.borrow_mut().queue.drain_all()
    }

    /// The controller step: call between scheduling rounds.
    pub fn tick(&mut self, sim: &mut NodeSim) -> SimResult<()> {
        let records = sim.node_mut().drain_gc_records();
        let mut signal = self.monitor.observe(&records, &sim.node().heap);
        let hint = {
            let mut s = self.handle.0.borrow_mut();
            s.origin = (Some(sim.node().id), s.cfg.scope);
            s.pressure_hint.take()
        };
        if hint.is_some() {
            signal = MemSignal::Reduce;
        }
        match signal {
            MemSignal::Reduce => {
                let id = self
                    .handle
                    .emit(sim.node().now, TraceData::Signal { reduce: true });
                self.handle.0.borrow_mut().last_signal = id;
                self.handle_reduce(sim, hint.unwrap_or(ByteSize::ZERO))?;
            }
            MemSignal::Grow => {
                let id = self
                    .handle
                    .emit(sim.node().now, TraceData::Signal { reduce: false });
                self.handle.0.borrow_mut().last_signal = id;
                self.handle_grow(sim)?;
            }
            MemSignal::Steady => self.assist_growth(sim)?,
        }
        // Starvation guard: at least one instance must always run while
        // work remains (the warm-up phase of §5.1 starts with one thread
        // regardless of thresholds). A full collection first gives the
        // activation the best chance to fit.
        if signal != MemSignal::Grow {
            let starved = {
                let s = self.handle.0.borrow();
                s.running.is_empty() && !s.queue.is_empty()
            };
            if starved {
                let choice = {
                    let s = self.handle.0.borrow();
                    pick_activation(&s.queue, &self.graph, &s.running)
                };
                if let Some(act) = choice {
                    self.activate(sim, act);
                    self.handle.stats_mut(|st| st.grows += 1);
                }
            }
        }
        // The speed rule measures progress between monitor checks: reset.
        {
            let mut s = self.handle.0.borrow_mut();
            for r in s.running.values_mut() {
                r.recent_progress = 0;
            }
            let live = s.running.len() as u64;
            s.stats.peak_instances = s.stats.peak_instances.max(live);
        }
        Ok(())
    }

    fn handle_reduce(&mut self, sim: &mut NodeSim, needed: ByteSize) -> SimResult<()> {
        // Serialization is cheap, so it aims for the GROW threshold
        // (`N%`): after a REDUCE the system should be able to re-grow
        // rather than idle in the `M%..N%` dead zone. Interrupting live
        // instances stays reserved for the `M%` emergency line below.
        // A failed allocation raises the target so the blocked
        // activation can fit with headroom.
        let target = self
            .monitor
            .serialize_target(&sim.node().heap)
            .max(needed.mul_ratio(5, 2));
        // Stage 1: lazy serialization of queued partitions.
        let cause = self.handle.0.borrow().last_signal;
        self.serialize_until(sim, target, cause)?;
        // Stage 2: if still under the emergency line (`M%`, or the
        // blocked allocation), mark one victim for interrupt.
        let victim_line = self
            .monitor
            .reduce_target(&sim.node().heap)
            .max(needed.mul_ratio(5, 2));
        if sim.node().heap.effective_free() < victim_line {
            let marked = {
                let mut s = self.handle.0.borrow_mut();
                let candidates: BTreeMap<ThreadId, RunningInstance> = s
                    .running
                    .iter()
                    .filter(|(t, _)| !s.terminate.contains(t))
                    .map(|(t, r)| (*t, r.clone()))
                    .collect();
                pick_victim(&candidates, &self.graph, s.cfg.victim_policy).map(|victim| {
                    s.terminate.insert(victim);
                    (victim, candidates[&victim].task.as_u32(), s.last_signal)
                })
            };
            if let Some((victim, task, cause)) = marked {
                let mark = self
                    .handle
                    .emit(sim.node().now, TraceData::VictimMarked { task, cause });
                if mark.is_some() {
                    let mut s = self.handle.0.borrow_mut();
                    s.victim_marks.insert(victim, mark);
                }
            }
        }
        Ok(())
    }

    /// Lazily serializes queued partitions in retention order (§5.3)
    /// until effective free memory reaches `target`. All policy
    /// arithmetic uses *effective* free (capacity − live): serialization
    /// turns live bytes into garbage, and the next allocation-triggered
    /// collection reclaims it — forcing collections here would only add
    /// pauses. `cause` is the REDUCE signal that drove it, none in
    /// steady state.
    fn serialize_until(
        &mut self,
        sim: &mut NodeSim,
        target: ByteSize,
        cause: EventId,
    ) -> SimResult<()> {
        let order = {
            let s = self.handle.0.borrow();
            let running_tasks: Vec<TaskId> = s.running.values().map(|r| r.task).collect();
            serialization_order(&s.queue, &self.graph, &running_tasks, sim.node().now)
        };
        for pid in order {
            if sim.node().heap.effective_free() >= target {
                break;
            }
            let freed = {
                let mut s = self.handle.0.borrow_mut();
                let mode = s.cfg.serialize_mode;
                let Some(part) = s.queue.get_mut(pid) else {
                    continue;
                };
                serialize_partition(part.as_mut(), sim.node_mut(), mode)?
            };
            if freed.is_zero() {
                continue;
            }
            self.handle.stats_mut(|st| {
                st.serializations += 1;
                st.reclaim.lazy_serialized += freed;
            });
            self.handle.emit(
                sim.node().now,
                TraceData::Serialized {
                    partition: pid.as_u32(),
                    freed: freed.as_u64(),
                    cause,
                },
            );
        }
        Ok(())
    }

    /// Steady-state unjamming: when growth is blocked only because
    /// queued partitions pin the live set, serialize the coldest ones
    /// (temporal-locality / finish-line order) until growth is possible
    /// again. Running instances outrank parked intermediates — the
    /// retention rules of §5.3 applied proactively.
    fn assist_growth(&mut self, sim: &mut NodeSim) -> SimResult<()> {
        let threshold = self.monitor.serialize_target(&sim.node().heap);
        let grow_gate = self.monitor.grow_threshold(&sim.node().heap);
        {
            let s = self.handle.0.borrow();
            if s.queue.is_empty() {
                return Ok(());
            }
            let parked = s.queue.in_memory_bytes();
            let free = sim.node().heap.effective_free();
            if free >= threshold || free + parked < grow_gate {
                return Ok(());
            }
        }
        self.serialize_until(sim, threshold, EventId::NONE)?;
        if sim.node().heap.effective_free() >= grow_gate {
            self.handle_grow(sim)?;
        }
        Ok(())
    }

    fn handle_grow(&mut self, sim: &mut NodeSim) -> SimResult<()> {
        // Slow start under pressure, but fill idle cores immediately
        // when more than half the heap is effectively free — a ramp of
        // one instance per 100us tick would dominate short jobs.
        let heap = &sim.node().heap;
        let roomy = heap.effective_free() >= heap.capacity().mul_ratio(1, 2);
        let max_parallelism = self.cfg().max_parallelism;
        let burst = if roomy {
            max_parallelism
        } else {
            GROW_PER_TICK
        };
        for _ in 0..burst {
            {
                let s = self.handle.0.borrow();
                if s.running.len() >= max_parallelism {
                    return Ok(());
                }
            }
            let choice = {
                let s = self.handle.0.borrow();
                pick_activation(&s.queue, &self.graph, &s.running)
            };
            let Some(act) = choice else { return Ok(()) };
            self.activate(sim, act);
            self.handle.stats_mut(|st| st.grows += 1);
        }
        Ok(())
    }

    fn activate(&mut self, sim: &mut NodeSim, act: Activation) {
        let (task_id, parts, tag, cause) = {
            let mut s = self.handle.0.borrow_mut();
            match act {
                Activation::Single(task, pid) => {
                    let part = s.queue.take(pid).expect("activation raced with queue");
                    let tag = part.meta().tag;
                    // Re-activations link back to the interrupt that
                    // requeued this partition (Figure 3's arrows).
                    let cause = s.interrupt_origin.remove(&pid).unwrap_or(EventId::NONE);
                    (task, VecDeque::from([part]), tag, cause)
                }
                Activation::Group(task, tag) => {
                    let group = s.queue.take_group(task, tag);
                    assert!(!group.is_empty(), "empty tag group activation");
                    let mut cause = EventId::NONE;
                    for part in &group {
                        if let Some(id) = s.interrupt_origin.remove(&part.meta().id) {
                            if !cause.is_some() {
                                cause = id;
                            }
                        }
                    }
                    (task, VecDeque::from(group), tag, cause)
                }
            }
        };
        let desc = self.graph.desc(task_id);
        let n_parts = parts.len();
        let now = sim.node().now;
        let cfg = self.cfg();
        let worker = ItaskWorker::new(
            self.handle.clone(),
            task_id,
            desc.kind,
            tag,
            desc.instantiate(),
            parts,
            cfg.interrupt_mode,
        );
        let instance = worker.instance_id();
        let kind = desc.kind;
        let thread = sim.spawn_scoped(Box::new(worker), cfg.scope);
        self.handle.emit(
            now,
            TraceData::Activated {
                task: task_id.as_u32(),
                partitions: n_parts as u32,
                cause,
            },
        );
        let mut s = self.handle.0.borrow_mut();
        s.instance_threads.insert(instance, thread);
        s.running.insert(
            thread,
            RunningInstance {
                thread,
                task: task_id,
                kind,
                tag,
                recent_progress: 0,
            },
        );
    }

    /// Drives the node until the runtime is idle or a thread fails.
    ///
    /// Convenience for single-node programs and tests; multi-node engines
    /// interleave `tick`/`run_round` across nodes themselves.
    pub fn run_to_idle(&mut self, sim: &mut NodeSim) -> SimResult<()> {
        let mut stream_seq = 0u64;
        // Generous bound: a stuck runtime is a simulator bug.
        for _ in 0..10_000_000u64 {
            self.tick(sim)?;
            if self.is_idle() {
                return Ok(());
            }
            let round = simcluster::run_solo_round(sim, &mut stream_seq);
            // A failing instance has already left through `retire`.
            if let Some((_, err)) = round.failed.into_iter().next() {
                return Err(err);
            }
        }
        Err(simcore::SimError::Internal(
            "IRS failed to reach idle".into(),
        ))
    }
}
