//! The per-node quantum scheduler.
//!
//! Each scheduling *round* steps every runnable thread once with a CPU
//! quantum, then advances the node clock by the processor-sharing wall
//! time of the round: `max(longest step, ceil(total CPU / cores))`.
//! GC pauses are stop-the-world and advance the clock directly as they
//! happen (inside [`crate::node::NodeState::alloc`]).
//!
//! A retired slot owns nothing: the moment a thread finishes, fails, is
//! killed or crashes, its `Work` body is dropped (after its
//! [`Work::salvage`], for a crash) and the slot keeps only its id,
//! state and scope. Slots are never removed, so a thread's id is its
//! index in the table for the whole life of the [`NodeSim`].

use std::collections::BTreeMap;

use simcore::{metrics, tracer, SimDuration, SimError, SimResult, ThreadId};

use crate::node::{NodeState, WorkCx};
use crate::work::{StepOutcome, Work};

/// Scheduling state of a thread slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadState {
    /// Will be stepped next round.
    Runnable,
    /// Polled each round but last reported `Waiting`.
    Waiting,
    /// Completed; slot retired.
    Finished,
    /// Died with an error; slot retired.
    Failed,
}

struct ThreadSlot {
    id: ThreadId,
    work: Box<dyn Work>,
    state: ThreadState,
    /// Owning allocation scope (job id), if spawned via
    /// [`NodeSim::spawn_scoped`]. Heap spaces created while this thread
    /// steps are attributed to it.
    scope: Option<u64>,
}

impl ThreadSlot {
    fn is_live(&self) -> bool {
        matches!(self.state, ThreadState::Runnable | ThreadState::Waiting)
    }

    /// Retires the slot in `state` and returns its body, leaving the
    /// zero-sized [`Retired`] behind: whatever host memory the work
    /// owned goes with the returned box, not with the `NodeSim`.
    fn retire(&mut self, state: ThreadState) -> Box<dyn Work> {
        self.state = state;
        std::mem::replace(&mut self.work, Box::new(Retired))
    }
}

/// The body of a retired slot. Zero-sized, so boxing it allocates
/// nothing; never stepped (the slot is `Finished` or `Failed`).
struct Retired;

impl Work for Retired {
    fn step(&mut self, _cx: &mut WorkCx<'_>) -> StepOutcome {
        StepOutcome::Failed(SimError::Internal("stepped a retired thread".into()))
    }

    fn label(&self) -> String {
        "retired".into()
    }
}

/// What happened in one scheduling round.
#[derive(Debug, Default)]
pub struct RoundReport {
    /// Threads stepped this round.
    pub stepped: usize,
    /// Wall-clock advancement of the round (excluding GC pauses).
    pub wall: SimDuration,
    /// Threads that finished this round.
    pub finished: Vec<ThreadId>,
    /// Threads that failed this round, with their errors.
    pub failed: Vec<(ThreadId, SimError)>,
}

impl RoundReport {
    /// Whether any thread made progress or changed state.
    pub fn idle(&self) -> bool {
        self.stepped == 0
    }
}

/// A node plus its simulated threads.
pub struct NodeSim {
    node: NodeState,
    threads: Vec<ThreadSlot>,
    next_thread: u32,
    quantum: SimDuration,
    crashed: bool,
    /// CPU time consumed per allocation scope, harvested (and reset)
    /// via [`Self::take_scope_cpu`]. A job's own consumption, as
    /// opposed to its wall-clock residency on the node.
    scope_cpu: BTreeMap<u64, SimDuration>,
    /// Runnable-thread count last emitted into the tracer; quantum
    /// events fire only when the count changes.
    last_traced_threads: usize,
    /// Runnable-thread count last emitted as a metrics gauge (separate
    /// cursor: the two planes arm independently).
    last_metered_threads: usize,
    /// Quanta stepped since the last metrics flush; emitted as one
    /// counter add per cadence cell instead of one per round.
    pending_quanta: u64,
    /// The cadence cell heap/quanta metrics last flushed in.
    last_metric_cell: Option<u64>,
}

impl NodeSim {
    /// Default scheduling quantum. Fine enough that a typical 128KiB
    /// partition spans several steps — interrupt latency and monitor
    /// reaction time are bounded by one quantum.
    pub const DEFAULT_QUANTUM: SimDuration = SimDuration::from_micros(100);

    /// Wraps a node with an empty thread table.
    pub fn new(node: NodeState) -> Self {
        NodeSim {
            node,
            threads: Vec::new(),
            next_thread: 0,
            quantum: Self::DEFAULT_QUANTUM,
            crashed: false,
            scope_cpu: BTreeMap::new(),
            last_traced_threads: usize::MAX,
            last_metered_threads: usize::MAX,
            pending_quanta: 0,
            last_metric_cell: None,
        }
    }

    /// Whether this node has crashed (see [`NodeSim::crash`]).
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Crashes the node: every live thread dies mid-step and the disk
    /// loses all files. The dead threads' bodies are then salvaged in
    /// slot order ([`Work::salvage`]) on the dead node's context, so
    /// recoverable state is back with its owner before the engine
    /// re-homes it. The first salvage error stops the salvage and is
    /// returned; the node is down and every slot retired either way. A
    /// crashed node never runs another round.
    pub fn crash(&mut self) -> SimResult<()> {
        self.crashed = true;
        if tracer::is_enabled() {
            tracer::emit(
                Some(self.node.id),
                None,
                self.node.now,
                SimDuration::ZERO,
                tracer::TraceData::NodeCrash,
            );
        }
        self.node.disk.purge();
        let dead: Vec<Box<dyn Work>> = self
            .threads
            .iter_mut()
            .filter(|slot| slot.is_live())
            .map(|slot| slot.retire(ThreadState::Failed))
            .collect();
        let mut cx = WorkCx::new(&mut self.node, SimDuration::ZERO);
        dead.into_iter()
            .try_for_each(|mut work| work.salvage(&mut cx))
    }

    /// Read access to the node.
    pub fn node(&self) -> &NodeState {
        &self.node
    }

    /// Mutable access to the node (controllers use this between rounds).
    pub fn node_mut(&mut self) -> &mut NodeState {
        &mut self.node
    }

    /// Spawns a simulated thread; it will be stepped from the next round.
    pub fn spawn(&mut self, work: Box<dyn Work>) -> ThreadId {
        self.spawn_scoped(work, None)
    }

    /// Spawns a thread owned by an allocation scope (a service-layer job
    /// id). While the thread steps, the heap's alloc scope is set to it,
    /// so spaces created anywhere down the call chain are attributed to
    /// the owning job; [`NodeSim::thread_scope`] maps failures back.
    pub fn spawn_scoped(&mut self, work: Box<dyn Work>, scope: Option<u64>) -> ThreadId {
        let id = ThreadId(self.next_thread);
        // By-id lookups index the table: ids are dense, in spawn order.
        debug_assert_eq!(id.0 as usize, self.threads.len());
        self.next_thread += 1;
        self.threads.push(ThreadSlot {
            id,
            work,
            state: ThreadState::Runnable,
            scope,
        });
        id
    }

    /// The allocation scope a thread was spawned under, if any.
    pub fn thread_scope(&self, id: ThreadId) -> Option<u64> {
        self.slot(id).and_then(|t| t.scope)
    }

    /// The slot of `id`: its index in the table (see `spawn_scoped`).
    fn slot(&self, id: ThreadId) -> Option<&ThreadSlot> {
        self.threads.get(id.0 as usize)
    }

    fn slot_mut(&mut self, id: ThreadId) -> Option<&mut ThreadSlot> {
        self.threads.get_mut(id.0 as usize)
    }

    /// Kills every live thread spawned under `scope` (job teardown).
    /// Returns how many were killed.
    pub fn kill_scope(&mut self, scope: u64) -> usize {
        let mut killed = 0;
        for t in &mut self.threads {
            if t.scope == Some(scope) && t.is_live() {
                drop(t.retire(ThreadState::Failed));
                killed += 1;
            }
        }
        killed
    }

    /// CPU time threads of `scope` have consumed on this node since the
    /// scope's last harvest. Removes the counter: scopes identify jobs
    /// and are never reused, so a settled scope's slot would otherwise
    /// linger for the rest of a long service run.
    pub fn take_scope_cpu(&mut self, scope: u64) -> SimDuration {
        self.scope_cpu.remove(&scope).unwrap_or(SimDuration::ZERO)
    }

    /// Number of live threads spawned under `scope`.
    pub fn live_count_in_scope(&self, scope: u64) -> usize {
        self.threads
            .iter()
            .filter(|t| t.scope == Some(scope) && t.is_live())
            .count()
    }

    /// Kills a thread outright (the naïve baseline of §6.1; ITask proper
    /// interrupts cooperatively instead). Returns whether it existed.
    pub fn kill(&mut self, id: ThreadId) -> bool {
        match self.slot_mut(id) {
            Some(t) if t.is_live() => {
                drop(t.retire(ThreadState::Failed));
                true
            }
            _ => false,
        }
    }

    /// The state of a thread, if it exists.
    pub fn thread_state(&self, id: ThreadId) -> Option<ThreadState> {
        self.slot(id).map(|t| t.state)
    }

    /// Number of live threads.
    pub fn live_count(&self) -> usize {
        self.threads.iter().filter(|t| t.is_live()).count()
    }

    /// Runs one scheduling round: steps every live thread once, then
    /// advances the node clock by the round's processor-sharing wall time.
    ///
    /// If every live thread is `Waiting`, the clock advances by one
    /// quantum (an idle tick) so pollers eventually make progress.
    pub fn run_round(&mut self) -> RoundReport {
        let mut report = RoundReport::default();
        if self.crashed {
            return report;
        }
        let mut max_used = SimDuration::ZERO;
        let mut sum_used = SimDuration::ZERO;
        let mut any_ran = false;

        for i in 0..self.threads.len() {
            if !self.threads[i].is_live() {
                continue;
            }
            let outcome = {
                // Attribute heap spaces created during this step to the
                // thread's owning job (multi-tenant accounting).
                self.node.heap.set_alloc_scope(self.threads[i].scope);
                let mut cx = WorkCx::new(&mut self.node, self.quantum);
                let outcome = self.threads[i].work.step(&mut cx);
                let used = cx.used();
                max_used = max_used.max(used);
                sum_used += used;
                if let Some(scope) = self.threads[i].scope {
                    *self.scope_cpu.entry(scope).or_insert(SimDuration::ZERO) += used;
                }
                outcome
            };
            report.stepped += 1;
            let slot = &mut self.threads[i];
            match outcome {
                StepOutcome::Ran => {
                    slot.state = ThreadState::Runnable;
                    any_ran = true;
                }
                StepOutcome::Waiting => slot.state = ThreadState::Waiting,
                StepOutcome::Finished => {
                    drop(slot.retire(ThreadState::Finished));
                    report.finished.push(slot.id);
                    any_ran = true;
                }
                StepOutcome::Failed(err) => {
                    drop(slot.retire(ThreadState::Failed));
                    report.failed.push((slot.id, err));
                    any_ran = true;
                }
            }
        }

        self.node.heap.set_alloc_scope(None);

        // Processor sharing: the round's wall time is bounded below by the
        // longest single step and by total CPU spread over the cores.
        let cores = self.node.cores.max(1) as u64;
        let shared = SimDuration::from_nanos(sum_used.as_nanos().div_ceil(cores));
        let mut wall = max_used.max(shared);
        if report.stepped > 0 && !any_ran && wall.is_zero() {
            // All waiting: idle tick.
            wall = self.quantum;
        }
        self.node.now += wall;
        self.node.compute_time += max_used.max(shared);
        report.wall = wall;
        self.observe_round(report.stepped);
        report
    }

    /// The round's instrumentation: the runnable-thread curve and the
    /// per-cell heap gauges. Two relaxed loads when nothing is armed.
    fn observe_round(&mut self, stepped: usize) {
        if !tracer::is_enabled() && !metrics::is_enabled() {
            return;
        }
        let running = self
            .threads
            .iter()
            .filter(|t| t.state == ThreadState::Runnable)
            .count();
        // Trace the thread-count curve on *change* only, so quiescent
        // rounds contribute no events (Figure-11-style traces stay
        // readable and the dump stays small).
        if tracer::is_enabled() && running != self.last_traced_threads {
            self.last_traced_threads = running;
            tracer::emit(
                Some(self.node.id),
                None,
                self.node.now,
                SimDuration::ZERO,
                tracer::TraceData::ThreadQuantum {
                    running: running as u32,
                },
            );
        }
        if metrics::is_enabled() {
            use metrics::Metric;
            let node = Some(self.node.id);
            // Runnable-thread gauge: change-driven, like the trace twin.
            if running != self.last_metered_threads {
                self.last_metered_threads = running;
                metrics::gauge_set(node, Metric::SchedRunnable, self.node.now, running as i64);
            }
            // Quanta and heap occupancy batch per cadence cell —
            // per-round emission would swamp the buffers on long runs.
            // A run's final partial cell is deliberately unflushed.
            self.pending_quanta += stepped as u64;
            let cell = metrics::cell_of(self.node.now);
            if Some(cell) != self.last_metric_cell {
                self.last_metric_cell = Some(cell);
                if self.pending_quanta > 0 {
                    metrics::counter_add(
                        node,
                        Metric::SchedQuanta,
                        self.node.now,
                        std::mem::take(&mut self.pending_quanta),
                    );
                }
                let cap = self.node.heap.capacity().as_u64();
                let used = self.node.heap.used().as_u64();
                metrics::gauge_set(node, Metric::MemHeapBytes, self.node.now, cap as i64);
                metrics::gauge_set(
                    node,
                    Metric::MemFreeBytes,
                    self.node.now,
                    (cap - used) as i64,
                );
                metrics::gauge_set(node, Metric::MemLiveBytes, self.node.now, used as i64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;
    use simcore::{ByteSize, CostModel, NodeId, SpaceId};

    /// A thread that burns CPU to process `tuples` synthetic tuples,
    /// allocating `bytes_per_tuple` each.
    struct Crunch {
        space: Option<SpaceId>,
        tuples: u64,
        bytes_per_tuple: u64,
    }

    impl Work for Crunch {
        fn step(&mut self, cx: &mut WorkCx<'_>) -> StepOutcome {
            let space = match self.space {
                Some(s) => s,
                None => {
                    let s = cx.create_space("crunch");
                    self.space = Some(s);
                    s
                }
            };
            let per_tuple = CostModel::tuple_cost(ByteSize(64));
            while self.tuples > 0 && !cx.out_of_quantum() {
                cx.charge(per_tuple);
                if let Err(e) = cx.alloc(space, ByteSize(self.bytes_per_tuple)) {
                    return StepOutcome::Failed(e);
                }
                self.tuples -= 1;
            }
            if self.tuples == 0 {
                StepOutcome::Finished
            } else {
                StepOutcome::Ran
            }
        }

        fn label(&self) -> String {
            "crunch".into()
        }
    }

    fn crunch(tuples: u64, bytes_per_tuple: u64) -> Box<dyn Work> {
        Box::new(Crunch {
            space: None,
            tuples,
            bytes_per_tuple,
        })
    }

    fn sim(cores: usize, heap_mib: u64) -> NodeSim {
        NodeSim::new(NodeState::new(
            NodeId(0),
            cores,
            ByteSize::mib(heap_mib),
            ByteSize::mib(256),
        ))
    }

    fn run_to_completion(sim: &mut NodeSim) -> (Vec<ThreadId>, Vec<(ThreadId, SimError)>) {
        let mut finished = Vec::new();
        let mut failed = Vec::new();
        for _ in 0..1_000_000 {
            if sim.live_count() == 0 {
                break;
            }
            let r = sim.run_round();
            finished.extend(r.finished);
            failed.extend(r.failed);
        }
        (finished, failed)
    }

    #[test]
    fn single_thread_finishes_and_advances_clock() {
        let mut s = sim(8, 64);
        let id = s.spawn(crunch(10_000, 16));
        let (fin, fail) = run_to_completion(&mut s);
        assert_eq!(fin, vec![id]);
        assert!(fail.is_empty());
        assert!(s.node().now.as_nanos() > 0);
        assert_eq!(s.thread_state(id), Some(ThreadState::Finished));
    }

    #[test]
    fn parallel_threads_share_cores() {
        // 1 core: two identical threads take ~2x the wall time of one.
        let mut one = sim(1, 64);
        one.spawn(crunch(20_000, 8));
        run_to_completion(&mut one);
        let t_one = one.node().now;

        let mut two = sim(1, 64);
        two.spawn(crunch(20_000, 8));
        two.spawn(crunch(20_000, 8));
        run_to_completion(&mut two);
        let t_two = two.node().now;

        let ratio = t_two.as_nanos() as f64 / t_one.as_nanos() as f64;
        assert!((1.7..=2.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn more_cores_speed_up_parallel_work() {
        let mut narrow = sim(1, 64);
        for _ in 0..8 {
            narrow.spawn(crunch(10_000, 8));
        }
        run_to_completion(&mut narrow);

        let mut wide = sim(8, 64);
        for _ in 0..8 {
            wide.spawn(crunch(10_000, 8));
        }
        run_to_completion(&mut wide);

        let speedup = narrow.node().now.as_nanos() as f64 / wide.node().now.as_nanos() as f64;
        assert!(speedup > 4.0, "speedup {speedup}");
    }

    #[test]
    fn heap_exhaustion_fails_the_thread_not_the_simulator() {
        // 2MiB heap, thread wants ~12MiB live.
        let mut s = sim(8, 2);
        let id = s.spawn(crunch(200_000, 64));
        let (fin, fail) = run_to_completion(&mut s);
        assert!(fin.is_empty());
        assert_eq!(fail.len(), 1);
        assert_eq!(fail[0].0, id);
        assert!(fail[0].1.is_oom());
        // GC was attempted before dying.
        assert!(s.node().heap.stats().full_count > 0);
        assert!(s.node().gc_time > SimDuration::ZERO);
    }

    #[test]
    fn kill_retires_a_thread() {
        let mut s = sim(8, 64);
        let id = s.spawn(crunch(1_000_000, 8));
        s.run_round();
        assert!(s.kill(id));
        assert!(!s.kill(id));
        assert_eq!(s.thread_state(id), Some(ThreadState::Failed));
        assert_eq!(s.live_count(), 0);
    }

    /// The tracer's arming flag is process-wide: the tests here that
    /// flip it take turns.
    static TRACER: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// A body that keeps running (`then` 0), finishes (1) or dies (2);
    /// its salvage logs its `name` into `log` and, as a
    /// `CrashSalvaged` event, into the trace, and fails if `fails`.
    struct Salvaged {
        name: u32,
        then: u8,
        fails: bool,
        log: Rc<RefCell<Vec<u32>>>,
    }

    impl Work for Salvaged {
        fn step(&mut self, _cx: &mut WorkCx<'_>) -> StepOutcome {
            match self.then {
                0 => StepOutcome::Ran,
                1 => StepOutcome::Finished,
                _ => StepOutcome::Failed(SimError::Internal("died".into())),
            }
        }

        fn label(&self) -> String {
            "salvaged".into()
        }

        fn salvage(&mut self, cx: &mut WorkCx<'_>) -> SimResult<()> {
            self.log.borrow_mut().push(self.name);
            let data = tracer::TraceData::CrashSalvaged { task: self.name };
            tracer::emit(Some(cx.node().id), None, cx.now(), SimDuration::ZERO, data);
            match self.fails {
                true => Err(SimError::Internal(format!("salvage {}", self.name))),
                false => Ok(()),
            }
        }
    }

    /// A node that ran one round of a [`Salvaged`] per `(then, fails)`,
    /// named by slot, and then spilled a file; and the salvage log.
    fn crashing(bodies: &[(u8, bool)]) -> (NodeSim, Rc<RefCell<Vec<u32>>>) {
        let mut s = sim(8, 64);
        let log = Rc::new(RefCell::new(Vec::new()));
        for (name, &(then, fails)) in (0..).zip(bodies) {
            let log = log.clone();
            s.spawn(Box::new(Salvaged {
                name,
                then,
                fails,
                log,
            }));
        }
        s.run_round();
        s.node_mut()
            .disk_write_async("spill", ByteSize::mib(1))
            .unwrap();
        (s, log)
    }

    #[test]
    fn crash_retires_threads_and_purges_disk() {
        let _armed = TRACER.lock().unwrap_or_else(|e| e.into_inner());
        tracer::enable();
        tracer::begin_run();
        // Slots 1 and 2 have already finished and died.
        let (mut s, log) = crashing(&[(0, false), (1, false), (2, false), (0, false)]);
        s.crash().unwrap();
        let run = tracer::take_run().expect("armed");
        tracer::disable();
        // Once per live body, in slot order, after the crash event.
        assert_eq!(*log.borrow(), vec![0, 3]);
        let crash: Vec<_> = run
            .iter()
            .filter_map(|e| match e.data {
                tracer::TraceData::NodeCrash => Some(None),
                tracer::TraceData::CrashSalvaged { task } => Some(Some(task)),
                _ => None,
            })
            .collect();
        assert_eq!(crash, vec![None, Some(0), Some(3)]);
        let states: Vec<_> = (0..4).map(|i| s.thread_state(ThreadId(i))).collect();
        let (failed, finished) = (Some(ThreadState::Failed), Some(ThreadState::Finished));
        assert_eq!(states, vec![failed, finished, failed, failed]);
        assert!(s.is_crashed());
        assert_eq!(s.node().disk.file_count(), 0);

        // A crashed node never runs another round.
        let before = s.node().now;
        let r = s.run_round();
        assert!(r.idle());
        assert_eq!(s.node().now, before);

        // The first failing salvage is returned and skips later bodies;
        // the node still goes down whole.
        let (mut s, log) = crashing(&[(0, false), (0, true), (0, true)]);
        let err = s.crash().unwrap_err();
        assert!(
            matches!(&err, SimError::Internal(m) if m == "salvage 1"),
            "{err}"
        );
        assert_eq!(*log.borrow(), vec![0, 1]);
        assert!(s.is_crashed());
        assert_eq!(s.node().disk.file_count(), 0);
        assert_eq!(s.live_count(), 0);
    }

    #[test]
    fn scoped_threads_attribute_spaces_and_tear_down_together() {
        let mut s = sim(8, 64);
        let a = s.spawn_scoped(crunch(30_000, 16), Some(1));
        let b = s.spawn_scoped(crunch(30_000, 16), Some(2));
        let c = s.spawn(crunch(30_000, 16));
        for _ in 0..3 {
            s.run_round();
        }
        assert_eq!(s.thread_scope(a), Some(1));
        assert_eq!(s.thread_scope(b), Some(2));
        assert_eq!(s.thread_scope(c), None);
        assert_eq!(s.live_count_in_scope(1), 1);
        // Spaces created inside the step were tagged with the scope.
        let live1 = s.node().heap.scope_live(1);
        let live2 = s.node().heap.scope_live(2);
        assert!(live1 > ByteSize::ZERO && live2 > ByteSize::ZERO);
        // Tearing down job 1 kills its thread and releases its spaces.
        assert_eq!(s.kill_scope(1), 1);
        assert_eq!(s.live_count_in_scope(1), 0);
        let freed = s.node_mut().heap.release_scope(1);
        assert_eq!(freed, live1);
        assert_eq!(s.node().heap.scope_live(1), ByteSize::ZERO);
        assert_eq!(s.node().heap.scope_live(2), live2);
        // Other jobs keep running.
        let (fin, fail) = run_to_completion(&mut s);
        assert_eq!(fin.len(), 2);
        assert!(fail.is_empty());
    }

    #[test]
    fn scope_cpu_tracks_own_consumption_not_residency() {
        let mut s = sim(1, 64);
        // Scope 1 does 4x the work of scope 2 on one shared core; both
        // are co-resident for the whole run.
        s.spawn_scoped(crunch(40_000, 8), Some(1));
        s.spawn_scoped(crunch(10_000, 8), Some(2));
        run_to_completion(&mut s);
        let c1 = s.take_scope_cpu(1);
        let c2 = s.take_scope_cpu(2);
        assert!(c2 > SimDuration::ZERO);
        let ratio = c1.as_nanos() as f64 / c2.as_nanos() as f64;
        assert!(ratio > 3.0, "scope CPU ratio {ratio} reflects residency");
        // Harvest is take-once.
        assert_eq!(s.take_scope_cpu(1), SimDuration::ZERO);
        // Unscoped threads are not accounted anywhere.
        assert_eq!(s.take_scope_cpu(999), SimDuration::ZERO);
    }

    #[test]
    fn thread_timeline_is_recorded() {
        let _armed = TRACER.lock().unwrap_or_else(|e| e.into_inner());
        let drive = || {
            tracer::begin_run();
            let mut s = sim(8, 64);
            s.spawn(crunch(50_000, 8));
            s.spawn(crunch(50_000, 8));
            run_to_completion(&mut s);
            tracer::take_run()
        };
        assert!(drive().is_none(), "an unarmed run harvests nothing");
        tracer::enable();
        let run = drive().expect("an armed run harvests its stream");
        tracer::disable();
        let curve: Vec<u32> = run
            .iter()
            .filter_map(|e| match e.data {
                tracer::TraceData::ThreadQuantum { running } => Some(running),
                _ => None,
            })
            .collect();
        // Change-driven: reaches both threads, ends at 0, never repeats.
        assert!(curve.iter().max() >= Some(&2) && curve.last() == Some(&0));
        assert!(curve.windows(2).all(|w| w[0] != w[1]));
    }
}
