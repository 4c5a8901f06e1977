//! A retired slot owns nothing: the host memory a thread's body holds
//! is released the moment the thread finishes, fails or is killed —
//! while the `NodeSim` is still alive — and the slot still answers for
//! its id afterwards.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};

use simcluster::{NodeSim, NodeState, StepOutcome, ThreadState, Work, WorkCx};
use simcore::{ByteSize, NodeId, SimDuration, SimError, ThreadId};

/// Bytes allocated and not yet freed by the measuring thread.
static LIVE: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// Set on the measuring thread only: the harness's own threads
    /// never pollute the count.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn add_live(delta: i64) {
    if COUNTING.with(Cell::get) {
        LIVE.fetch_add(delta, Ordering::Relaxed);
    }
}

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add_live(layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add_live(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const MIB: usize = 1 << 20;

/// How a [`Hog`] ends, after its steps run out.
enum End {
    Finish,
    Fail,
    /// Runs until killed.
    Never,
}

/// A thread that owns 1 MiB of host memory for as long as its body
/// exists.
struct Hog {
    ballast: Vec<u8>,
    steps: u32,
    end: End,
}

impl Hog {
    fn boxed(steps: u32, end: End) -> Box<dyn Work> {
        Box::new(Hog {
            ballast: vec![1; MIB],
            steps,
            end,
        })
    }
}

impl Work for Hog {
    fn step(&mut self, cx: &mut WorkCx<'_>) -> StepOutcome {
        cx.charge(SimDuration::from_micros(self.ballast[0] as u64));
        self.steps = self.steps.saturating_sub(1);
        match self.end {
            End::Finish if self.steps == 0 => StepOutcome::Finished,
            End::Fail if self.steps == 0 => StepOutcome::Failed(SimError::Internal("hog".into())),
            _ => StepOutcome::Ran,
        }
    }

    fn label(&self) -> String {
        "hog".into()
    }
}

#[test]
fn retired_threads_release_their_bodies_while_the_node_lives() {
    let (heap, disk) = (ByteSize::mib(12), ByteSize::mib(64));
    let mut sim = NodeSim::new(NodeState::new(NodeId(0), 8, heap, disk));
    COUNTING.with(|c| c.set(true));
    let baseline = LIVE.load(Ordering::Relaxed);

    let spawn_n = |sim: &mut NodeSim, n: u32, end: fn() -> End, scope: Option<u64>| {
        (0..n)
            .map(|i| sim.spawn_scoped(Hog::boxed(1 + i % 5, end()), scope))
            .collect::<Vec<ThreadId>>()
    };
    let finishing = spawn_n(&mut sim, 64, || End::Finish, None);
    let failing = spawn_n(&mut sim, 8, || End::Fail, None);
    let killed = spawn_n(&mut sim, 8, || End::Never, None);
    let torn_down = spawn_n(&mut sim, 8, || End::Never, Some(7));
    let held = LIVE.load(Ordering::Relaxed) - baseline;
    assert!(held >= 88 * MIB as i64, "88 bodies hold {held} B");

    for _ in 0..5 {
        sim.run_round();
    }
    for &id in &killed {
        assert!(sim.kill(id));
    }
    assert_eq!(sim.kill_scope(7), 8);

    let left = LIVE.load(Ordering::Relaxed) - baseline;
    COUNTING.with(|c| c.set(false));
    assert!(
        left <= 64 * 1024,
        "{left} B still live after every thread retired"
    );
    assert_eq!(sim.live_count(), 0);
    for &id in &finishing {
        assert_eq!(sim.thread_state(id), Some(ThreadState::Finished));
    }
    for &id in failing.iter().chain(&killed).chain(&torn_down) {
        assert_eq!(sim.thread_state(id), Some(ThreadState::Failed));
    }
    assert_eq!(sim.thread_scope(torn_down[0]), Some(7));
    assert_eq!(sim.thread_scope(killed[0]), None);
}
