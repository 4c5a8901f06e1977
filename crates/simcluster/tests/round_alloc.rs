//! With tracer, metrics and profiler off, a scheduling round's
//! instrumentation is relaxed loads only: a steady-state round performs
//! no heap allocation at all, however long the run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use simcluster::{NodeSim, NodeState, StepOutcome, Work, WorkCx};
use simcore::{metrics, prof, tracer, ByteSize, NodeId, SimDuration};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the measuring thread only: the harness's own threads
    /// never pollute the counts.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count(counter: &AtomicU64) {
    if COUNTING.with(Cell::get) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(&ALLOCS);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(&REALLOCS);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A thread that only burns CPU, forever.
struct ChargeOnly;

impl Work for ChargeOnly {
    fn step(&mut self, cx: &mut WorkCx<'_>) -> StepOutcome {
        cx.charge(SimDuration::from_micros(100));
        StepOutcome::Ran
    }

    fn label(&self) -> String {
        "charge-only".into()
    }
}

#[test]
fn disarmed_round_allocates_nothing() {
    assert!(!tracer::is_enabled() && !metrics::is_enabled() && !prof::is_enabled());
    let (heap, disk) = (ByteSize::mib(12), ByteSize::mib(64));
    let mut sim = NodeSim::new(NodeState::new(NodeId(0), 8, heap, disk));
    sim.spawn(Box::new(ChargeOnly));
    sim.spawn(Box::new(ChargeOnly));
    for _ in 0..1_000 {
        sim.run_round();
    }
    COUNTING.with(|c| c.set(true));
    for _ in 1_000..200_000 {
        sim.run_round();
    }
    COUNTING.with(|c| c.set(false));
    let seen = (
        ALLOCS.load(Ordering::Relaxed),
        REALLOCS.load(Ordering::Relaxed),
    );
    assert_eq!(
        seen,
        (0, 0),
        "(allocs, reallocs) over 199 000 disarmed rounds"
    );
    assert_eq!(sim.live_count(), 2);
}
