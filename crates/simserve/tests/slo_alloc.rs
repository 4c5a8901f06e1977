//! A tenant that never completes a job costs no heap allocation for its
//! SLO record: the record is eight counters (latencies and queue waits
//! go to per-shard sketches), and an empty sketch owns no buffers until
//! its first insert. At 10^5 tenants shedding > 99% of arrivals that is
//! one record per touched tenant, ~270 000 per `service_scale` pass.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use simcore::QuantileSketch;
use simserve::TenantSlo;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the measuring thread only: the harness's own threads
    /// never pollute the counts.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` performs on this thread.
fn allocs<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = std::hint::black_box(f());
    COUNTING.with(|c| c.set(false));
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

#[test]
fn empty_sketches_and_slo_records_allocate_nothing() {
    let (n, empty) = allocs(QuantileSketch::default);
    assert_eq!(n, 0, "QuantileSketch::default()");
    let (n, _) = allocs(|| empty.clone());
    assert_eq!(n, 0, "clone of an empty sketch");
    let (n, _) = allocs(TenantSlo::default);
    assert_eq!(n, 0, "TenantSlo::default()");
    assert_eq!(std::mem::size_of::<TenantSlo>(), 64, "counters only");
    // Laziness must not change answers: the first insert still lands.
    let mut sketch = empty;
    sketch.insert(7);
    assert_eq!((sketch.count(), sketch.quantile(0.5)), (1, 7));
}
