//! Host footprint of an SMR outcome: what `simsmr::run` hands back is
//! O(nodes), not O(entries). The run checks quorum safety on its own
//! digest chains and keeps the verdict, the committed log's final
//! digest and each node's final digest and applied count.
//!
//! ITask mode at 92 % live/heap, bytes still allocated once the run has
//! returned (the outcome is all that is left): with a per-index digest
//! chain for the log and for every node, 69 368 B at 2 000 entries and
//! 3 206 688 B (3 nodes) / 4 806 736 B (5 nodes) at 100 000 entries.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};

use simsmr::{run, RuntimeMode, SmrConfig};

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

struct LiveTracking;

unsafe impl GlobalAlloc for LiveTracking {
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
static GLOBAL: LiveTracking = LiveTracking;

/// Ceiling on what one outcome may retain: its latency sketch, its
/// per-node finals and a verdict.
const BOUND: i64 = 16 * 1024;

/// Bytes a clean run of `entries` entries on `nodes` nodes leaves
/// allocated while its outcome is held.
fn retained_by_outcome(nodes: usize, entries: u64) -> i64 {
    let mut cfg = SmrConfig::new(nodes, RuntimeMode::Itask);
    cfg.entries = entries;
    let cfg = cfg.with_pressure(92);
    COUNTING.with(|c| c.set(true));
    let before = LIVE.load(Ordering::Relaxed);
    let outcome = run(&cfg);
    let retained = LIVE.load(Ordering::Relaxed) - before;
    COUNTING.with(|c| c.set(false));
    assert!(outcome.result.is_ok(), "run failed: {:?}", outcome.result);
    assert_eq!(outcome.commits, entries, "every entry commits");
    outcome.check_safety().expect("quorum safety");
    retained
}

#[test]
fn an_smr_outcome_retains_o_nodes_not_its_log() {
    let sizes: Vec<(usize, i64, i64)> = [3, 5]
        .into_iter()
        .map(|nodes| {
            let small = retained_by_outcome(nodes, 2_000);
            (nodes, small, retained_by_outcome(nodes, 100_000))
        })
        .collect();
    for &(nodes, small, large) in &sizes {
        // 98 000 more entries may cost the latency sketch a few levels,
        // not a byte per entry.
        assert!(
            small < BOUND && large < BOUND && large - small < 4 * 1024,
            "retained B as (nodes, 2 000 entries, 100 000 entries): {sizes:?}; \
             bound {BOUND} B at every size, growth under 4 KiB ({nodes} nodes)"
        );
    }
}
