//! Host footprint of one ITask job: beyond the inputs it is handed, a
//! run may hold about what its map phase outputs — not the bodies of
//! retired instances, a pool of spent shuffle buffers, or a vector per
//! (flush, bucket).
//!
//! `wc` 3GB ITask at seed 42 (2.7 MiB of inputs; 265 952 map-output
//! tuples of 24 B, so a 12.2 MiB bound), peak live bytes over the run
//! beyond the inputs: 26.9 MiB at the parent of this test (fails);
//! 6.6 MiB with retired bodies dropped, the buffer pool gone and flat
//! map batches.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};

use apps::hyracks_apps::{run_itask_spec, wc, webmap_inputs, HyracksParams};
use apps::mids::CountMid;
use simcore::prof;
use workloads::webmap::WebmapSize;

/// Bytes allocated and not yet freed by the measuring thread, and the
/// highest that figure has been.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// Set on the measuring thread only: the harness's own threads
    /// never pollute the count.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn add_live(delta: i64) {
    if COUNTING.with(Cell::get) {
        let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

struct PeakTracking;

unsafe impl GlobalAlloc for PeakTracking {
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
static GLOBAL: PeakTracking = PeakTracking;

#[test]
fn an_itask_run_holds_little_beyond_its_inputs_and_map_outputs() {
    let params = HyracksParams::default();
    COUNTING.with(|c| c.set(true));
    let inputs = webmap_inputs(WebmapSize::G3, &params, |r| r);
    let input_bytes = LIVE.load(Ordering::Relaxed);

    // Phase-2 framing counts every tuple the map phase put out.
    prof::enable(false);
    let run = run_itask_spec(&wc::WcSpec, &params, inputs);
    prof::disable();
    COUNTING.with(|c| c.set(false));
    let outs = run.result.expect("wc 3GB completes as ITasks");
    assert!(wc::verify(&outs, WebmapSize::G3, params.seed));

    let framed = prof::snapshot()
        .into_iter()
        .find(|s| s.stage == prof::Stage::FrameChunk)
        .expect("every stage is in a snapshot");
    let bound = 2 * framed.units as i64 * std::mem::size_of::<CountMid>() as i64;
    let beyond_inputs = PEAK.load(Ordering::Relaxed) - input_bytes;
    assert!(
        beyond_inputs < bound,
        "peak {beyond_inputs} B beyond the inputs, bound {bound} B ({} map-output tuples)",
        framed.units
    );
}
