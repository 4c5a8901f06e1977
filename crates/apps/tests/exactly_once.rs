//! Exactly-once folding across interrupts: a tuple an ITask instance
//! had taken in when memory ran out must reach the output once, whether
//! the instance was scaled back, flushed, or resumed.

use apps::hyracks_apps::{ii, HyracksParams};
use simcore::ByteSize;
use workloads::webmap::{WebmapConfig, WebmapSize};

/// Known defect (DESIGN.md §7, "Known defect: `AggState::add` folds
/// before it charges"): interrupted `ii` ITask counts a posting twice
/// each time an out-of-memory charge lands on an occupied map entry,
/// so this run ends 50 postings over the edge count. Un-ignore with
/// the fix.
#[test]
#[ignore = "fails until AggState::add charges before it merges (DESIGN.md §7)"]
fn ii_44gb_postings_equal_edges() {
    let params = HyracksParams::default(); // seed 42, 12 MiB heaps
    let size = WebmapSize::G44;
    let out = ii::run_itask(size, &params)
        .result
        .expect("ITask II completes on 44GB");
    let postings: u64 = out.iter().map(|o| o.value).sum();
    let (_, edges, _) = WebmapConfig::preset(size, params.seed).exact_stats(ByteSize::kib(128));
    assert_eq!(postings, edges, "every edge contributes one posting");
}
