//! WC — word count over the webmap's adjacency text (the tokens are the
//! decimal vertex ids). The paper's regular WC fails on the 27GB, 44GB
//! and 72GB datasets under 12GB heaps (Figure 9a); the reduce-side
//! count table over all distinct tokens is what kills it.

use workloads::webmap::{AdjRecord, WebmapConfig, WebmapSize};

use crate::agg::AggSpec;
use crate::mids::{CountMid, OutKv};

/// Token-count entry: `String(11) → Long` HashMap entry at a realistic
/// load factor (calibrated so the 27GB dataset is the first to exceed
/// 12GB node heaps, as in Figure 9a).
const WC_ENTRY: u32 = 224;
use crate::summary::RunSummary;

use super::{run_itask_spec, run_regular_spec, webmap_inputs, HyracksParams};

/// The WC aggregation spec.
#[derive(Clone, Debug, Default)]
pub struct WcSpec;

impl AggSpec for WcSpec {
    type In = AdjRecord;
    type Mid = CountMid;
    type Out = OutKv;

    fn name(&self) -> &'static str {
        "wc"
    }

    fn explode(&self, rec: &AdjRecord, out: &mut Vec<CountMid>) {
        out.push(CountMid::one(rec.vertex, WC_ENTRY));
        for &n in &rec.neighbors {
            out.push(CountMid::one(n, WC_ENTRY));
        }
    }

    fn finish(&self, mid: CountMid) -> OutKv {
        mid.into()
    }
}

/// Runs the regular WC.
pub fn run_regular(size: WebmapSize, params: &HyracksParams) -> RunSummary<OutKv> {
    let inputs = webmap_inputs(size, params, |r| r);
    run_regular_spec(&WcSpec, params, inputs)
}

/// Runs the ITask WC.
pub fn run_itask(size: WebmapSize, params: &HyracksParams) -> RunSummary<OutKv> {
    let inputs = webmap_inputs(size, params, |r| r);
    run_itask_spec(&WcSpec, params, inputs)
}

/// Invariant check: total counted tokens equals vertices + edges of the
/// generated dataset.
pub fn verify(outs: &[OutKv], size: WebmapSize, seed: u64) -> bool {
    let cfg = WebmapConfig::preset(size, seed);
    let (v, e, _) = cfg.exact_stats(simcore::ByteSize::kib(128));
    let total: u64 = outs.iter().map(|o| o.value).sum();
    total == v + e
}
