//! II — inverted index over the webmap: each directed edge contributes
//! a posting `neighbor → source vertex`. Postings lists (boxed ids in
//! `ArrayList`s, with positional payload) dominate memory, which is why
//! the paper's regular II only ever scales to the 3GB dataset
//! (Figure 9c) — the worst of the five programs.

use simcore::jbloat;
use workloads::webmap::{AdjRecord, WebmapConfig, WebmapSize};

use crate::agg::AggSpec;
use crate::mids::{ListMid, OutKv};
use crate::summary::RunSummary;

use super::{run_itask_spec, run_regular_spec, webmap_inputs, HyracksParams};

/// Map-entry base: term string + list header.
const II_ENTRY: u32 =
    (jbloat::hashmap_entry(jbloat::string(11), 0) + jbloat::array_list(0, 0)) as u32;
/// Per-posting bytes: boxed doc id + slot + positional payload.
const II_POSTING: u32 = 144;

/// The II spec.
#[derive(Clone, Debug, Default)]
pub struct IiSpec;

impl AggSpec for IiSpec {
    type In = AdjRecord;
    type Mid = ListMid;
    type Out = OutKv;

    fn name(&self) -> &'static str {
        "ii"
    }

    fn explode(&self, rec: &AdjRecord, out: &mut Vec<ListMid>) {
        for &n in &rec.neighbors {
            out.push(ListMid::one(n, rec.vertex, II_ENTRY, II_POSTING));
        }
    }

    fn finish(&self, mid: ListMid) -> OutKv {
        OutKv {
            key: mid.key,
            value: mid.items().len() as u64,
        }
    }
}

/// Runs the regular II.
pub fn run_regular(size: WebmapSize, params: &HyracksParams) -> RunSummary<OutKv> {
    let inputs = webmap_inputs(size, params, |r| r);
    run_regular_spec(&IiSpec, params, inputs)
}

/// Runs the ITask II.
pub fn run_itask(size: WebmapSize, params: &HyracksParams) -> RunSummary<OutKv> {
    let inputs = webmap_inputs(size, params, |r| r);
    run_itask_spec(&IiSpec, params, inputs)
}

/// Invariant check: total postings equals the edge count.
pub fn verify(outs: &[OutKv], size: WebmapSize, seed: u64) -> bool {
    let cfg = WebmapConfig::preset(size, seed);
    let (_, e, _) = cfg.exact_stats(simcore::ByteSize::kib(128));
    let total: u64 = outs.iter().map(|o| o.value).sum();
    total == e
}
