//! WCM — word co-occurrence matrix with stripes over the Wikipedia
//! full dump (StackOverflow problem \[15\] of the paper): each word's stripe maps its
//! neighbours to counts, and the reduce-side stripe table is the
//! largest intermediate state of the five problems (Table 2's WCM row).

use hadoop::HadoopConfig;
use simcore::jbloat;
use workloads::wikipedia::Article;

use crate::agg::AggSpec;
use crate::mids::{OutKv, StripeMid};
use crate::summary::RunSummary;

use super::{itask, regular, wikipedia_splits, NODES};

/// Stripe entry base (outer map node + inner map header).
const WCM_ENTRY: u32 = (jbloat::hashmap_entry(jbloat::string(11), 0) + jbloat::object(2, 8)) as u32;
/// Per neighbour cell (compact int-keyed counter cell).
const WCM_CELL: u32 = 48;

/// The WCM spec: adjacent-word co-occurrence stripes.
#[derive(Clone, Debug, Default)]
pub struct WcmSpec;

impl AggSpec for WcmSpec {
    type In = Article;
    type Mid = StripeMid;
    type Out = OutKv;

    fn explode(&self, rec: &Article, out: &mut Vec<StripeMid>) {
        for w in rec.words.windows(2) {
            out.push(StripeMid::pair(w[0] as u64, w[1], WCM_ENTRY, WCM_CELL));
        }
    }

    fn finish(&self, mid: StripeMid) -> OutKv {
        let pairs: u64 = mid.neighbors.values().map(|&c| c as u64).sum();
        OutKv {
            key: mid.key,
            value: pairs,
        }
    }
}

/// Table 1 configuration: MH=0.5GB, RH=1GB, MM=13, MR=6.
pub fn table1_config() -> HadoopConfig {
    HadoopConfig::table1(NODES, 512, 1024, 13, 6)
}

/// Recommended fix: fewer mappers, finer splits, many more reduce
/// tasks.
pub fn tuned_config() -> HadoopConfig {
    // Bigger map heaps, fewer mappers, finer splits, more reduce tasks.
    let mut cfg = HadoopConfig::table1(NODES, 768, 3072, 4, 6);
    cfg.split_size = simcore::ByteSize::kib(48);
    cfg.reduce_tasks = 900;
    cfg
}

/// CTime run.
pub fn run_ctime(seed: u64) -> (RunSummary<OutKv>, u32) {
    regular(&WcmSpec, &table1_config(), wikipedia_splits(true, seed))
}

/// PTime run.
pub fn run_tuned(seed: u64) -> (RunSummary<OutKv>, u32) {
    let cfg = tuned_config();
    let splits = super::wikipedia_splits_sized(true, seed, cfg.split_size);
    regular(&WcmSpec, &cfg, splits)
}

/// ITime run.
pub fn run_itask(seed: u64) -> RunSummary<OutKv> {
    itask(&WcmSpec, &table1_config(), wikipedia_splits(true, seed))
}

/// Invariant: total co-occurrence observations equal adjacent pairs.
pub fn verify(outs: &[OutKv], seed: u64) -> bool {
    let total: u64 = outs.iter().map(|o| o.value).sum();
    let expected: u64 = wikipedia_splits(true, seed)
        .iter()
        .flat_map(|s| s.iter())
        .map(|a| a.words.len().saturating_sub(1) as u64)
        .sum();
    total == expected
}
