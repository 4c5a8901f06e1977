//! IIB — inverted-index building over the Wikipedia full dump
//! (StackOverflow problem \[8\] of the paper): the reduce side accumulates postings
//! lists for its share of the vocabulary; Table 2 shows ITask carrying
//! it by queueing intermediate results and lazily serializing them.

use hadoop::HadoopConfig;
use simcore::jbloat;
use workloads::wikipedia::Article;

use crate::agg::AggSpec;
use crate::mids::{ListMid, OutKv};
use crate::summary::RunSummary;

use super::{itask, regular, wikipedia_splits, NODES};

/// Postings entry base and per-posting bytes.
const IIB_ENTRY: u32 =
    (jbloat::hashmap_entry(jbloat::string(11), 0) + jbloat::array_list(0, 0)) as u32;
const IIB_POSTING: u32 = 48;

/// The IIB spec: `word → [article ids]` (distinct per article).
#[derive(Clone, Debug, Default)]
pub struct IibSpec;

impl AggSpec for IibSpec {
    type In = Article;
    type Mid = ListMid;
    type Out = OutKv;

    fn explode(&self, rec: &Article, out: &mut Vec<ListMid>) {
        let mut distinct: Vec<u32> = rec.words.clone();
        distinct.sort_unstable();
        distinct.dedup();
        for w in distinct {
            out.push(ListMid::one(w as u64, rec.id, IIB_ENTRY, IIB_POSTING));
        }
    }

    fn finish(&self, mid: ListMid) -> OutKv {
        OutKv {
            key: mid.key,
            value: mid.items().len() as u64,
        }
    }
}

/// Table 1 configuration: MH=0.5GB, RH=1GB, MM=13, MR=6.
pub fn table1_config() -> HadoopConfig {
    HadoopConfig::table1(NODES, 512, 1024, 13, 6)
}

/// Recommended fix: finer splits and many more (smaller) reduce tasks.
pub fn tuned_config() -> HadoopConfig {
    // Bigger map heaps, finer splits, many more reduce tasks.
    let mut cfg = HadoopConfig::table1(NODES, 768, 1024, 6, 6);
    cfg.split_size = simcore::ByteSize::kib(64);
    cfg.reduce_tasks = 600;
    cfg
}

/// CTime run.
pub fn run_ctime(seed: u64) -> (RunSummary<OutKv>, u32) {
    regular(&IibSpec, &table1_config(), wikipedia_splits(true, seed))
}

/// PTime run.
pub fn run_tuned(seed: u64) -> (RunSummary<OutKv>, u32) {
    let cfg = tuned_config();
    let splits = super::wikipedia_splits_sized(true, seed, cfg.split_size);
    regular(&IibSpec, &cfg, splits)
}

/// ITime run.
pub fn run_itask(seed: u64) -> RunSummary<OutKv> {
    itask(&IibSpec, &table1_config(), wikipedia_splits(true, seed))
}

/// Invariant: total postings equals the summed distinct word counts.
pub fn verify(outs: &[OutKv], seed: u64) -> bool {
    let total: u64 = outs.iter().map(|o| o.value).sum();
    let expected: u64 = wikipedia_splits(true, seed)
        .iter()
        .flat_map(|s| s.iter())
        .map(|a| {
            let mut d = a.words.clone();
            d.sort_unstable();
            d.dedup();
            d.len() as u64
        })
        .sum();
    total == expected
}
