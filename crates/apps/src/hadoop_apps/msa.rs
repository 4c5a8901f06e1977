//! MSA — map-side aggregation over the StackOverflow dump
//! (StackOverflow problem \[13\] of the paper). The map task (1) loads a large lookup
//! table to hash-join posts against, which is why the recommended fix
//! caps the node at a single mapper, and (2) accumulates an unbounded
//! key-value buffer of processed posts — *final* results that ITask can
//! push out and release at every interrupt (Table 2's MSA row is almost
//! entirely "final results").

use hadoop::HadoopConfig;
use workloads::stackoverflow::Post;

use crate::agg::AggSpec;
use crate::mids::SortMid;
use crate::summary::RunSummary;

use super::{itask, regular, stackoverflow_splits, NODES};

/// The preloaded join table ("0.55GB" scaled).
const TABLE_BYTES: u64 = 560 * 1024;
/// Buffer-entry overhead per processed post (the assembled XML row is
/// retained in the buffer; its string bloat is in `SortMid`).
const POST_NODE: u32 = 72;

/// The MSA spec: one buffered output record per post.
#[derive(Clone, Debug, Default)]
pub struct MsaSpec;

impl AggSpec for MsaSpec {
    type In = Post;
    type Mid = SortMid;
    type Out = SortMid;

    fn explode(&self, rec: &Post, out: &mut Vec<SortMid>) {
        out.push(SortMid {
            key: rec.id,
            chars: rec.body_chars.min(u32::MAX as u64) as u32,
            node_bytes: POST_NODE,
        });
    }

    fn finish(&self, mid: SortMid) -> SortMid {
        mid
    }

    fn init_bytes(&self) -> u64 {
        TABLE_BYTES
    }

    /// The buffer is the bug: it is never flushed until the split ends.
    fn map_cache_bytes(&self) -> u64 {
        u64::MAX
    }
}

/// The configuration the problem was reported under (Table 1: MH=RH=1GB,
/// MM=MR=6).
pub fn table1_config() -> HadoopConfig {
    HadoopConfig::table1(NODES, 1024, 1024, 6, 6)
}

/// The StackOverflow-recommended fix: a single mapper per node and much
/// finer splits, so the buffer stays small next to the join table.
pub fn tuned_config() -> HadoopConfig {
    let mut cfg = HadoopConfig::table1(NODES, 1024, 1024, 1, 6);
    cfg.split_size = simcore::ByteSize::kib(16);
    cfg.reduce_tasks = 180;
    cfg
}

/// CTime run: regular job under the reported configuration.
pub fn run_ctime(seed: u64) -> (RunSummary<SortMid>, u32) {
    regular(&MsaSpec, &table1_config(), stackoverflow_splits(seed))
}

/// PTime run: regular job under the recommended fix.
pub fn run_tuned(seed: u64) -> (RunSummary<SortMid>, u32) {
    let cfg = tuned_config();
    let splits = super::stackoverflow_splits_sized(seed, cfg.split_size);
    regular(&MsaSpec, &cfg, splits)
}

/// ITime run: ITask job under the reported configuration.
pub fn run_itask(seed: u64) -> RunSummary<SortMid> {
    itask(&MsaSpec, &table1_config(), stackoverflow_splits(seed))
}

/// Invariant: one output record per post.
pub fn verify(outs: &[SortMid], seed: u64) -> bool {
    outs.len() as u64 == workloads::stackoverflow::StackOverflowConfig::full_dump(seed).posts
}
