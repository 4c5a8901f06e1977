//! IMC — word count with an *unbounded* in-map combiner over the
//! Wikipedia full dump (StackOverflow problem \[16\] of the paper): the combiner map
//! over the whole vocabulary outgrows the 0.5GB map heap.

use hadoop::HadoopConfig;
use simcore::ByteSize;
use workloads::wikipedia::Article;

use crate::agg::AggSpec;
use crate::mids::{CountMid, OutKv};
use crate::summary::RunSummary;

use super::{itask, regular, wikipedia_splits, wikipedia_word_total, NODES};

/// The in-map combiner entry: word string key, boxed count, plus the
/// per-word document-frequency bookkeeping the problem report's mapper
/// carries (calibrated so a 0.5GB map heap dies on full-dump splits).
const IMC_ENTRY: u32 = 208;

/// The IMC spec.
#[derive(Clone, Debug, Default)]
pub struct ImcSpec;

impl AggSpec for ImcSpec {
    type In = Article;
    type Mid = CountMid;
    type Out = OutKv;

    fn explode(&self, rec: &Article, out: &mut Vec<CountMid>) {
        for &w in &rec.words {
            out.push(CountMid::one(w as u64, IMC_ENTRY));
        }
    }

    fn finish(&self, mid: CountMid) -> OutKv {
        mid.into()
    }

    /// The studied bug: the in-map combiner never flushes.
    fn map_cache_bytes(&self) -> u64 {
        u64::MAX
    }
}

/// Table 1 configuration: MH=0.5GB, RH=1GB, MM=13, MR=6.
pub fn table1_config() -> HadoopConfig {
    HadoopConfig::table1(NODES, 512, 1024, 13, 6)
}

/// Recommended fix: flush the combiner (bounded cache) — modelled as a
/// separate spec — plus fewer mappers.
#[derive(Clone, Debug, Default)]
pub struct ImcTunedSpec;

impl AggSpec for ImcTunedSpec {
    type In = Article;
    type Mid = CountMid;
    type Out = OutKv;

    fn explode(&self, rec: &Article, out: &mut Vec<CountMid>) {
        ImcSpec.explode(rec, out);
    }

    fn finish(&self, mid: CountMid) -> OutKv {
        ImcSpec.finish(mid)
    }

    fn map_cache_bytes(&self) -> u64 {
        48 * 1024
    }
}

/// The tuned framework parameters (fewer concurrent mappers, finer
/// splits).
pub fn tuned_config() -> HadoopConfig {
    let mut cfg = HadoopConfig::table1(NODES, 512, 1024, 6, 6);
    cfg.split_size = ByteSize::kib(64);
    cfg
}

/// CTime run.
pub fn run_ctime(seed: u64) -> (RunSummary<OutKv>, u32) {
    regular(&ImcSpec, &table1_config(), wikipedia_splits(true, seed))
}

/// PTime run.
pub fn run_tuned(seed: u64) -> (RunSummary<OutKv>, u32) {
    let cfg = tuned_config();
    let splits = super::wikipedia_splits_sized(true, seed, cfg.split_size);
    regular(&ImcTunedSpec, &cfg, splits)
}

/// ITime run.
pub fn run_itask(seed: u64) -> RunSummary<OutKv> {
    itask(&ImcSpec, &table1_config(), wikipedia_splits(true, seed))
}

/// Invariant: total counted words equals total word occurrences, for
/// a job that ran over the default 128 KiB splits.
pub fn verify(outs: &[OutKv], seed: u64) -> bool {
    verify_sized(outs, seed, ByteSize::kib(128))
}

/// [`verify`] for a job that ran over `split`-sized splits.
pub fn verify_sized(outs: &[OutKv], seed: u64, split: ByteSize) -> bool {
    let total: u64 = outs.iter().map(|o| o.value).sum();
    total == wikipedia_word_total(true, seed, split)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cut decides the articles: the tuned job's correct output over
    /// its own 64 KiB splits is not the 128 KiB dataset's word total.
    #[test]
    fn verify_sized_accepts_the_tuned_jobs_output_that_verify_rejects() {
        let cfg = tuned_config();
        let (run, _attempts) = run_tuned(3);
        let outs = run.result.expect("the tuned job completes");
        assert!(verify_sized(&outs, 3, cfg.split_size));
        assert!(!verify(&outs, 3));
    }
}
