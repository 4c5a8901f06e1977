//! CRP — customer review processing over the Wikipedia sample
//! (StackOverflow problem \[10\] of the paper): a lemmatizer whose per-sentence scratch
//! memory is orders of magnitude larger than the sentence itself. The
//! recommended fix was to *break long sentences in the dataset*; ITask
//! instead frees the rest of the pooled heap so the long sentence can be
//! processed alone.

use hadoop::HadoopConfig;
use simcore::ByteSize;
use workloads::wikipedia::Article;

use crate::agg::AggSpec;
use crate::mids::{CountMid, OutKv};
use crate::summary::RunSummary;

use super::{itask, regular, wikipedia_splits, wikipedia_word_total, NODES};

/// Lemmatizer scratch per sentence character (the paper reports three
/// orders of magnitude over the sentence; 140 x the UTF-16 string puts
/// the longest sentences near a whole task heap).
const LEMMA_FACTOR: u64 = 140;

/// The CRP spec: lemma frequencies with a sentence-length scratch model.
#[derive(Clone, Debug)]
pub struct CrpSpec {
    /// Cap applied to sentence lengths (the tuned version breaks long
    /// sentences; `u32::MAX` leaves the dataset as-is).
    pub sentence_cap: u32,
}

impl Default for CrpSpec {
    fn default() -> Self {
        CrpSpec {
            sentence_cap: u32::MAX,
        }
    }
}

impl AggSpec for CrpSpec {
    type In = Article;
    type Mid = CountMid;
    type Out = OutKv;

    fn explode(&self, rec: &Article, out: &mut Vec<CountMid>) {
        for &w in &rec.words {
            out.push(CountMid::one(w as u64, CountMid::STRING_LONG_ENTRY));
        }
    }

    fn finish(&self, mid: CountMid) -> OutKv {
        mid.into()
    }

    fn scratch_bytes(&self, rec: &Article) -> u64 {
        let longest = rec
            .sentence_chars
            .iter()
            .map(|&c| c.min(self.sentence_cap))
            .max()
            .unwrap_or(0) as u64;
        simcore::jbloat::string(longest) * LEMMA_FACTOR
    }
}

/// Table 1 configuration: MH=RH=1GB, MM=MR=6.
pub fn table1_config() -> HadoopConfig {
    HadoopConfig::table1(NODES, 1024, 1024, 6, 6)
}

/// CTime run (the original dataset, original configuration).
pub fn run_ctime(seed: u64) -> (RunSummary<OutKv>, u32) {
    regular(
        &CrpSpec::default(),
        &table1_config(),
        wikipedia_splits(false, seed),
    )
}

/// PTime run: the recommended "break long sentences" preprocessing,
/// modelled as a sentence-length cap (naïve splitting, as in the paper).
pub fn run_tuned(seed: u64) -> (RunSummary<OutKv>, u32) {
    regular(
        &CrpSpec { sentence_cap: 512 },
        &table1_config(),
        wikipedia_splits(false, seed),
    )
}

/// ITime run: original dataset, original configuration, ITasks.
pub fn run_itask(seed: u64) -> RunSummary<OutKv> {
    itask(
        &CrpSpec::default(),
        &table1_config(),
        wikipedia_splits(false, seed),
    )
}

/// Invariant: total lemma count equals total word occurrences, for
/// a job that ran over the default 128 KiB splits.
pub fn verify(outs: &[OutKv], seed: u64) -> bool {
    verify_sized(outs, seed, ByteSize::kib(128))
}

/// [`verify`] for a job that ran over `split`-sized splits.
pub fn verify_sized(outs: &[OutKv], seed: u64, split: ByteSize) -> bool {
    let total: u64 = outs.iter().map(|o| o.value).sum();
    total == wikipedia_word_total(false, seed, split)
}
