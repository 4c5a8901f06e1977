//! The five reproduced Hadoop problems of Table 1 (§6.1). Each module
//! exposes the Table 1 configuration (the one the problem was reported
//! under — the CTime run), the StackOverflow-recommended fix (the PTime
//! run) and the ITask version under the *original* configuration (the
//! ITime run).

pub mod crp;
pub mod iib;
pub mod imc;
pub mod more_problems;
pub mod msa;
pub mod wcm;

use hadoop::HadoopConfig;
use simcore::ByteSize;
use workloads::stackoverflow::{Post, StackOverflowConfig};
use workloads::wikipedia::{Article, WikipediaConfig};

use crate::agg::{itask_factories, AggMapper, AggReducer, AggSpec};
use crate::summary::RunSummary;

/// Worker nodes of the paper's testbed.
pub const NODES: usize = 10;

/// Loads the StackOverflow full dump as splits of the default HDFS
/// block size.
pub fn stackoverflow_splits(seed: u64) -> Vec<Vec<Post>> {
    stackoverflow_splits_sized(seed, ByteSize::kib(128))
}

/// Loads the StackOverflow full dump at an explicit split size (the
/// tuned configurations shrink it).
pub fn stackoverflow_splits_sized(seed: u64, split: ByteSize) -> Vec<Vec<Post>> {
    let cfg = StackOverflowConfig::full_dump(seed);
    (0..cfg.num_blocks(split))
        .map(|b| cfg.block(b, split))
        .collect()
}

/// Loads a Wikipedia dataset (full dump or sample) as splits of the
/// default HDFS block size.
pub fn wikipedia_splits(full: bool, seed: u64) -> Vec<Vec<Article>> {
    wikipedia_splits_sized(full, seed, ByteSize::kib(128))
}

/// Loads a Wikipedia dataset at an explicit split size.
pub fn wikipedia_splits_sized(full: bool, seed: u64, split: ByteSize) -> Vec<Vec<Article>> {
    let cfg = wikipedia_config(full, seed);
    (0..cfg.num_blocks(split))
        .map(|b| cfg.block(b, split))
        .collect()
}

/// Word occurrences in a Wikipedia dataset cut into `split`-sized
/// splits (the cut decides the articles, so the total depends on it),
/// summed one block at a time: a verifier never holds the dataset.
pub fn wikipedia_word_total(full: bool, seed: u64, split: ByteSize) -> u64 {
    let cfg = wikipedia_config(full, seed);
    (0..cfg.num_blocks(split))
        .flat_map(|b| cfg.block(b, split))
        .map(|a| a.words.len() as u64)
        .sum()
}

fn wikipedia_config(full: bool, seed: u64) -> WikipediaConfig {
    if full {
        WikipediaConfig::full_dump(seed)
    } else {
        WikipediaConfig::sample(seed)
    }
}

/// Runs a spec's regular Hadoop job and wraps it uniformly, with the
/// number of task attempts it made (retries included).
pub fn regular<S: AggSpec>(
    spec: &S,
    cfg: &HadoopConfig,
    splits: Vec<Vec<S::In>>,
) -> (RunSummary<S::Out>, u32) {
    let buckets = cfg.reduce_tasks;
    let (report, result) = hadoop::run_regular_job(
        cfg,
        splits,
        || AggMapper::new(spec.clone(), buckets),
        || AggReducer::new(spec.clone()),
    );
    let attempts = report.counter("hadoop.map_attempts") + report.counter("hadoop.reduce_attempts");
    (RunSummary { report, result }, attempts as u32)
}

/// Runs a spec's ITask Hadoop job and wraps it uniformly.
pub fn itask<S: AggSpec>(
    spec: &S,
    cfg: &HadoopConfig,
    splits: Vec<Vec<S::In>>,
) -> RunSummary<S::Out> {
    // The factories must bucket exactly as finely as the engine tags.
    let buckets = cfg.reduce_tasks * hadoop::ITASK_BUCKET_MULTIPLIER;
    let factories = itask_factories(spec.clone(), buckets);
    let (report, result) = hadoop::run_itask_job::<S::In, S::Mid, S::Out>(cfg, splits, &factories);
    RunSummary { report, result }
}
