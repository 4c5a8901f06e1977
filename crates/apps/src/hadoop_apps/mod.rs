//! The 13 reproduced Hadoop problems of §6.1, as one table:
//! [`PROBLEMS`]. Each of the five Table 1 details has a module with its
//! reported configuration (CTime), the StackOverflow-recommended fix
//! (PTime) and the ITask run under the reported configuration (ITime);
//! the other eight live in [`more_problems`].

pub mod crp;
pub mod iib;
pub mod imc;
pub mod more_problems;
pub mod msa;
pub mod wcm;

use hadoop::HadoopConfig;
use simcluster::JobReport;
use simcore::ByteSize;
use workloads::stackoverflow::{Post, StackOverflowConfig};
use workloads::wikipedia::{Article, WikipediaConfig};

use crate::agg::{itask_factories, AggMapOp, AggReduceOp, AggSpec};
use crate::summary::RunSummary;
use more_problems::{
    fav_config, fav_splits, lsb_config, reported_config, tfr_splits, FavSpec, HjdSpec, LsbSpec,
    RhmSpec, SbaSpec, SpiSpec, TfrSpec, WppSpec,
};

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
        || AggMapOp::new(spec.clone(), buckets),
        || AggReduceOp::new(spec.clone(), buckets),
    );
    let attempts = attempts(&report);
    (RunSummary { report, result }, attempts)
}

/// The task attempts a regular job made, retries included.
pub fn attempts(report: &JobReport) -> u32 {
    (report.counter("hadoop.map_attempts") + report.counter("hadoop.reduce_attempts")) as u32
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

/// One run of a problem with its outputs dropped: the report, and
/// whether the job completed or the error that killed it.
pub type Run = RunSummary<()>;

fn erase<T>(run: RunSummary<T>) -> Run {
    RunSummary {
        report: run.report,
        result: run.result.map(|_| Vec::new()),
    }
}

/// The regular job of `spec` under `cfg`, as a [`Run`].
fn ctime<S: AggSpec>(spec: &S, cfg: HadoopConfig, splits: Vec<Vec<S::In>>) -> Run {
    erase(regular(spec, &cfg, splits).0)
}

/// The ITask job of `spec` under `cfg`, as a [`Run`].
fn itime<S: AggSpec>(spec: &S, cfg: HadoopConfig, splits: Vec<Vec<S::In>>) -> Run {
    erase(itask(spec, &cfg, splits))
}

/// One reproduced StackOverflow problem.
pub struct Problem {
    /// Command-line selector, e.g. `"msa"`.
    pub key: &'static str,
    /// Table name, e.g. `"MSA"`.
    pub name: &'static str,
    /// The paper's reference, e.g. `"[13]"`.
    pub citation: &'static str,
    /// The root cause, in a few words.
    pub story: &'static str,
    /// The regular job under the reported configuration.
    pub crash: fn(u64) -> Run,
    /// The ITask job under the same configuration.
    pub itask: fn(u64) -> Run,
    /// Table 1's columns, for the five problems the paper details.
    pub detail: Option<Detail>,
}

/// What Table 1 adds for a detailed problem.
pub struct Detail {
    /// The dataset, as Table 1 names it.
    pub data: &'static str,
    /// The configuration the problem was reported under.
    pub config: fn() -> HadoopConfig,
    /// The regular job under the StackOverflow-recommended fix.
    pub tuned: fn(u64) -> Run,
}

/// The 13 problems in paper order: the five detailed ones, then the
/// other eight.
pub static PROBLEMS: [Problem; 13] = [
    Problem {
        key: "msa",
        name: "MSA",
        citation: "[13]",
        story: "map-side aggregation",
        crash: |seed| erase(msa::run_ctime(seed).0),
        itask: |seed| erase(msa::run_itask(seed)),
        detail: Some(Detail {
            data: "StackOverflow FD 29GB",
            config: msa::table1_config,
            tuned: |seed| erase(msa::run_tuned(seed).0),
        }),
    },
    Problem {
        key: "imc",
        name: "IMC",
        citation: "[16]",
        story: "in-map combiner",
        crash: |seed| erase(imc::run_ctime(seed).0),
        itask: |seed| erase(imc::run_itask(seed)),
        detail: Some(Detail {
            data: "Wikipedia FD 49GB",
            config: imc::table1_config,
            tuned: |seed| erase(imc::run_tuned(seed).0),
        }),
    },
    Problem {
        key: "iib",
        name: "IIB",
        citation: "[8]",
        story: "inverted-index building",
        crash: |seed| erase(iib::run_ctime(seed).0),
        itask: |seed| erase(iib::run_itask(seed)),
        detail: Some(Detail {
            data: "Wikipedia FD 49GB",
            config: iib::table1_config,
            tuned: |seed| erase(iib::run_tuned(seed).0),
        }),
    },
    Problem {
        key: "wcm",
        name: "WCM",
        citation: "[15]",
        story: "co-occurrence matrix",
        crash: |seed| erase(wcm::run_ctime(seed).0),
        itask: |seed| erase(wcm::run_itask(seed)),
        detail: Some(Detail {
            data: "Wikipedia FD 49GB",
            config: wcm::table1_config,
            tuned: |seed| erase(wcm::run_tuned(seed).0),
        }),
    },
    Problem {
        key: "crp",
        name: "CRP",
        citation: "[10]",
        story: "review lemmatizer",
        crash: |seed| erase(crp::run_ctime(seed).0),
        itask: |seed| erase(crp::run_itask(seed)),
        detail: Some(Detail {
            data: "Wikipedia SP 5GB",
            config: crp::table1_config,
            tuned: |seed| erase(crp::run_tuned(seed).0),
        }),
    },
    Problem {
        key: "sba",
        name: "SBA",
        citation: "[5]",
        story: "StringBuilder append per key",
        crash: |seed| ctime(&SbaSpec, reported_config(), stackoverflow_splits(seed)),
        itask: |seed| itime(&SbaSpec, reported_config(), stackoverflow_splits(seed)),
        detail: None,
    },
    Problem {
        key: "lsb",
        name: "LSB",
        citation: "[6]",
        story: "oversized spill buffer",
        crash: |seed| ctime(&LsbSpec, lsb_config(), wikipedia_splits(true, seed)),
        itask: |seed| itime(&LsbSpec, lsb_config(), wikipedia_splits(true, seed)),
        detail: None,
    },
    Problem {
        key: "wpp",
        name: "WPP",
        citation: "[7]",
        story: "web parser 30x scratch",
        crash: |seed| ctime(&WppSpec, reported_config(), stackoverflow_splits(seed)),
        itask: |seed| itime(&WppSpec, reported_config(), stackoverflow_splits(seed)),
        detail: None,
    },
    Problem {
        key: "fav",
        name: "FAV",
        citation: "[9]",
        story: "attribute-value frequencies",
        crash: |seed| ctime(&FavSpec, fav_config(), fav_splits(seed)),
        itask: |seed| itime(&FavSpec, fav_config(), fav_splits(seed)),
        detail: None,
    },
    Problem {
        key: "spi",
        name: "SPI",
        citation: "[11]",
        story: "positional index postings",
        crash: |seed| ctime(&SpiSpec, reported_config(), wikipedia_splits(true, seed)),
        itask: |seed| itime(&SpiSpec, reported_config(), wikipedia_splits(true, seed)),
        detail: None,
    },
    Problem {
        key: "hjd",
        name: "HJD",
        citation: "[12]",
        story: "distributed-cache hash join",
        crash: |seed| ctime(&HjdSpec, reported_config(), stackoverflow_splits(seed)),
        itask: |seed| itime(&HjdSpec, reported_config(), stackoverflow_splits(seed)),
        detail: None,
    },
    Problem {
        key: "tfr",
        name: "TFR",
        citation: "[14]",
        story: "whole file as one record",
        crash: |seed| ctime(&TfrSpec, reported_config(), tfr_splits(seed)),
        itask: |seed| itime(&TfrSpec, reported_config(), tfr_splits(seed)),
        detail: None,
    },
    Problem {
        key: "rhm",
        name: "RHM",
        citation: "[17]",
        story: "reducer merge-step blowup",
        crash: |seed| ctime(&RhmSpec, reported_config(), wikipedia_splits(true, seed)),
        itask: |seed| itime(&RhmSpec, reported_config(), wikipedia_splits(true, seed)),
        detail: None,
    },
];
