//! The other eight of the paper's 13 reproduced StackOverflow problems
//! (§6.1 details five — MSA, IMC, IIB, WCM, CRP — and reports that the
//! ITask versions of *all 13* survived their memory pressure; paper
//! references \[5\]–\[17\]). Each is a spec, a dataset and the
//! configuration it crashes under; [`super::PROBLEMS`] runs them regular
//! and as ITasks.
//!
//! Root causes follow the paper's §2 taxonomy — hot keys or large
//! intermediate results — expressed through the same levers as the
//! detailed five: preloaded tables, per-record scratch spikes, unbounded
//! buffers, giant records, and reduce-side aggregation state.

use hadoop::HadoopConfig;
use simcore::{jbloat, ByteSize};
use workloads::stackoverflow::Post;
use workloads::tpch::{LineItem, TpchConfig, TpchScale};
use workloads::wikipedia::Article;

use crate::agg::AggSpec;
use crate::mids::{CountMid, ListMid, OutKv, StripeMid};

use super::{wikipedia_splits, NODES};

/// The configuration SBA, WPP, SPI, HJD, TFR and RHM were reported
/// under: MH=RH=1GB, MM=MR=6.
pub fn reported_config() -> HadoopConfig {
    HadoopConfig::table1(NODES, 1024, 1024, 6, 6)
}

/// Mean heap cost of one appended value inside the string builder.
const SBA_APPEND_BYTES: u32 = 620;

/// Spec for problem \[5\], StringBuilder append: concatenating every
/// value of a key into one ever-growing string — hot keys build
/// megabyte strings.
#[derive(Clone, Debug, Default)]
pub struct SbaSpec;

impl AggSpec for SbaSpec {
    type In = Post;
    type Mid = ListMid;
    type Out = OutKv;

    fn explode(&self, rec: &Post, out: &mut Vec<ListMid>) {
        // Group by a coarse key; every appended value retains ~600B of
        // builder payload (`ListMid` accounts uniform item sizes, so the
        // mean appended-string cost is used).
        out.push(ListMid::one(
            rec.id % 12,
            rec.body_chars,
            520,
            SBA_APPEND_BYTES,
        ));
    }

    fn finish(&self, mid: ListMid) -> OutKv {
        OutKv {
            key: mid.key,
            value: mid.items().iter().sum(),
        }
    }
}

/// Spec for problem \[6\], large spill buffer: io.sort.mb misconfigured
/// to nearly the whole map heap — the framework buffer leaves no room
/// for anything else. The spec is an ordinary word count; the bug is
/// pure configuration.
#[derive(Clone, Debug, Default)]
pub struct LsbSpec;

impl AggSpec for LsbSpec {
    type In = Article;
    type Mid = CountMid;
    type Out = OutKv;

    fn explode(&self, rec: &Article, out: &mut Vec<CountMid>) {
        for &w in &rec.words {
            out.push(CountMid::one(w as u64, 136));
        }
    }

    fn finish(&self, mid: CountMid) -> OutKv {
        mid.into()
    }
}

/// Problem \[6\]'s configuration: the reported misconfiguration, a
/// spill buffer nearly the size of the map heap. The ITask runtime does
/// not use the per-task sort buffer at all — its partitions are managed
/// by the IRS — so the same setting is harmless there.
pub fn lsb_config() -> HadoopConfig {
    let mut cfg = HadoopConfig::table1(NODES, 512, 1024, 13, 6);
    cfg.sort_buffer = ByteSize::kib(440);
    cfg
}

/// Spec for problem \[7\], web parser: a DOM parse whose scratch memory
/// is ~30x the page.
#[derive(Clone, Debug, Default)]
pub struct WppSpec;

impl AggSpec for WppSpec {
    type In = Post;
    type Mid = CountMid;
    type Out = OutKv;

    fn explode(&self, rec: &Post, out: &mut Vec<CountMid>) {
        // Count pages per score bucket once parsed.
        out.push(CountMid::one((rec.score.unsigned_abs() % 64) as u64, 136));
    }

    fn finish(&self, mid: CountMid) -> OutKv {
        mid.into()
    }

    fn scratch_bytes(&self, rec: &Post) -> u64 {
        // The DOM tree of the page being parsed.
        jbloat::string(rec.body_chars) * 30
    }
}

/// Spec for problem \[9\], frequencies of attribute values: counting
/// every distinct (attribute, value) pair — the reduce-side table spans
/// the cross product.
#[derive(Clone, Debug, Default)]
pub struct FavSpec;

impl AggSpec for FavSpec {
    type In = LineItem;
    type Mid = CountMid;
    type Out = OutKv;

    fn explode(&self, rec: &LineItem, out: &mut Vec<CountMid>) {
        // (supplier, quantity) and (supplier, line number) value pairs.
        out.push(CountMid::one(
            rec.suppkey * 64 + rec.quantity as u64 % 64,
            168,
        ));
        out.push(CountMid::one(
            0x8000_0000_0000 + rec.suppkey * 16 + rec.linenumber as u64 % 16,
            168,
        ));
    }

    fn finish(&self, mid: CountMid) -> OutKv {
        mid.into()
    }
}

/// Problem \[9\]'s dataset: TPC-H 100x lineitems as splits.
pub fn fav_splits(seed: u64) -> Vec<Vec<LineItem>> {
    let cfg = TpchConfig::preset(TpchScale::X100, seed);
    (0..cfg.lineitems)
        .step_by(1_100)
        .map(|k| cfg.lineitem_block(k, 1_100))
        .collect()
}

/// Problem \[9\]'s configuration: MH=1GB, RH=0.5GB, MM=MR=6.
pub fn fav_config() -> HadoopConfig {
    HadoopConfig::table1(NODES, 1024, 512, 6, 6)
}

/// Spec for problem \[11\], sharded positional indexer: IIB with
/// per-posting position payloads — the heaviest reduce-side state of
/// the set.
#[derive(Clone, Debug, Default)]
pub struct SpiSpec;

impl AggSpec for SpiSpec {
    type In = Article;
    type Mid = ListMid;
    type Out = OutKv;

    fn explode(&self, rec: &Article, out: &mut Vec<ListMid>) {
        let mut distinct: Vec<u32> = rec.words.clone();
        distinct.sort_unstable();
        distinct.dedup();
        for w in distinct {
            // Posting with a positions list: far heavier than IIB's.
            out.push(ListMid::one(w as u64, rec.id, 392, 160));
        }
    }

    fn finish(&self, mid: ListMid) -> OutKv {
        OutKv {
            key: mid.key,
            value: mid.items().len() as u64,
        }
    }
}

/// Spec for problem \[12\], hash join using distributed cache: every
/// mapper deserializes the cached build table into its own heap.
#[derive(Clone, Debug, Default)]
pub struct HjdSpec;

impl AggSpec for HjdSpec {
    type In = Post;
    type Mid = CountMid;
    type Out = OutKv;

    fn explode(&self, rec: &Post, out: &mut Vec<CountMid>) {
        // Join each post against the cached table; count matches per
        // shard.
        out.push(CountMid::one(rec.id % 256, 136));
    }

    fn finish(&self, mid: CountMid) -> OutKv {
        mid.into()
    }

    fn init_bytes(&self) -> u64 {
        // The distributed-cache table, deserialized per task JVM.
        760 * 1024
    }

    fn scratch_bytes(&self, rec: &Post) -> u64 {
        jbloat::string(rec.body_chars) * 2
    }
}

/// Spec for problem \[14\], text file as a record: whole
/// multi-hundred-KB files handed to the mapper as single records.
#[derive(Clone, Debug, Default)]
pub struct TfrSpec;

/// A whole file as one record.
#[derive(Clone, Debug)]
pub struct WholeFile {
    /// File id.
    pub id: u64,
    /// File size in characters.
    pub chars: u64,
}

impl itask_core::Tuple for WholeFile {
    fn heap_bytes(&self) -> u64 {
        jbloat::string(self.chars)
    }

    fn ser_bytes(&self) -> u64 {
        self.chars
    }
}

impl AggSpec for TfrSpec {
    type In = WholeFile;
    type Mid = CountMid;
    type Out = OutKv;

    fn explode(&self, rec: &WholeFile, out: &mut Vec<CountMid>) {
        out.push(CountMid {
            key: rec.id % 32,
            count: rec.chars,
            entry_bytes: 136,
        });
    }

    fn finish(&self, mid: CountMid) -> OutKv {
        mid.into()
    }
}

/// Problem \[14\]'s dataset: the Wikipedia sample regrouped into whole
/// files of ~0.5MB each.
pub fn tfr_splits(seed: u64) -> Vec<Vec<WholeFile>> {
    let articles = wikipedia_splits(false, seed);
    let mut files = Vec::new();
    let mut acc = 0u64;
    let mut id = 0u64;
    for split in articles {
        for a in split {
            acc += a.chars;
            if acc >= 600 * 1024 {
                files.push(vec![WholeFile { id, chars: acc }]);
                id += 1;
                acc = 0;
            }
        }
    }
    if acc > 0 {
        files.push(vec![WholeFile { id, chars: acc }]);
    }
    files
}

/// Spec for problem \[17\], reducer hang at the merge step:
/// co-occurrence stripes with outsized merge buffers on the reduce side.
#[derive(Clone, Debug, Default)]
pub struct RhmSpec;

impl AggSpec for RhmSpec {
    type In = Article;
    type Mid = StripeMid;
    type Out = OutKv;

    fn explode(&self, rec: &Article, out: &mut Vec<StripeMid>) {
        for w in rec.words.windows(2) {
            out.push(StripeMid::pair(w[0] as u64, w[1], 196, 96));
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
