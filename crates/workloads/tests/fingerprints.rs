//! Literal fingerprints of generated datasets, captured before the
//! samplers behind them were rewritten for speed. Every engine, table
//! and benchmark `sim_digest` reads these bytes, so a host-side change
//! to a generator or to `simcore::rng` must leave every pin as it is;
//! a change to the datasets themselves moves them on purpose and
//! re-captures.
//!
//! Each fingerprint folds every field of every record of every block,
//! in generation order. The Wikipedia full dump is ~17 M word draws per
//! seed, so its pins run in release builds only.

use simcore::rng::stable_hash64;
use simcore::ByteSize;
use workloads::{
    StackOverflowConfig, TpchConfig, TpchScale, WebmapConfig, WebmapSize, WikipediaConfig,
};

const SEEDS: [u64; 4] = [1, 4, 7, 42];

/// An order-sensitive fold over a stream of words.
struct Fold(u64);

impl Fold {
    fn new() -> Self {
        Fold(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        self.0 = stable_hash64(self.0 ^ x);
    }

    fn words(&mut self, xs: impl IntoIterator<Item = u64>) {
        let mut n = 0u64;
        for x in xs {
            self.word(x);
            n += 1;
        }
        self.word(n);
    }
}

fn wikipedia(cfg: &WikipediaConfig, block_size: ByteSize) -> u64 {
    let mut f = Fold::new();
    for b in 0..cfg.num_blocks(block_size) {
        for a in cfg.block(b, block_size) {
            f.word(a.id);
            f.word(a.chars);
            f.words(a.words.iter().map(|&w| w as u64));
            f.words(a.sentence_chars.iter().map(|&c| c as u64));
        }
    }
    f.0
}

fn webmap(size: WebmapSize, seed: u64) -> u64 {
    let cfg = WebmapConfig::preset(size, seed);
    let bs = ByteSize::kib(128);
    let mut f = Fold::new();
    for b in 0..cfg.num_blocks(bs) {
        for r in cfg.block(b, bs) {
            f.word(r.vertex);
            f.words(r.neighbors.iter().copied());
        }
    }
    f.0
}

fn stackoverflow(seed: u64) -> u64 {
    let cfg = StackOverflowConfig::full_dump(seed);
    let bs = ByteSize::kib(128);
    let mut f = Fold::new();
    for b in 0..cfg.num_blocks(bs) {
        for p in cfg.block(b, bs) {
            f.words([p.id, p.body_chars, p.answers as u64, p.score as u64]);
        }
    }
    f.0
}

fn tpch(seed: u64) -> u64 {
    let cfg = TpchConfig::preset(TpchScale::X10, seed);
    let mut f = Fold::new();
    for c in cfg.customer_block(0, cfg.customers) {
        f.words([c.custkey, c.nationkey as u64, c.acctbal as u64]);
    }
    for o in cfg.order_block(0, cfg.orders) {
        f.words([
            o.orderkey,
            o.custkey,
            o.totalprice as u64,
            o.orderdate as u64,
        ]);
    }
    for l in cfg.lineitem_block(0, cfg.lineitems) {
        f.words([
            l.orderkey,
            l.linenumber as u64,
            l.suppkey,
            l.quantity as u64,
            l.extendedprice as u64,
        ]);
    }
    f.0
}

/// Captured at [`SEEDS`] on the generators as they stood before the
/// guide-table Zipf sampler and the precomputed bounded Pareto.
#[rustfmt::skip]
mod pins {
    pub const WIKIPEDIA_SAMPLE_128K: [u64; 4] = [17389521134079457709, 7950905798409558790, 6448545496471992193, 1491154830380472595];
    pub const WIKIPEDIA_FULL_128K: [u64; 4] = [16151591710063233586, 11395135417839703076, 10232784449071957297, 7413603048329310051];
    pub const WIKIPEDIA_FULL_64K: [u64; 4] = [12745509726137628863, 7726080973388999301, 36877486958477199, 18322565291486607904];
    pub const WEBMAP_G3: [u64; 4] = [11033655093292145050, 8720517884135095679, 9650958483434388019, 7646895887541230379];
    pub const WEBMAP_G10: [u64; 4] = [945049420159566062, 13899815057048323192, 7824122071074275124, 3695843583582564204];
    pub const STACKOVERFLOW: [u64; 4] = [6786430924316064576, 10462131227617387525, 10074535538120582688, 6269939923449127367];
    pub const TPCH_X10: [u64; 4] = [8047971809478805797, 651435453836661619, 10621317198588370418, 9225596903667141325];
}

/// Checks `got(seed)` against the pinned value for every seed.
fn check(what: &str, want: [u64; 4], got: impl Fn(u64) -> u64) {
    let got: Vec<u64> = SEEDS.iter().map(|&s| got(s)).collect();
    assert_eq!(got, want, "{what} at seeds {SEEDS:?}");
}

#[test]
fn wikipedia_sample_fingerprints_hold() {
    check(
        "wikipedia sample 128KiB",
        pins::WIKIPEDIA_SAMPLE_128K,
        |s| wikipedia(&WikipediaConfig::sample(s), ByteSize::kib(128)),
    );
}

#[test]
fn wikipedia_full_dump_fingerprints_hold() {
    if cfg!(debug_assertions) {
        eprintln!("skipping the full-dump pins in debug mode; run with --release to cover them");
        return;
    }
    for (kib, want) in [
        (128, pins::WIKIPEDIA_FULL_128K),
        (64, pins::WIKIPEDIA_FULL_64K),
    ] {
        check(&format!("wikipedia full_dump {kib}KiB"), want, |s| {
            wikipedia(&WikipediaConfig::full_dump(s), ByteSize::kib(kib))
        });
    }
}

#[test]
fn webmap_fingerprints_hold() {
    check("webmap 3GB", pins::WEBMAP_G3, |s| webmap(WebmapSize::G3, s));
    check("webmap 10GB", pins::WEBMAP_G10, |s| {
        webmap(WebmapSize::G10, s)
    });
}

#[test]
fn stackoverflow_fingerprints_hold() {
    check("stackoverflow", pins::STACKOVERFLOW, stackoverflow);
}

#[test]
fn tpch_fingerprints_hold() {
    check("tpch 10x", pins::TPCH_X10, tpch);
}
