//! Deterministic randomness: a seeded RNG plus the skewed samplers the
//! workload generators need (Zipf ranks for hot keys, bounded Pareto for
//! record sizes) and a stable 64-bit hash for partitioning decisions.
//!
//! Nothing in the workspace may consult ambient entropy: every distribution
//! is driven by a [`DetRng`] constructed from an explicit seed so that each
//! table and figure regenerates bit-identically.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A deterministic random number generator.
///
/// Thin wrapper over [`StdRng`] that can only be constructed from an
/// explicit seed, with convenience methods for the simulator's needs.
#[derive(Clone, Debug)]
pub struct DetRng {
    inner: StdRng,
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        DetRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child generator; `label` keeps sibling
    /// streams (e.g. per-split generators) decorrelated.
    pub fn fork(&mut self, label: u64) -> DetRng {
        let s = self.inner.next_u64() ^ stable_hash64(label);
        DetRng::new(s)
    }

    /// A uniform `u64` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        self.inner.gen_range(0..bound)
    }

    /// A uniform `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "index(0)");
        self.inner.gen_range(0..bound)
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen_range(0.0..1.0)
    }

    /// A uniform `u64` in `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range_inclusive({lo}, {hi})");
        self.inner.gen_range(lo..=hi)
    }
}

/// A bounded Pareto distribution over `[lo, hi]` with shape `alpha`;
/// used for heavy-tailed record sizes.
///
/// The powers the inverse CDF needs depend only on the bounds, so they
/// are computed once here rather than on every draw. They come from the
/// same inputs by the same operations as a per-draw computation would,
/// so every sample is bit-identical to one.
#[derive(Clone, Copy, Debug)]
pub struct BoundedPareto {
    lo: u64,
    hi: u64,
    alpha: f64,
    /// `lo^alpha`.
    la: f64,
    /// `hi^alpha`.
    ha: f64,
    /// `hi^alpha * lo^alpha`.
    ha_la: f64,
    /// `-1 / alpha`.
    neg_inv_alpha: f64,
}

impl BoundedPareto {
    /// The distribution over `[lo, hi]` with shape `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `lo == 0`, `lo > hi`, or `alpha <= 0`.
    pub fn new(lo: u64, hi: u64, alpha: f64) -> Self {
        assert!(lo > 0 && lo <= hi, "bounded Pareto bounds [{lo}, {hi}]");
        assert!(alpha > 0.0, "bounded Pareto alpha {alpha}");
        let la = (lo as f64).powf(alpha);
        let ha = (hi as f64).powf(alpha);
        BoundedPareto {
            lo,
            hi,
            alpha,
            la,
            ha,
            ha_la: ha * la,
            neg_inv_alpha: -1.0 / alpha,
        }
    }

    /// Draws a value in `[lo, hi]` from one [`DetRng::unit`].
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        self.at(rng.unit())
    }

    /// The inverse CDF at `u`, clamped to the bounds.
    fn at(&self, u: f64) -> u64 {
        let x = (-(u * self.ha - u * self.la - self.ha) / self.ha_la).powf(self.neg_inv_alpha);
        (x as u64).clamp(self.lo, self.hi)
    }

    /// The analytic mean of the continuous distribution.
    ///
    /// # Panics
    ///
    /// Panics if `alpha == 1`, where the closed form divides by zero.
    pub fn mean(&self) -> f64 {
        let (l, h, a) = (self.lo as f64, self.hi as f64, self.alpha);
        assert!(a != 1.0, "bounded Pareto mean at alpha 1");
        (self.la / (1.0 - (l / h).powf(a)))
            * (a / (a - 1.0))
            * (1.0 / l.powf(a - 1.0) - 1.0 / h.powf(a - 1.0))
    }
}

/// Precomputed inverse-CDF sampler for a Zipf distribution over ranks
/// `0..n` with exponent `s`.
///
/// Rank 0 is the most popular item. Used for word frequencies and hot keys.
///
/// A draw maps `u` to the first rank whose cumulative mass reaches `u`
/// (clamped to `n - 1`) in expected constant time, through a guide table
/// (Chen & Asau's indexed search): `guide[j]` is the first rank whose
/// mass reaches `j / G`, for `G = n.next_power_of_two()`. Because `G` is
/// a power of two, `j / G` and `u * G` are exact, so
/// `floor(u * G) / G <= u` and the answer is never before
/// `guide[floor(u * G)]`; a forward scan from there finds it. Over a
/// strictly increasing table that is exactly the rank a binary search
/// returns, and only the key type of `cdf` would change if it became
/// fixed-point.
#[derive(Clone, Debug)]
pub struct ZipfTable {
    cdf: Vec<f64>,
    guide: Vec<u32>,
}

impl ZipfTable {
    /// Builds the cumulative table for `n` ranks and exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `n > u32::MAX` or `s < 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "ZipfTable over zero ranks");
        assert!(u32::try_from(n).is_ok(), "ZipfTable over {n} ranks");
        assert!(s >= 0.0, "negative Zipf exponent");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        let g = n.next_power_of_two();
        let mut guide = Vec::with_capacity(g);
        let mut i = 0;
        for j in 0..g {
            let floor = j as f64 / g as f64;
            while i < n - 1 && cdf[i] < floor {
                i += 1;
            }
            guide.push(i as u32);
        }
        ZipfTable { cdf, guide }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the table is empty (never true: construction requires n > 0).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws a rank in `0..n`; rank 0 is the hottest.
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        self.rank(rng.unit())
    }

    /// The first rank whose cumulative mass reaches `u` in `[0, 1)`,
    /// clamped to `n - 1`.
    fn rank(&self, u: f64) -> usize {
        let last = self.cdf.len() - 1;
        let mut i = self.guide[(u * self.guide.len() as f64) as usize] as usize;
        while i < last && self.cdf[i] < u {
            i += 1;
        }
        i
    }

    /// The binary search [`rank`](Self::rank) replaced, kept as the
    /// reference the equivalence tests compare against.
    #[cfg(test)]
    fn reference_rank(&self, u: f64) -> usize {
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("NaN in CDF"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// The probability mass of `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn mass(&self, rank: usize) -> f64 {
        if rank == 0 {
            self.cdf[0]
        } else {
            self.cdf[rank] - self.cdf[rank - 1]
        }
    }
}

/// A stable 64-bit mixer (splitmix64 finalizer).
///
/// Used wherever the simulator needs a hash that is identical across runs
/// and platforms — hash-partitioning tuples, deriving tags, forking RNGs.
pub const fn stable_hash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Stable hash of a byte string (FNV-1a folded through splitmix64).
pub fn stable_hash_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    stable_hash64(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.below(1_000_000), b.below(1_000_000));
        }
    }

    #[test]
    fn forks_are_decorrelated() {
        let mut root = DetRng::new(7);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        let s1: Vec<u64> = (0..16).map(|_| c1.below(1000)).collect();
        let s2: Vec<u64> = (0..16).map(|_| c2.below(1000)).collect();
        assert_ne!(s1, s2);
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let table = ZipfTable::new(1000, 1.0);
        let mut rng = DetRng::new(123);
        let mut counts = vec![0u32; 1000];
        for _ in 0..20_000 {
            counts[table.sample(&mut rng)] += 1;
        }
        // Rank 0 must dominate rank 100 by a wide margin.
        assert!(counts[0] > 10 * counts[100].max(1));
        // Mass function sums to ~1.
        let total: f64 = (0..1000).map(|r| table.mass(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let table = ZipfTable::new(10, 0.0);
        for r in 0..10 {
            assert!((table.mass(r) - 0.1).abs() < 1e-12);
        }
    }

    /// Checks the guide-table rank against the binary search at every
    /// `cdf[i]` and its neighbours, at both ends of `[0, 1)`, and at
    /// `draws` uniform `u`.
    fn assert_rank_matches_reference(table: &ZipfTable, draws: usize, seed: u64) {
        let edges = table
            .cdf
            .iter()
            .flat_map(|&c| [c.next_down(), c, c.next_up()])
            .chain([0.0, 1.0 - f64::EPSILON / 2.0]);
        let mut rng = DetRng::new(seed);
        let uniform = (0..draws).map(|_| rng.unit());
        for u in edges.chain(uniform).filter(|u| (0.0..1.0).contains(u)) {
            assert_eq!(
                table.rank(u),
                table.reference_rank(u),
                "n {} u {u:e}",
                table.len()
            );
        }
    }

    fn assert_strictly_increasing(table: &ZipfTable) {
        assert!(
            table.cdf.windows(2).all(|w| w[0] < w[1]),
            "n {} CDF not strictly increasing",
            table.len()
        );
    }

    #[test]
    fn zipf_guide_matches_binary_search_on_fixed_tables() {
        for (n, s) in [
            (65_536, 1.0),
            (1_000, 1.0),
            (10, 0.0),
            (1, 0.0),
            (1, 1.0),
            (1, 2.5),
        ] {
            let table = ZipfTable::new(n, s);
            assert_strictly_increasing(&table);
            assert_rank_matches_reference(&table, 1_000_000, n as u64);
        }
    }

    #[test]
    fn zipf_guide_matches_binary_search_on_random_tables() {
        let mut rng = DetRng::new(2024);
        for n in [2, 3, 4, 5, 1023, 1024, 1025, 1 << 17] {
            let s = rng.unit() * 1.5;
            let table = ZipfTable::new(n, s);
            assert_strictly_increasing(&table);
            assert_rank_matches_reference(&table, 100_000, n as u64);
        }
        for _ in 0..8 {
            let n = rng.range_inclusive(1, 1 << 17) as usize;
            let s = rng.unit() * 1.5;
            let table = ZipfTable::new(n, s);
            assert_strictly_increasing(&table);
            assert_rank_matches_reference(&table, 100_000, n as u64);
        }
    }

    #[test]
    fn word_table_is_strictly_increasing_and_ends_at_one() {
        // The one table the workload generators build.
        let table = ZipfTable::new(65_536, 1.0);
        assert_strictly_increasing(&table);
        assert_eq!(table.cdf[table.len() - 1], 1.0);
    }

    /// The per-draw formula [`BoundedPareto`] replaced.
    fn reference_pareto_at(u: f64, lo: u64, hi: u64, alpha: f64) -> u64 {
        let (l, h) = (lo as f64, hi as f64);
        let la = l.powf(alpha);
        let ha = h.powf(alpha);
        let x = (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha);
        (x as u64).clamp(lo, hi)
    }

    /// The closed-form mean the generators computed per record.
    fn reference_pareto_mean(l: f64, h: f64, a: f64) -> f64 {
        let la = l.powf(a);
        (la / (1.0 - (l / h).powf(a)))
            * (a / (a - 1.0))
            * (1.0 / l.powf(a - 1.0) - 1.0 / h.powf(a - 1.0))
    }

    #[test]
    fn bounded_pareto_matches_per_draw_formula_at_every_call_site() {
        // Wikipedia sentences, StackOverflow posts, and webmap degrees at
        // every Table 3 size's `dmax`.
        let mut sites = vec![(30, 16 * 1024, 1.6), (64, 64 * 1024, 1.25)];
        for dmax in [172_547, 121_109, 71_741, 17_463, 9_229, 3_048, 16] {
            sites.push((1, dmax, 1.7));
        }
        let mut rng = DetRng::new(31);
        for (lo, hi, alpha) in sites {
            let p = BoundedPareto::new(lo, hi, alpha);
            for u in (0..100_000)
                .map(|_| rng.unit())
                .chain([0.0, 1.0 - f64::EPSILON / 2.0])
            {
                assert_eq!(p.at(u), reference_pareto_at(u, lo, hi, alpha), "u {u:e}");
            }
            let want = reference_pareto_mean(lo as f64, hi as f64, alpha);
            assert_eq!(p.mean().to_bits(), want.to_bits(), "({lo}, {hi}, {alpha})");
        }
    }

    #[test]
    fn bounded_pareto_respects_bounds() {
        let mut rng = DetRng::new(99);
        let p = BoundedPareto::new(10, 10_000, 1.2);
        for _ in 0..10_000 {
            let v = p.sample(&mut rng);
            assert!((10..=10_000).contains(&v));
        }
    }

    #[test]
    fn bounded_pareto_is_heavy_tailed() {
        let mut rng = DetRng::new(5);
        let n = 50_000;
        let p = BoundedPareto::new(10, 1_000_000, 1.1);
        let samples: Vec<u64> = (0..n).map(|_| p.sample(&mut rng)).collect();
        let small = samples.iter().filter(|&&v| v < 100).count();
        let big = samples.iter().filter(|&&v| v > 100_000).count();
        // Most mass near the floor, but a real tail exists.
        assert!(small > n / 2);
        assert!(big > 0);
    }

    #[test]
    fn stable_hashes_are_stable() {
        assert_eq!(stable_hash64(0), stable_hash64(0));
        assert_ne!(stable_hash64(1), stable_hash64(2));
        assert_eq!(stable_hash_bytes(b"word"), stable_hash_bytes(b"word"));
        assert_ne!(stable_hash_bytes(b"word"), stable_hash_bytes(b"word2"));
    }
}
