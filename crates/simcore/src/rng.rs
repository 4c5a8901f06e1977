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

    /// A sample from a bounded Pareto distribution over `[lo, hi]` with
    /// shape `alpha`; used for heavy-tailed record sizes.
    ///
    /// # Panics
    ///
    /// Panics if `lo == 0`, `lo > hi`, or `alpha <= 0`.
    pub fn bounded_pareto(&mut self, lo: u64, hi: u64, alpha: f64) -> u64 {
        assert!(lo > 0 && lo <= hi, "bounded_pareto bounds");
        assert!(alpha > 0.0, "bounded_pareto alpha");
        let (l, h) = (lo as f64, hi as f64);
        let u = self.unit();
        let la = l.powf(alpha);
        let ha = h.powf(alpha);
        // Inverse-CDF of the bounded Pareto.
        let x = (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha);
        (x as u64).clamp(lo, hi)
    }
}

/// Precomputed inverse-CDF sampler for a Zipf distribution over ranks
/// `0..n` with exponent `s`.
///
/// Rank 0 is the most popular item. Used for word frequencies and hot keys.
#[derive(Clone, Debug)]
pub struct ZipfTable {
    cdf: Vec<f64>,
}

impl ZipfTable {
    /// Builds the cumulative table for `n` ranks and exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s < 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "ZipfTable over zero ranks");
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
        ZipfTable { cdf }
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
        let u = rng.unit();
        // First index whose cumulative mass reaches u.
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

    #[test]
    fn bounded_pareto_respects_bounds() {
        let mut rng = DetRng::new(99);
        for _ in 0..10_000 {
            let v = rng.bounded_pareto(10, 10_000, 1.2);
            assert!((10..=10_000).contains(&v));
        }
    }

    #[test]
    fn bounded_pareto_is_heavy_tailed() {
        let mut rng = DetRng::new(5);
        let n = 50_000;
        let samples: Vec<u64> = (0..n)
            .map(|_| rng.bounded_pareto(10, 1_000_000, 1.1))
            .collect();
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
