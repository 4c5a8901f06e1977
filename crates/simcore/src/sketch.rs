//! A deterministic quantile sketch (Munro–Paterson style compacting
//! buffers) shared by every layer that accounts latencies.
//!
//! Originally private to `simserve` (SLO latency accounting), the
//! sketch moved here so the metrics plane ([`crate::metrics`]), the SMR
//! commit tail, and the trace analyzers all fold samples through one
//! implementation. Sorting every sample would be exact but O(n log n)
//! memory; a sketch with `k`-slot buffers per level keeps memory at
//! O(k log(n/k)) with a deterministic, platform-independent answer —
//! the same inserts in the same order always produce the same
//! quantiles, which the byte-identical tables and metric dumps depend
//! on.
//!
//! Exactness: with fewer than `k` samples everything sits in level 0
//! with weight 1, so quantiles are exact order statistics — the common
//! case for per-tenant latencies in a bounded sweep.

/// Deterministic quantile sketch over `u64` samples.
///
/// An empty sketch is two words and owns no heap: everything else
/// appears with the first sample.
#[derive(Clone, Debug)]
pub struct QuantileSketch {
    /// Buffer capacity per level (compaction threshold).
    k: usize,
    /// `None` until the first insert or non-empty merge.
    body: Option<Box<Body>>,
}

/// What a sketch holds once it has seen a sample.
#[derive(Clone, Debug)]
struct Body {
    /// levels[l] holds values of weight `2^l`, unsorted between carries.
    levels: Vec<Vec<u64>>,
    /// Per-level survivor-offset toggle (alternates to cancel the
    /// half-sample bias of each compaction).
    toggles: Vec<bool>,
    count: u64,
    min: u64,
    max: u64,
}

impl QuantileSketch {
    /// Default buffer size: exact up to 256 samples, ~2KB per level after.
    pub const DEFAULT_K: usize = 256;

    /// Creates an empty sketch with buffer capacity `k` (min 2, rounded
    /// up to even so compaction halves exactly). Allocates nothing.
    pub fn new(k: usize) -> Self {
        let k = k.max(2) + (k.max(2) & 1);
        QuantileSketch { k, body: None }
    }

    /// Number of samples inserted.
    pub fn count(&self) -> u64 {
        self.body.as_ref().map_or(0, |b| b.count)
    }

    /// Whether any sample was inserted.
    pub fn is_empty(&self) -> bool {
        self.body.is_none()
    }

    /// Smallest sample (`0` when empty).
    pub fn min(&self) -> u64 {
        self.body.as_ref().map_or(0, |b| b.min)
    }

    /// Largest sample (`0` when empty).
    pub fn max(&self) -> u64 {
        self.body.as_ref().map_or(0, |b| b.max)
    }

    /// Inserts one sample.
    pub fn insert(&mut self, v: u64) {
        let k = self.k;
        let b = self.body_mut();
        b.count += 1;
        b.min = b.min.min(v);
        b.max = b.max.max(v);
        b.level(0).push(v);
        b.carry(k, 0);
    }

    /// Merges another sketch into this one (buffer capacities need not
    /// match; the receiver's `k` governs).
    pub fn merge(&mut self, other: &QuantileSketch) {
        let Some(o) = &other.body else {
            return;
        };
        let k = self.k;
        let b = self.body_mut();
        b.count += o.count;
        b.min = b.min.min(o.min);
        b.max = b.max.max(o.max);
        for (level, vals) in o.levels.iter().enumerate() {
            b.level(level).extend_from_slice(vals);
            b.carry(k, level);
        }
    }

    /// The `q`-quantile (`0.0 ≤ q ≤ 1.0`) as a weighted rank walk over
    /// the sketch's (value, weight) pairs. Returns `0` when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let Some(b) = &self.body else {
            return 0;
        };
        if q <= 0.0 {
            return b.min;
        }
        if q >= 1.0 {
            return b.max;
        }
        let mut pairs: Vec<(u64, u64)> = Vec::new();
        let mut total: u64 = 0;
        for (level, vals) in b.levels.iter().enumerate() {
            let w = 1u64 << level;
            for &v in vals {
                pairs.push((v, w));
                total += w;
            }
        }
        pairs.sort_unstable();
        // Target rank in [1, total]; integer arithmetic keeps the walk
        // exactly reproducible.
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (v, w) in pairs {
            seen += w;
            if seen >= target {
                return v;
            }
        }
        b.max
    }

    /// One deterministic read of the whole distribution: count, range
    /// and the standard reporting quantiles (p50/p90/p99/p99.9). Every
    /// consumer — `metricsctl` rollups, `tracectl` tail lines, the
    /// OpenMetrics snapshot — reads this instead of re-deriving its own
    /// quantile set.
    pub fn snapshot(&self) -> SketchSnapshot {
        SketchSnapshot {
            count: self.count(),
            min: self.min(),
            max: self.max(),
            p50: self.quantile(0.5),
            p90: self.quantile(0.9),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
        }
    }

    /// The body, created empty on first use.
    fn body_mut(&mut self) -> &mut Body {
        self.body.get_or_insert_with(|| {
            Box::new(Body {
                levels: Vec::new(),
                toggles: Vec::new(),
                count: 0,
                min: u64::MAX,
                max: 0,
            })
        })
    }
}

impl Body {
    /// The buffer of `level`, growing the level stack to reach it.
    fn level(&mut self, level: usize) -> &mut Vec<u64> {
        while self.levels.len() <= level {
            self.levels.push(Vec::new());
            self.toggles.push(false);
        }
        &mut self.levels[level]
    }

    /// Compacts `level` (and cascades) while it holds `k` or more
    /// values: the buffer is sorted and every other value is promoted
    /// with doubled weight, alternating the surviving offset per carry.
    fn carry(&mut self, k: usize, mut level: usize) {
        while self.levels[level].len() >= k {
            let mut buf = std::mem::take(&mut self.levels[level]);
            buf.sort_unstable();
            let offset = usize::from(self.toggles[level]);
            self.toggles[level] = !self.toggles[level];
            // Odd leftover (merge can overfill past an even k) stays put.
            if buf.len() % 2 == 1 {
                let last = buf.pop().expect("non-empty buffer");
                self.levels[level].push(last);
            }
            let promoted = buf.iter().copied().skip(offset).step_by(2);
            self.level(level + 1).extend(promoted);
            level += 1;
        }
    }
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new(Self::DEFAULT_K)
    }
}

/// A point-in-time summary of a [`QuantileSketch`] (nanosecond samples
/// unless a caller says otherwise).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SketchSnapshot {
    /// Samples folded in.
    pub count: u64,
    /// Smallest sample (`0` when empty).
    pub min: u64,
    /// Largest sample (`0` when empty).
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

/// Formats virtual nanoseconds as milliseconds with 3 decimals —
/// the shared rendering every latency line uses.
pub fn fmt_ms(ns: u64) -> String {
    format!("{:.3}ms", ns as f64 / 1e6)
}

impl SketchSnapshot {
    /// The body-quantile latency line (`n=.. p50=.. p90=.. max=..`)
    /// used by per-run rollups; `"n=0"` when empty.
    pub fn mid_line(&self) -> String {
        if self.count == 0 {
            "n=0".to_string()
        } else {
            format!(
                "n={:<5} p50={:<10} p90={:<10} max={}",
                self.count,
                fmt_ms(self.p50),
                fmt_ms(self.p90),
                fmt_ms(self.max),
            )
        }
    }

    /// Like [`SketchSnapshot::mid_line`] but with the tail quantiles an
    /// SLO lens needs: commit latencies are judged at p99/p99.9, not
    /// p90.
    pub fn tail_line(&self) -> String {
        if self.count == 0 {
            "n=0".to_string()
        } else {
            format!(
                "n={:<5} p50={:<10} p99={:<10} p99.9={:<10} max={}",
                self.count,
                fmt_ms(self.p50),
                fmt_ms(self.p99),
                fmt_ms(self.p999),
                fmt_ms(self.max),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_capacity() {
        let mut s = QuantileSketch::new(64);
        for v in (1..=50u64).rev() {
            s.insert(v * 10);
        }
        assert_eq!(s.count(), 50);
        assert_eq!(s.min(), 10);
        assert_eq!(s.max(), 500);
        assert_eq!(s.quantile(0.5), 250);
        assert_eq!(s.quantile(0.0), 10);
        assert_eq!(s.quantile(1.0), 500);
        // Exact order statistics: q=0.02 is the 1st of 50.
        assert_eq!(s.quantile(0.02), 10);
        assert_eq!(s.quantile(0.98), 490);
    }

    #[test]
    fn empty_sketch_answers_zero() {
        let s = QuantileSketch::default();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.snapshot(), SketchSnapshot::default());
        assert_eq!(s.snapshot().mid_line(), "n=0");
        assert_eq!(s.snapshot().tail_line(), "n=0");
    }

    #[test]
    fn compacted_quantiles_stay_close() {
        let mut s = QuantileSketch::new(32);
        // 10_000 samples of a known uniform ramp, inserted in a
        // scrambled but deterministic order.
        let n = 10_000u64;
        for i in 0..n {
            s.insert((i * 7919) % n);
        }
        assert_eq!(s.count(), n);
        for (q, want) in [(0.5, n / 2), (0.95, n * 95 / 100), (0.99, n * 99 / 100)] {
            let got = s.quantile(q);
            let err = got.abs_diff(want) as f64 / n as f64;
            assert!(err < 0.05, "q={q}: got {got}, want ~{want}");
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let build = || {
            let mut s = QuantileSketch::new(16);
            for i in 0..5_000u64 {
                s.insert(i.wrapping_mul(6364136223846793005).wrapping_add(i) % 100_000);
            }
            (s.quantile(0.5), s.quantile(0.95), s.quantile(0.99))
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn merge_matches_sequential_insertion() {
        let mut all = QuantileSketch::new(16);
        let mut a = QuantileSketch::new(16);
        let mut b = QuantileSketch::new(16);
        for i in 0..2_000u64 {
            let v = (i * 31) % 977;
            all.insert(v);
            if i % 2 == 0 {
                a.insert(v);
            } else {
                b.insert(v);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        for q in [0.5, 0.95, 0.99] {
            let (ma, mb) = (a.quantile(q), all.quantile(q));
            let err = ma.abs_diff(mb) as f64 / 977.0;
            assert!(err < 0.08, "q={q}: merged {ma} vs sequential {mb}");
        }
    }

    #[test]
    fn merge_is_associative_within_error() {
        // Compaction toggles make the two association orders distinct
        // code paths; counts/extrema must agree exactly and quantiles
        // within the sketch's error envelope.
        let part = |seed: u64| {
            let mut s = QuantileSketch::new(16);
            for i in 0..1_500u64 {
                s.insert((i.wrapping_mul(2862933555777941757).wrapping_add(seed)) % 10_000);
            }
            s
        };
        let (a, b, c) = (part(1), part(2), part(3));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left.count(), right.count());
        assert_eq!(left.min(), right.min());
        assert_eq!(left.max(), right.max());
        for q in [0.5, 0.9, 0.99] {
            let (l, r) = (left.quantile(q), right.quantile(q));
            let err = l.abs_diff(r) as f64 / 10_000.0;
            assert!(err < 0.08, "q={q}: (a+b)+c={l} vs a+(b+c)={r}");
        }
    }

    #[test]
    fn snapshot_lines_render_quantiles() {
        let mut s = QuantileSketch::new(1024);
        for i in 1..=1000u64 {
            s.insert(i * 1_000_000); // 1..=1000 ms
        }
        let snap = s.snapshot();
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.p50, 500_000_000);
        assert_eq!(snap.p99, s.quantile(0.99));
        assert_eq!(snap.p999, s.quantile(0.999));
        let tail = snap.tail_line();
        assert!(tail.starts_with("n=1000  p50=500.000ms"), "{tail}");
        assert!(tail.contains("p99.9="), "{tail}");
        assert!(tail.ends_with("max=1000.000ms"), "{tail}");
        let mid = snap.mid_line();
        assert!(mid.starts_with("n=1000  p50=500.000ms"), "{mid}");
        assert!(mid.ends_with("max=1000.000ms"), "{mid}");
        assert_eq!(fmt_ms(1_500_000), "1.500ms");
    }
}
