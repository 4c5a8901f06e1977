//! Property tests pinning `QuantileSketch` against exact sorted
//! quantiles.
//!
//! The service's byte-identical latency tables depend on the sketch
//! being (a) exact while samples fit in one level-0 buffer and (b) a
//! bounded-rank-error summary once compaction kicks in. Both are
//! checked here against brute-force order statistics, as is the merge
//! path the per-tenant aggregation uses.

use proptest::prelude::*;
use simcore::sketch::QuantileSketch;

/// Exact order statistic matching `QuantileSketch::quantile`'s rank
/// convention: rank `ceil(q*n)` clamped to `[1, n]`, 1-indexed.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let target = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(target - 1) as usize]
}

/// Rank distance of `got` from the target rank of `q` in `sorted`:
/// zero when `got` occupies a position covering the target rank,
/// otherwise how many ranks off the nearest occurrence is.
fn rank_error(sorted: &[u64], q: f64, got: u64) -> u64 {
    let n = sorted.len() as u64;
    let target = ((q * n as f64).ceil() as u64).clamp(1, n);
    // Ranks occupied by `got`: (lo, hi] in 1-indexed terms.
    let lo = sorted.partition_point(|&v| v < got) as u64;
    let hi = sorted.partition_point(|&v| v <= got) as u64;
    if target <= lo {
        lo + 1 - target
    } else if target > hi {
        target - hi.max(1)
    } else {
        0
    }
}

const QS: [f64; 3] = [0.5, 0.9, 0.99];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Below one buffer's capacity nothing compacts, so every quantile
    /// is an exact order statistic.
    #[test]
    fn exact_while_uncompacted(samples in proptest::collection::vec(0u64..1_000_000, 1..400)) {
        let mut s = QuantileSketch::new(512);
        for &v in &samples {
            s.insert(v);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        prop_assert_eq!(s.count(), samples.len() as u64);
        prop_assert_eq!(s.min(), sorted[0]);
        prop_assert_eq!(s.max(), *sorted.last().unwrap());
        for q in QS {
            prop_assert_eq!(s.quantile(q), exact_quantile(&sorted, q));
        }
    }

    /// Past capacity the sketch compacts; p50/p90/p99 must stay within
    /// a 10%-of-n rank window of the true order statistic, and
    /// count/min/max stay exact (they never go through compaction).
    #[test]
    fn compacted_rank_error_is_bounded(
        samples in proptest::collection::vec(0u64..1_000_000, 200..3_000),
    ) {
        let mut s = QuantileSketch::new(64);
        for &v in &samples {
            s.insert(v);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let n = sorted.len() as u64;
        prop_assert_eq!(s.count(), n);
        prop_assert_eq!(s.min(), sorted[0]);
        prop_assert_eq!(s.max(), *sorted.last().unwrap());
        let tolerance = (n / 10).max(2);
        for q in QS {
            let got = s.quantile(q);
            let err = rank_error(&sorted, q, got);
            prop_assert!(
                err <= tolerance,
                "q={}: got {} is {} ranks off (n={}, tolerance {})",
                q, got, err, n, tolerance
            );
        }
    }

    /// Merging two sketches must answer like a sketch of the
    /// concatenated stream: count/min/max exactly, quantiles within the
    /// same rank window measured against the exact concatenation.
    #[test]
    fn merge_matches_concatenated_stream(
        left in proptest::collection::vec(0u64..1_000_000, 1..1_500),
        right in proptest::collection::vec(0u64..1_000_000, 1..1_500),
    ) {
        let mut a = QuantileSketch::new(64);
        for &v in &left {
            a.insert(v);
        }
        let mut b = QuantileSketch::new(64);
        for &v in &right {
            b.insert(v);
        }
        a.merge(&b);

        let mut sorted: Vec<u64> = left.iter().chain(right.iter()).copied().collect();
        sorted.sort_unstable();
        let n = sorted.len() as u64;
        prop_assert_eq!(a.count(), n);
        prop_assert_eq!(a.min(), sorted[0]);
        prop_assert_eq!(a.max(), *sorted.last().unwrap());
        let tolerance = (n / 10).max(2);
        for q in QS {
            let got = a.quantile(q);
            let err = rank_error(&sorted, q, got);
            prop_assert!(
                err <= tolerance,
                "q={}: merged {} is {} ranks off (n={}, tolerance {})",
                q, got, err, n, tolerance
            );
        }
    }

    /// Merging an empty sketch is the identity, in either direction.
    #[test]
    fn merge_with_empty_is_identity(
        samples in proptest::collection::vec(0u64..1_000_000, 1..500),
    ) {
        let mut s = QuantileSketch::new(64);
        for &v in &samples {
            s.insert(v);
        }
        let before: Vec<u64> = QS.iter().map(|&q| s.quantile(q)).collect();

        s.merge(&QuantileSketch::new(64));
        let after: Vec<u64> = QS.iter().map(|&q| s.quantile(q)).collect();
        prop_assert_eq!(&before, &after);
        prop_assert_eq!(s.count(), samples.len() as u64);

        let mut empty = QuantileSketch::new(64);
        empty.merge(&s);
        prop_assert_eq!(empty.count(), s.count());
        prop_assert_eq!(empty.min(), s.min());
        prop_assert_eq!(empty.max(), s.max());
    }
}

/// The scale service's accounting shape at 10^5 samples: samples land
/// round-robin in per-shard sketches which merge in shard order. The
/// merged summary must agree with an unsharded sketch of the same
/// stream — count/min/max exactly, quantiles within the compaction
/// rank window of the true order statistics — and re-merging the same
/// shards must be deterministic. (Byte-equality with the unsharded
/// sketch is *not* claimed: compaction points differ.)
#[test]
fn shard_merge_matches_unsharded_at_1e5_samples() {
    const N: u64 = 100_000;
    const SHARDS: usize = 4;

    // Deterministic splitmix64 stream, values spread over ~1e6.
    let sample = |i: u64| {
        let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % 1_000_000
    };

    let merged_of = || {
        let mut shards = vec![QuantileSketch::default(); SHARDS];
        for i in 0..N {
            shards[(i % SHARDS as u64) as usize].insert(sample(i));
        }
        let mut merged = QuantileSketch::default();
        for s in &shards {
            merged.merge(s);
        }
        merged
    };
    let merged = merged_of();

    let mut unsharded = QuantileSketch::default();
    let mut sorted = Vec::with_capacity(N as usize);
    for i in 0..N {
        unsharded.insert(sample(i));
        sorted.push(sample(i));
    }
    sorted.sort_unstable();

    assert_eq!(merged.count(), N);
    assert_eq!(merged.count(), unsharded.count());
    assert_eq!(merged.min(), unsharded.min());
    assert_eq!(merged.max(), unsharded.max());
    assert_eq!(merged.min(), sorted[0]);
    assert_eq!(merged.max(), *sorted.last().unwrap());

    let tolerance = N / 10;
    for q in QS {
        for (label, got) in [
            ("merged", merged.quantile(q)),
            ("unsharded", unsharded.quantile(q)),
        ] {
            let err = rank_error(&sorted, q, got);
            assert!(
                err <= tolerance,
                "q={q}: {label} {got} is {err} ranks off (n={N}, tolerance {tolerance})"
            );
        }
    }

    // Same shards, same merge order: identical answers every time.
    let again = merged_of();
    assert_eq!(again.count(), merged.count());
    for q in QS {
        assert_eq!(
            again.quantile(q),
            merged.quantile(q),
            "re-merge diverged at q={q}"
        );
    }
}
