//! A step function of virtual time, rebuilt from a run's trace stream
//! by the two timeline figures (`fig3`'s heap sawtooth, `fig11(c)`'s
//! instance counts).

use simcore::SimTime;

/// Timestamped values in non-decreasing time order; each value holds
/// until the next point.
#[derive(Clone, Debug, Default)]
pub struct Series {
    /// The points, oldest first.
    pub points: Vec<(SimTime, f64)>,
}

impl Series {
    /// Appends a point; an out-of-order timestamp is clamped to the
    /// last point's so the series stays monotonic.
    pub fn push(&mut self, at: SimTime, value: f64) {
        let at = self.points.last().map_or(at, |&(last, _)| at.max(last));
        self.points.push((at, value));
    }

    /// The last point's timestamp (`ZERO` for an empty series).
    pub fn end(&self) -> SimTime {
        self.points.last().map_or(SimTime::ZERO, |&(at, _)| at)
    }

    /// The maximum value seen, or 0.0 for an empty series.
    pub fn max_value(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).fold(0.0, f64::max)
    }

    /// The time-weighted mean over `[first point, last point]`.
    pub fn time_weighted_mean(&self) -> f64 {
        let mut area = 0.0;
        for w in self.points.windows(2) {
            area += w[0].1 * w[1].0.since(w[0].0).as_secs_f64();
        }
        let span = match self.points.first() {
            Some(&(first, _)) => self.end().since(first).as_secs_f64(),
            None => 0.0,
        };
        if span == 0.0 {
            self.points.last().map_or(0.0, |&(_, v)| v)
        } else {
            area / span
        }
    }

    /// Samples the step function on `buckets` equal-width buckets over
    /// `[0, end]`, keeping each bucket's maximum (peaks matter for
    /// memory plots): the value carried in from the previous bucket or
    /// any point inside this one. An empty bucket holds the previous
    /// value; before the first point the function is 0.
    pub fn bucket_max(&self, buckets: usize, end: SimTime) -> Vec<f64> {
        let end_ns = end.as_nanos() as u128;
        let mut out = Vec::with_capacity(buckets);
        let (mut carry, mut i) = (0.0f64, 0);
        for b in 1..=buckets {
            // Bucket b covers [(b-1)·end/n, b·end/n); the last is closed.
            let hi = end_ns * b as u128 / buckets as u128;
            let mut peak = carry;
            while let Some(&(at, v)) = self.points.get(i) {
                if (at.as_nanos() as u128) >= hi && b < buckets {
                    break;
                }
                peak = peak.max(v);
                carry = v;
                i += 1;
            }
            out.push(peak);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    fn series(points: &[(u64, f64)]) -> Series {
        let mut s = Series::default();
        points.iter().for_each(|&(at, v)| s.push(t(at), v));
        s
    }

    #[test]
    fn push_clamps_and_statistics_weigh_by_time() {
        assert_eq!(series(&[(5, 1.0), (3, 2.0)]).points[1].0, t(5));
        // 10 for 10s then 30 for 10s => mean 20.
        let s = series(&[(0, 10.0), (10, 30.0), (20, 10.0)]);
        assert_eq!((s.max_value(), s.end()), (30.0, t(20)));
        assert!((s.time_weighted_mean() - 20.0).abs() < 1e-9);
        assert_eq!(series(&[(4, 7.0)]).time_weighted_mean(), 7.0);
        let empty = Series::default();
        assert_eq!((empty.max_value(), empty.time_weighted_mean()), (0.0, 0.0));
        assert_eq!(empty.bucket_max(3, t(9)), vec![0.0; 3]);
    }

    #[test]
    fn buckets_are_time_not_sample_count() {
        // 99 points crowd the first second; one spike sits at t = 57.
        let mut s = Series::default();
        (0..99).for_each(|i| s.push(SimTime::from_nanos(i * 10_000_000), 1.0));
        s.push(t(57), 999.0);
        s.push(t(58), 2.0);
        // Empty buckets hold the previous value, the spike lands in the
        // bucket covering [50, 60), the trough after it carries on.
        let b = s.bucket_max(10, t(100));
        assert_eq!(b, [1.0, 1.0, 1.0, 1.0, 1.0, 999.0, 2.0, 2.0, 2.0, 2.0]);
        // The last bucket is closed at `end`.
        assert_eq!(
            series(&[(0, 1.0), (10, 5.0)]).bucket_max(2, t(10)),
            [1.0, 5.0]
        );
    }
}
