//! Log2-bucket histogram: the value type the Prometheus fold
//! ([`crate::prometheus`]) accumulates event durations into.
//!
//! 64 fixed buckets — bucket *i* holds values whose bit length is *i*
//! (i.e. `v < 2^i`) — so adding a sample is a `leading_zeros` and the
//! dump gets clean power-of-two `le` boundaries for free.

/// Number of log2 buckets; covers u64's full range.
const BUCKETS: usize = 64;

/// Fixed log2-bucket histogram of u64 samples (typically microseconds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Raw (non-cumulative) bucket counts.
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; BUCKETS], count: 0, sum: 0 }
    }
}

impl Histogram {
    /// Bucket index for a sample: the sample's bit length (clamped into
    /// the top bucket), so bucket `i` counts samples `v` with `v < 2^i`
    /// exclusive of lower buckets.
    fn bucket_index(v: u64) -> usize {
        ((u64::BITS - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    pub(crate) fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub(crate) fn sum(&self) -> u64 {
        self.sum
    }

    /// `(le, cumulative count)` per bucket, skipping the empty low tail;
    /// bucket `i`'s inclusive upper bound is `2^i - 1`.
    pub(crate) fn cumulative(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut cum = 0u64;
        self.buckets.iter().enumerate().filter_map(move |(i, b)| {
            if *b == 0 && cum == 0 {
                return None;
            }
            cum += b;
            let le = if i >= 63 { u64::MAX } else { (1u64 << i) - 1 };
            Some((le, cum))
        })
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`, e.g. `0.95` for p95) by
    /// linear interpolation inside the log2 bucket holding that rank.
    /// Bucket `i` spans `[2^(i-1), 2^i - 1]` (bucket 0 is exactly 0), so
    /// the estimate is within one power of two of the true value — the
    /// usual trade for O(1) fixed-footprint histograms. Returns 0 when
    /// empty.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            if *b > 0 && cum + b >= rank {
                let lo = if i == 0 { 0u64 } else { 1u64 << (i - 1) };
                let hi = if i >= 63 { u64::MAX } else { (1u64 << i).saturating_sub(1) };
                let frac = (rank - cum) as f64 / *b as f64;
                return lo as f64 + frac * (hi - lo) as f64;
            }
            cum += b;
        }
        u64::MAX as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 63); // clamped into the top bucket
    }

    #[test]
    fn histogram_observe_counts_and_sums() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 3, 1000, 100_000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 101_006);
        let cum: Vec<(u64, u64)> = h.cumulative().collect();
        assert_eq!(cum.first(), Some(&(1, 1)), "the empty low tail is skipped");
        assert_eq!(cum.last().map(|c| c.1), Some(5));
    }

    #[test]
    fn percentiles_from_log_buckets() {
        let mut h = Histogram::default();
        assert_eq!(h.percentile(0.5), 0.0, "empty histogram reports 0");
        // 100 samples of exactly 1: every quantile sits in bucket 1 = [1,1].
        for _ in 0..100 {
            h.observe(1);
        }
        assert_eq!(h.percentile(0.5), 1.0);
        assert_eq!(h.percentile(0.99), 1.0);
        // Add 100 large samples in [1024, 2047] (bucket 11).
        for _ in 0..100 {
            h.observe(1500);
        }
        assert_eq!(h.percentile(0.25), 1.0, "low quantile stays in the small bucket");
        let p95 = h.percentile(0.95);
        assert!((1024.0..=2047.0).contains(&p95), "p95={p95} should land in [1024,2047]");
        // Quantiles are monotone in q.
        assert!(h.percentile(0.5) <= h.percentile(0.95));
        assert!(h.percentile(0.95) <= h.percentile(0.99));
    }
}
