//! Fixed-bucket log-scale latency histograms with a lock-free record path.
//!
//! The record path is one relaxed atomic increment plus two relaxed
//! atomic read-modify-writes (sum and max) on a **per-worker shard** —
//! no locks, no allocation, no cross-worker cache-line traffic when each
//! worker records through its own [`HistogramRecorder`]. Shards are
//! folded only when a summary is taken.
//!
//! Bucket layout: values `0..=15` map to exact buckets; above that each
//! power-of-two octave is split into four linear sub-buckets, giving a
//! worst-case relative quantile error of about 12.5% across the full
//! `u64` range with a fixed 256-slot table. Nanosecond latencies from
//! 16 ns to minutes therefore land in well-resolved buckets.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of buckets in every histogram.
pub const BUCKETS: usize = 256;

/// Values `0..=LINEAR_MAX` get an exact bucket each.
const LINEAR_MAX: u64 = 15;

/// Sub-bucket resolution: each octave above `LINEAR_MAX` is split into
/// `2^SUB_BITS` linear sub-buckets.
const SUB_BITS: u32 = 2;

/// The bucket a value lands in.
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    if value <= LINEAR_MAX {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let sub = ((value >> (msb - SUB_BITS)) & ((1 << SUB_BITS) - 1)) as usize;
    let octave_base = 16 + (((msb - 4) as usize) << SUB_BITS);
    (octave_base + sub).min(BUCKETS - 1)
}

/// The smallest value that lands in `index` (inverse of [`bucket_index`]).
#[must_use]
pub fn bucket_lower_bound(index: usize) -> u64 {
    if index <= LINEAR_MAX as usize {
        return index as u64;
    }
    let msb = ((index - 16) >> SUB_BITS) as u32 + 4;
    let sub = ((index - 16) & ((1 << SUB_BITS) - 1)) as u64;
    (1u64 << msb) + sub * (1u64 << (msb - SUB_BITS))
}

/// The largest value that lands in `index`.
#[must_use]
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index >= BUCKETS - 1 {
        u64::MAX
    } else {
        bucket_lower_bound(index + 1) - 1
    }
}

/// One worker's private bucket array. Written with relaxed atomics so a
/// fold can run concurrently with recording without a lock.
#[derive(Debug)]
struct Shard {
    counts: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, value: u64) {
        self.counts[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }
}

/// A sharded log-scale histogram. Create one per metric with as many
/// shards as concurrent recorders, hand each worker a
/// [`HistogramRecorder`] for its own shard, and fold on demand with
/// [`Histogram::summary`].
#[derive(Debug)]
pub struct Histogram {
    shards: Box<[Shard]>,
}

impl Histogram {
    /// A histogram with `shards` independent recording shards (≥ 1).
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Histogram {
            shards: (0..shards.max(1)).map(|_| Shard::new()).collect(),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Records `value` into shard `shard % shard_count` — lock-free.
    /// Prefer a per-worker [`HistogramRecorder`] on hot paths.
    pub fn record(&self, shard: usize, value: u64) {
        self.shards[shard % self.shards.len()].record(value);
    }

    /// A recorder bound to one shard (per-worker handle).
    #[must_use]
    pub fn recorder(self: &Arc<Self>, shard: usize) -> HistogramRecorder {
        HistogramRecorder {
            shard: shard % self.shards.len(),
            hist: Arc::clone(self),
        }
    }

    /// Folds every shard into one bucket-count array.
    #[must_use]
    pub fn fold_counts(&self) -> [u64; BUCKETS] {
        let mut folded = [0u64; BUCKETS];
        for shard in self.shards.iter() {
            for (slot, count) in folded.iter_mut().zip(shard.counts.iter()) {
                *slot += count.load(Ordering::Relaxed);
            }
        }
        folded
    }

    /// Folds the shards and computes count/sum/max plus p50/p90/p99.
    #[must_use]
    pub fn summary(&self) -> HistogramSummary {
        let folded = self.fold_counts();
        let count: u64 = folded.iter().sum();
        let sum: u64 = self
            .shards
            .iter()
            .map(|s| s.sum.load(Ordering::Relaxed))
            .sum();
        let max = self
            .shards
            .iter()
            .map(|s| s.max.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0);
        HistogramSummary {
            count,
            sum,
            max,
            p50: quantile(&folded, count, max, 0.50),
            p90: quantile(&folded, count, max, 0.90),
            p99: quantile(&folded, count, max, 0.99),
        }
    }
}

/// Estimates the `q`-quantile from folded bucket counts. Within a bucket
/// the estimate is the bucket midpoint (exact for the linear buckets),
/// clamped to the observed maximum so a sparse top bucket cannot report
/// a value larger than anything recorded.
fn quantile(folded: &[u64; BUCKETS], count: u64, max: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (index, &bucket_count) in folded.iter().enumerate() {
        seen += bucket_count;
        if seen >= rank {
            let lower = bucket_lower_bound(index);
            let upper = bucket_upper_bound(index).min(max);
            return lower.midpoint(upper);
        }
    }
    max
}

/// A per-worker handle recording into one shard of a shared histogram.
#[derive(Debug, Clone)]
pub struct HistogramRecorder {
    hist: Arc<Histogram>,
    shard: usize,
}

impl HistogramRecorder {
    /// Records one value — a few relaxed atomics on a private shard, no
    /// lock acquisition.
    pub fn record(&self, value: u64) {
        self.hist.shards[self.shard].record(value);
    }

    /// The underlying histogram.
    #[must_use]
    pub fn histogram(&self) -> &Arc<Histogram> {
        &self.hist
    }
}

/// Folded percentile summary of a histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Estimated median.
    pub p50: u64,
    /// Estimated 90th percentile.
    pub p90: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

impl HistogramSummary {
    /// Mean of the recorded values (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        for index in 0..BUCKETS - 1 {
            assert_eq!(
                bucket_upper_bound(index) + 1,
                bucket_lower_bound(index + 1),
                "gap between bucket {index} and {}",
                index + 1
            );
        }
        assert_eq!(bucket_lower_bound(0), 0);
        assert_eq!(bucket_upper_bound(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0..=LINEAR_MAX {
            let index = bucket_index(v);
            assert_eq!(bucket_lower_bound(index), v);
            assert_eq!(bucket_upper_bound(index), v);
        }
    }

    #[test]
    fn values_land_within_their_bucket() {
        for v in [16, 17, 31, 32, 1000, 4096, 1 << 20, u64::MAX / 3, u64::MAX] {
            let index = bucket_index(v);
            assert!(bucket_lower_bound(index) <= v, "value {v} bucket {index}");
            assert!(v <= bucket_upper_bound(index), "value {v} bucket {index}");
        }
    }

    #[test]
    fn summary_percentiles_of_uniform_stream() {
        let h = Histogram::new(4);
        for v in 1..=10_000u64 {
            h.record(v as usize, v * 100);
        }
        let s = h.summary();
        assert_eq!(s.count, 10_000);
        assert_eq!(s.max, 1_000_000);
        // Log-scale buckets: estimates within the bucket's ~12.5% width.
        let expect = |q: f64| q * 1_000_000.0;
        for (got, want) in [
            (s.p50, expect(0.50)),
            (s.p90, expect(0.90)),
            (s.p99, expect(0.99)),
        ] {
            let err = (got as f64 - want).abs() / want;
            assert!(err < 0.15, "estimate {got} for target {want} (err {err})");
        }
        assert!((s.mean() - 500_050.0).abs() < 35_000.0);
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = Histogram::new(1).summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99, 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn recorder_targets_its_shard() {
        let h = Arc::new(Histogram::new(2));
        let r0 = h.recorder(0);
        let r1 = h.recorder(1);
        r0.record(5);
        r1.record(7);
        assert_eq!(h.shards[0].counts[5].load(Ordering::Relaxed), 1);
        assert_eq!(h.shards[1].counts[7].load(Ordering::Relaxed), 1);
        assert_eq!(h.summary().count, 2);
    }
}
