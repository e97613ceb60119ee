//! Log2-bucketed histograms.
//!
//! Values land in bucket `bit_length(v)` — bucket 0 holds zeros, bucket
//! `i > 0` holds `[2^(i-1), 2^i)` — so one `u64` range needs 65 buckets.
//! [`Histogram`] is the plain single-owner form; [`AtomicHistogram`]
//! keeps all state in `AtomicU64`, making concurrent recording from
//! sweep worker threads wait-free, and its snapshots are taken with
//! relaxed loads and are therefore approximate only while writers are
//! active. Both yield the same [`HistogramSnapshot`] for the same
//! samples.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets covering the full `u64` range (zeros + 64 bit
/// lengths).
pub const BUCKETS: usize = 65;

fn bucket(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// A histogram of `u64` samples owned by one thread: recording is plain
/// arithmetic, with no atomic read-modify-writes.
#[derive(Debug, Clone)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }

    /// Records one sample. The sum wraps on overflow, as
    /// [`AtomicHistogram`]'s `fetch_add` does.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket(value)] += 1;
    }

    /// Records `n` samples of `value` at once: the same state as `n`
    /// calls to [`record`](Self::record), so a run of equal samples
    /// costs one update. `n = 0` records nothing.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.count += n;
        self.sum = self.sum.wrapping_add(value.wrapping_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket(value)] += n;
    }

    /// A copy of the histogram's state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            log2_buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n > 0)
                .map(|(i, &n)| (i as u8, n))
                .collect(),
        }
    }
}

/// A concurrently-updatable histogram of `u64` samples.
#[derive(Debug)]
pub struct AtomicHistogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [(); BUCKETS].map(|()| AtomicU64::new(0)),
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        self.buckets[bucket(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram's state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        Histogram {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: self.buckets.each_ref().map(|b| b.load(Ordering::Relaxed)),
        }
        .snapshot()
    }
}

/// Immutable summary of a [`Histogram`] or [`AtomicHistogram`] at
/// snapshot time.
///
/// `log2_buckets` lists only non-empty buckets as `(bucket, count)`
/// pairs, where bucket 0 holds zero-valued samples and bucket `i > 0`
/// holds samples in `[2^(i-1), 2^i)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples recorded.
    pub count: u64,
    /// Sum of all samples (wrapping on overflow).
    pub sum: u64,
    /// Smallest sample, or 0 when empty.
    pub min: u64,
    /// Largest sample, or 0 when empty.
    pub max: u64,
    /// Non-empty `(bucket, count)` pairs in bucket order.
    pub log2_buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    /// Arithmetic mean of the samples; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The upper edge of the log2 bucket containing the `q`-quantile
    /// sample (`0.0 < q <= 1.0`), or 0 for an empty histogram.
    ///
    /// This is the log2-histogram percentile estimator the serving
    /// simulator's SLA reports use: the true `q`-quantile sample lies in
    /// the returned bucket, so the estimate upper-bounds it by at most
    /// 2x (the bucket width). Bucket 0 reports 0; bucket `i > 0` reports
    /// `2^i - 1`, the largest value that lands in it.
    ///
    /// # Examples
    ///
    /// ```
    /// use seda_telemetry::AtomicHistogram;
    ///
    /// let h = AtomicHistogram::new();
    /// for v in 1..=1000u64 {
    ///     h.record(v);
    /// }
    /// let s = h.snapshot();
    /// // The median of 1..=1000 is ~500, inside [256, 512).
    /// assert_eq!(s.quantile(0.5), 511);
    /// assert_eq!(s.quantile(1.0), 1023);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics when `q` is not in `(0.0, 1.0]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
        if self.count == 0 {
            return 0;
        }
        // Rank of the q-quantile sample, 1-based: ceil(q * count).
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(bucket, n) in &self.log2_buckets {
            seen += n;
            if seen >= rank {
                return if bucket == 0 {
                    0
                } else if bucket >= 64 {
                    u64::MAX
                } else {
                    (1u64 << bucket) - 1
                };
            }
        }
        // Invariant: bucket counts sum to `count`, so the loop returns.
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_is_zeroed() {
        let s = AtomicHistogram::new().snapshot();
        assert_eq!((s.count, s.sum, s.min, s.max), (0, 0, 0, 0));
        assert!(s.log2_buckets.is_empty());
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn buckets_follow_bit_length() {
        let h = AtomicHistogram::new();
        for v in [0, 1, 2, 3, 4, 1024, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, u64::MAX);
        // 0 → bucket 0; 1 → 1; 2,3 → 2; 4 → 3; 1024 → 11; MAX → 64.
        assert_eq!(
            s.log2_buckets,
            vec![(0, 1), (1, 1), (2, 2), (3, 1), (11, 1), (64, 1)]
        );
    }

    #[test]
    fn quantiles_walk_the_buckets() {
        let h = AtomicHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        // p50 sample is 50, inside [32, 64) → reported as 63.
        assert_eq!(s.quantile(0.5), 63);
        // p99 sample is 99, inside [64, 128) → reported as 127.
        assert_eq!(s.quantile(0.99), 127);
        assert_eq!(s.quantile(1.0), 127);
        // A tiny quantile lands in the first non-empty bucket.
        assert_eq!(s.quantile(0.01), 1);
    }

    #[test]
    fn quantile_handles_zeros_and_extremes() {
        let empty = AtomicHistogram::new().snapshot();
        assert_eq!(empty.quantile(0.99), 0);
        let h = AtomicHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.quantile(1.0), u64::MAX);
    }

    #[test]
    fn plain_and_atomic_histograms_snapshot_alike() {
        let cases: [&[u64]; 5] = [
            &[],
            &[0],
            &[u64::MAX],
            // The sum wraps: MAX + 2 + MAX = 0 (mod 2^64).
            &[u64::MAX, 2, u64::MAX, 0],
            &[5, 1, 1024, 3, 0, 77, 1 << 40, 6],
        ];
        for samples in cases {
            let mut plain = Histogram::new();
            let atomic = AtomicHistogram::new();
            for &v in samples {
                plain.record(v);
                atomic.record(v);
            }
            let snap = plain.snapshot();
            assert_eq!(snap, atomic.snapshot(), "samples {samples:?}");
            let wrapped = samples.iter().fold(0u64, |s, &v| s.wrapping_add(v));
            assert_eq!(snap.sum, wrapped, "samples {samples:?}");
        }
    }

    #[test]
    fn record_n_equals_n_single_records() {
        // Each case records its runs on top of a few prior samples, so
        // min, max and the bucket merge are exercised too.
        let runs: [&[(u64, u64)]; 6] = [
            &[(7, 0)],
            &[(0, 0), (5, 3)],
            &[(u64::MAX, 1), (u64::MAX, 4)],
            // The sum wraps: 3 * (2^63 + 1) mod 2^64 = 2^63 + 3.
            &[(1 << 63 | 1, 3)],
            &[(0, 5), (1, 1), (1024, 9), (3, 0)],
            &[(u64::MAX - 1, 2), (2, 7)],
        ];
        for case in runs {
            let mut batched = Histogram::new();
            let mut single = Histogram::new();
            for h in [&mut batched, &mut single] {
                h.record(9);
                h.record(40);
            }
            for &(value, n) in case {
                batched.record_n(value, n);
                for _ in 0..n {
                    single.record(value);
                }
            }
            assert_eq!(batched.snapshot(), single.snapshot(), "runs {case:?}");
        }
        let mut empty = Histogram::new();
        empty.record_n(3, 0);
        assert_eq!(empty.snapshot(), Histogram::new().snapshot());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = AtomicHistogram::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for v in 0..1000u64 {
                        h.record(v);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, 4000);
        assert_eq!(s.sum, 4 * (999 * 1000 / 2));
    }
}
