//! Bounded HDR-style log-bucketed histograms.
//!
//! [`SampleSeries`](crate::SampleSeries) keeps every sample exactly, which
//! is fine for a one-shot load test but unbounded on an always-on serving
//! path. [`LogHistogram`] is the production counterpart: a fixed array of
//! [`HIST_BUCKET_COUNT`] counters whose bucket edges grow geometrically
//! ([`HIST_SUB_BUCKETS`] buckets per factor-of-two octave, starting at
//! [`HIST_MIN_VALUE`]), so memory is constant, recording is one array
//! increment, and any quantile is readable with bounded relative error —
//! one bucket width, i.e. a factor of `2^(1/8) ≈ 1.0905`.
//!
//! Exact `count`/`sum`/`min`/`max` are carried alongside the buckets, so
//! mean and extremes stay exact and quantile estimates can be clamped into
//! `[min, max]`. Histograms with the same (compile-time) bucket scheme
//! merge by adding counters, which is how per-thread or per-cohort
//! histograms combine into a fleet view.
//!
//! Bucket semantics follow Prometheus: bucket `i` counts samples `v` with
//! `v ≤ upper_edge(i)` and `v > upper_edge(i-1)`; bucket 0 catches
//! everything at or below [`HIST_MIN_VALUE`] (including zero and negative
//! values) and the last bucket catches overflow. With 60 octaves above
//! 1e-9, the covered range ends near 1.15e9, so any plausible latency in
//! seconds — or milliseconds — lands in a real bucket.

use serde::{Deserialize, Serialize};

use crate::SampleSummary;

/// Upper edge of bucket 0; values at or below this (seconds, typically)
/// are indistinguishable from "instant".
pub const HIST_MIN_VALUE: f64 = 1e-9;

/// Buckets per octave (factor of two). 8 gives ~9.05% worst-case relative
/// quantile error — comfortably inside "one bucket width" for SLO math.
pub const HIST_SUB_BUCKETS: u32 = 8;

/// Octaves covered above [`HIST_MIN_VALUE`].
const HIST_OCTAVES: usize = 60;

/// Total bucket count; fixes the memory footprint at
/// `HIST_BUCKET_COUNT * 8` bytes of counters per histogram.
pub const HIST_BUCKET_COUNT: usize = HIST_OCTAVES * HIST_SUB_BUCKETS as usize;

/// Multiplicative width of one bucket: `2^(1/HIST_SUB_BUCKETS)`.
pub fn hist_bucket_growth() -> f64 {
    (1.0 / HIST_SUB_BUCKETS as f64).exp2()
}

/// Upper edge of bucket `index`: `HIST_MIN_VALUE · 2^(index / 8)`.
pub fn hist_bucket_upper_edge(index: usize) -> f64 {
    HIST_MIN_VALUE * (index as f64 / HIST_SUB_BUCKETS as f64).exp2()
}

/// Index of the bucket whose range contains `value`.
fn bucket_index(value: f64) -> usize {
    if value.is_nan() || value <= HIST_MIN_VALUE {
        // NaN, ≤ MIN, zero, negative — all land in the catch-all bottom bucket
        return 0;
    }
    let sub_octaves = (value / HIST_MIN_VALUE).log2() * HIST_SUB_BUCKETS as f64;
    // smallest i with value ≤ upper_edge(i); ceil keeps edges inclusive
    (sub_octaves.ceil() as usize).min(HIST_BUCKET_COUNT - 1)
}

/// Fixed-memory log-bucketed histogram; see the module docs.
#[derive(Clone, Debug, PartialEq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: vec![0; HIST_BUCKET_COUNT],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl LogHistogram {
    /// Creates an empty histogram (allocates its bucket array once).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample. Allocation-free. Non-finite values are dropped,
    /// matching [`SampleSeries`](crate::SampleSeries).
    #[inline]
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.counts[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples (exact).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest sample (exact); `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (!self.is_empty()).then_some(self.min)
    }

    /// Largest sample (exact); `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (!self.is_empty()).then_some(self.max)
    }

    /// Arithmetic mean (exact); `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (!self.is_empty()).then_some(self.sum / self.count as f64)
    }

    /// Adds every sample of `other` into `self`. Both sides share the
    /// compile-time bucket scheme, so this is exact bucket addition.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile estimate (`0.0 ≤ q ≤ 1.0`): the upper edge of the
    /// bucket holding the nearest-rank sample, clamped into `[min, max]`.
    /// The estimate never undershoots the exact nearest-rank value and
    /// overshoots by at most one bucket width (×1.0905). `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.is_empty() {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(hist_bucket_upper_edge(i).min(self.max).max(self.min));
            }
        }
        unreachable!("bucket counts always sum to the total count")
    }

    /// The p99.9 estimate — the long-tail number the exact
    /// [`SampleSummary`] does not carry. `None` when empty.
    pub fn p999(&self) -> Option<f64> {
        self.quantile(0.999)
    }

    /// Summarizes as the same [`SampleSummary`] shape the exact path
    /// produces, so report schemas stay unchanged: count/min/max/mean are
    /// exact, percentiles are bucket-resolution estimates.
    pub fn summary(&self) -> Option<SampleSummary> {
        if self.is_empty() {
            return None;
        }
        Some(SampleSummary {
            count: self.count as usize,
            min: self.min,
            max: self.max,
            mean: self.sum / self.count as f64,
            p50: self.quantile(0.50).expect("non-empty"),
            p95: self.quantile(0.95).expect("non-empty"),
            p99: self.quantile(0.99).expect("non-empty"),
        })
    }

    /// Copies the non-empty buckets out as a compact [`HistogramSnapshot`]
    /// for reports and Prometheus exposition.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .counts
                .iter()
                .enumerate()
                .filter(|(_, c)| **c > 0)
                .map(|(i, c)| HistBucket { le: hist_bucket_upper_edge(i), count: *c })
                .collect(),
            count: self.count,
            sum: self.sum,
            min: self.min().unwrap_or(f64::NAN),
            max: self.max().unwrap_or(f64::NAN),
        }
    }
}

/// One non-empty histogram bucket: `count` samples at or below `le`
/// (and above the previous snapshot bucket's `le`).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistBucket {
    /// Inclusive upper edge of the bucket.
    pub le: f64,
    /// Samples in this bucket (non-cumulative).
    pub count: u64,
}

/// Serializable sparse copy of a [`LogHistogram`]: only the non-empty
/// buckets, in ascending `le` order, plus the exact moments.
#[derive(Clone, Debug, PartialEq, Default, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Exact sum of samples.
    pub sum: f64,
    /// Exact smallest sample (`NaN` when empty).
    pub min: f64,
    /// Exact largest sample (`NaN` when empty).
    pub max: f64,
    /// Non-empty buckets, ascending by `le`, counts non-cumulative.
    pub buckets: Vec<HistBucket>,
}

impl HistogramSnapshot {
    /// Same estimator as [`LogHistogram::quantile`], over the sparse
    /// buckets. `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for b in &self.buckets {
            seen += b.count;
            if seen >= rank {
                return Some(b.le.min(self.max).max(self.min));
            }
        }
        unreachable!("snapshot buckets always sum to the total count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SampleSeries;

    #[test]
    fn empty_histogram_has_no_stats() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.summary(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert!(h.snapshot().buckets.is_empty());
    }

    #[test]
    fn single_sample_is_every_percentile_exactly() {
        // the clamp into [min, max] collapses every quantile of a
        // single-sample histogram to the sample itself
        let mut h = LogHistogram::new();
        h.record(3.25);
        let s = h.summary().unwrap();
        assert_eq!((s.count, s.min, s.max, s.mean), (1, 3.25, 3.25, 3.25));
        assert_eq!((s.p50, s.p95, s.p99), (3.25, 3.25, 3.25));
        assert_eq!(h.p999(), Some(3.25));
    }

    #[test]
    fn bucket_edges_grow_geometrically() {
        let growth = hist_bucket_growth();
        assert!((growth - 2f64.powf(0.125)).abs() < 1e-15);
        assert_eq!(hist_bucket_upper_edge(0), HIST_MIN_VALUE);
        assert!(
            (hist_bucket_upper_edge(HIST_SUB_BUCKETS as usize) / HIST_MIN_VALUE - 2.0).abs()
                < 1e-12
        );
        for i in 1..64 {
            let ratio = hist_bucket_upper_edge(i) / hist_bucket_upper_edge(i - 1);
            assert!((ratio - growth).abs() < 1e-12, "bucket {i} ratio {ratio}");
        }
    }

    #[test]
    fn extreme_values_land_in_edge_buckets_without_panicking() {
        let mut h = LogHistogram::new();
        h.record(0.0);
        h.record(-5.0);
        h.record(1e-12); // below MIN
        h.record(1e300); // far above the covered range
        h.record(f64::NAN); // dropped
        assert_eq!(h.len(), 4);
        assert_eq!(h.min(), Some(-5.0));
        assert_eq!(h.max(), Some(1e300));
        let snap = h.snapshot();
        assert_eq!(snap.buckets.first().unwrap().count, 3, "bottom catch-all bucket");
        assert_eq!(snap.buckets.last().unwrap().count, 1, "top overflow bucket");
    }

    #[test]
    fn quantiles_agree_with_exact_percentiles_within_one_bucket() {
        // the acceptance bound for replacing the exact SampleSeries path:
        // estimate never undershoots, never overshoots by more than one
        // bucket width (2^(1/8))
        let growth = hist_bucket_growth();
        let mut series = SampleSeries::new();
        let mut h = LogHistogram::new();
        let mut x = 0x243f6a8885a308d3u64; // deterministic xorshift
        for _ in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // log-uniform over roughly [1e-4, 10] — a latency-like spread
            let v = 1e-4 * (5.0 * (x as f64 / u64::MAX as f64)).exp2().powi(2);
            series.record(v);
            h.record(v);
        }
        for q in [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let exact = series.quantile(q).unwrap();
            let est = h.quantile(q).unwrap();
            assert!(est >= exact * (1.0 - 1e-12), "q={q}: est {est} undershoots exact {exact}");
            assert!(
                est <= exact * growth * (1.0 + 1e-12),
                "q={q}: est {est} more than one bucket above exact {exact}"
            );
        }
        // exact moments are exact, not estimates
        let s = series.summary().unwrap();
        let hs = h.summary().unwrap();
        assert_eq!(hs.count, s.count);
        assert_eq!(hs.min, s.min);
        assert_eq!(hs.max, s.max);
        assert!((hs.mean - s.mean).abs() < 1e-12 * s.mean.abs());
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut whole = LogHistogram::new();
        for i in 1..=50 {
            a.record(i as f64 * 1e-3);
            whole.record(i as f64 * 1e-3);
        }
        for i in 51..=100 {
            b.record(i as f64 * 1e-3);
            whole.record(i as f64 * 1e-3);
        }
        a.merge(&b);
        // sums differ only by addition order, so compare them approximately
        // and everything else exactly
        assert_eq!(a.snapshot().buckets, whole.snapshot().buckets);
        assert!((a.sum() - whole.sum()).abs() < 1e-12);
        assert_eq!(a.len(), 100);
        assert_eq!(a.min(), Some(1e-3));
        assert_eq!(a.max(), Some(0.1));
    }

    #[test]
    fn snapshot_quantile_matches_histogram_quantile() {
        let mut h = LogHistogram::new();
        for i in 1..=1000 {
            h.record(i as f64 * 2.5e-4);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.buckets.iter().map(|b| b.count).sum::<u64>(), 1000);
        for q in [0.0, 0.25, 0.5, 0.95, 0.99, 0.999, 1.0] {
            assert_eq!(snap.quantile(q), h.quantile(q), "q={q}");
        }
        // sparse buckets are sorted ascending by edge
        for w in snap.buckets.windows(2) {
            assert!(w[0].le < w[1].le);
        }
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn out_of_range_quantile_panics() {
        let mut h = LogHistogram::new();
        h.record(1.0);
        let _ = h.quantile(1.5);
    }
}
