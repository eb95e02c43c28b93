//! Statistics gathering: online summaries, bucketed histograms and CDFs.
//!
//! The paper reports its results as cumulative distribution functions of
//! idle-period lengths (Fig. 12(a)/(b)) and as normalized percentages
//! (energy, performance). [`BucketHistogram`] reproduces the bucketed CDF
//! with the exact bucket edges used by the paper, and [`OnlineStats`]
//! provides streaming mean/min/max/variance without storing samples.

use std::fmt;

use crate::SimDuration;

/// Streaming summary statistics (count, mean, variance, min, max) using
/// Welford's algorithm.
///
/// # Example
///
/// ```
/// use simkit::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 3);
/// assert!((s.mean() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty summary.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, or 0 when fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A histogram over half-open duration buckets `(edge[i-1], edge[i]]`, with a
/// final overflow bucket for samples above the last edge.
///
/// The default edges are the ones the paper uses for its idle-period CDFs:
/// 5, 10, 50, 100, 500, 1 000, 5 000, 10 000, 20 000, 30 000, 40 000 and
/// 50 000 ms, plus a `50 000+` overflow bucket.
///
/// # Example
///
/// ```
/// use simkit::stats::BucketHistogram;
/// use simkit::SimDuration;
///
/// let mut h = BucketHistogram::paper_idle_buckets();
/// h.record(SimDuration::from_millis(3));
/// h.record(SimDuration::from_millis(700));
/// let cdf = h.cdf();
/// assert_eq!(cdf.len(), 13);
/// assert!((cdf[0].1 - 0.5).abs() < 1e-12); // <=5ms bucket holds half the mass
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BucketHistogram {
    /// Upper edges of each bucket, strictly increasing.
    edges: Vec<SimDuration>,
    /// Counts per bucket; `counts.len() == edges.len() + 1` (last = overflow).
    counts: Vec<u64>,
    total: u64,
}

impl BucketHistogram {
    /// Creates a histogram with the given strictly-increasing bucket edges.
    ///
    /// # Panics
    ///
    /// Panics if `edges` is empty or not strictly increasing.
    pub fn new(edges: Vec<SimDuration>) -> Self {
        assert!(
            !edges.is_empty(),
            "histogram needs at least one bucket edge"
        );
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "histogram edges must be strictly increasing"
        );
        let counts = vec![0; edges.len() + 1];
        BucketHistogram {
            edges,
            counts,
            total: 0,
        }
    }

    /// The bucket edges used in the paper's Fig. 12 idle-period CDFs.
    pub fn paper_idle_buckets() -> Self {
        let ms = [
            5u64, 10, 50, 100, 500, 1_000, 5_000, 10_000, 20_000, 30_000, 40_000, 50_000,
        ];
        BucketHistogram::new(ms.iter().map(|&m| SimDuration::from_millis(m)).collect())
    }

    /// Records one sample.
    pub fn record(&mut self, value: SimDuration) {
        let idx = self
            .edges
            .iter()
            .position(|&e| value <= e)
            .unwrap_or(self.edges.len());
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Total number of recorded samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Raw per-bucket counts (last entry is the overflow bucket).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Bucket edges.
    pub fn edges(&self) -> &[SimDuration] {
        &self.edges
    }

    /// Returns the cumulative distribution: for each bucket edge, the
    /// fraction of samples at or below it, ending with the overflow bucket at
    /// fraction 1.0. Labels are `(upper_edge, cumulative_fraction)`; the
    /// overflow entry reuses the last edge as its label.
    ///
    /// Returns an empty vector when no samples have been recorded.
    pub fn cdf(&self) -> Vec<(SimDuration, f64)> {
        if self.total == 0 {
            return Vec::new();
        }
        let mut acc = 0u64;
        let mut out = Vec::with_capacity(self.counts.len());
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            let edge = self
                .edges
                .get(i)
                .or_else(|| self.edges.last())
                .copied()
                .unwrap_or(SimDuration::MAX);
            out.push((edge, acc as f64 / self.total as f64));
        }
        out
    }

    /// Fraction of samples at or below `value` (linear in the number of
    /// buckets; exact at bucket edges, bucket-granular in between).
    pub fn fraction_at_or_below(&self, value: SimDuration) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mut acc = 0u64;
        for (i, &e) in self.edges.iter().enumerate() {
            if e <= value {
                acc += self.counts[i];
            } else {
                break;
            }
        }
        acc as f64 / self.total as f64
    }

    /// Merges another histogram with identical edges into this one.
    ///
    /// # Panics
    ///
    /// Panics if the edge vectors differ.
    pub fn merge(&mut self, other: &BucketHistogram) {
        assert_eq!(
            self.edges, other.edges,
            "cannot merge histograms with different bucket edges"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }
}

impl fmt::Display for BucketHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (edge, frac) in self.cdf() {
            writeln!(f, "<= {:>12}  {:6.2}%", edge.to_string(), frac * 100.0)?;
        }
        Ok(())
    }
}

/// A histogram over the same duration buckets as [`BucketHistogram`], but
/// accumulating the *total time* falling in each bucket rather than the
/// count — the view that says where the idle time (and hence the energy
/// opportunity) actually lives.
///
/// # Example
///
/// ```
/// use simkit::stats::DurationHistogram;
/// use simkit::SimDuration;
///
/// let mut h = DurationHistogram::paper_idle_buckets();
/// h.record(SimDuration::from_millis(3));      // 3 ms of sub-5ms idle
/// h.record(SimDuration::from_secs(60));       // a minute-long idle
/// // Virtually all idle *time* is in the long bucket even though the
/// // short bucket holds half the *periods*.
/// let share = h.share_at_or_below(SimDuration::from_secs(1));
/// assert!(share < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DurationHistogram {
    edges: Vec<SimDuration>,
    totals: Vec<SimDuration>,
    grand_total: SimDuration,
}

impl DurationHistogram {
    /// Creates a histogram with the given strictly-increasing bucket edges.
    ///
    /// # Panics
    ///
    /// Panics if `edges` is empty or not strictly increasing.
    pub fn new(edges: Vec<SimDuration>) -> Self {
        assert!(
            !edges.is_empty(),
            "histogram needs at least one bucket edge"
        );
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "histogram edges must be strictly increasing"
        );
        let totals = vec![SimDuration::ZERO; edges.len() + 1];
        DurationHistogram {
            edges,
            totals,
            grand_total: SimDuration::ZERO,
        }
    }

    /// The paper's Fig. 12 bucket edges.
    pub fn paper_idle_buckets() -> Self {
        let ms = [
            5u64, 10, 50, 100, 500, 1_000, 5_000, 10_000, 20_000, 30_000, 40_000, 50_000,
        ];
        DurationHistogram::new(ms.iter().map(|&m| SimDuration::from_millis(m)).collect())
    }

    /// Adds one period of the given length: its entire duration lands in
    /// the bucket its length selects.
    pub fn record(&mut self, value: SimDuration) {
        let idx = self
            .edges
            .iter()
            .position(|&e| value <= e)
            .unwrap_or(self.edges.len());
        self.totals[idx] += value;
        self.grand_total += value;
    }

    /// Total recorded time.
    pub fn total(&self) -> SimDuration {
        self.grand_total
    }

    /// Per-bucket time totals (last entry is the overflow bucket).
    pub fn totals(&self) -> &[SimDuration] {
        &self.totals
    }

    /// The share (0..=1) of total time contributed by periods of length at
    /// most `value` (bucket-granular).
    pub fn share_at_or_below(&self, value: SimDuration) -> f64 {
        if self.grand_total.is_zero() {
            return 0.0;
        }
        let mut acc = SimDuration::ZERO;
        for (i, &e) in self.edges.iter().enumerate() {
            if e <= value {
                acc += self.totals[i];
            } else {
                break;
            }
        }
        acc.as_secs_f64() / self.grand_total.as_secs_f64()
    }

    /// The cumulative time distribution, analogous to
    /// [`BucketHistogram::cdf`].
    pub fn cdf(&self) -> Vec<(SimDuration, f64)> {
        if self.grand_total.is_zero() {
            return Vec::new();
        }
        let mut acc = SimDuration::ZERO;
        let mut out = Vec::with_capacity(self.totals.len());
        for (i, &t) in self.totals.iter().enumerate() {
            acc += t;
            let edge = self
                .edges
                .get(i)
                .or_else(|| self.edges.last())
                .copied()
                .unwrap_or(SimDuration::MAX);
            out.push((edge, acc.as_secs_f64() / self.grand_total.as_secs_f64()));
        }
        out
    }

    /// Merges another histogram with identical edges.
    ///
    /// # Panics
    ///
    /// Panics if the edges differ.
    pub fn merge(&mut self, other: &DurationHistogram) {
        assert_eq!(
            self.edges, other.edges,
            "cannot merge histograms with different bucket edges"
        );
        for (a, b) in self.totals.iter_mut().zip(&other.totals) {
            *a += *b;
        }
        self.grand_total += other.grand_total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basics() {
        let mut s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &xs[..37] {
            left.push(x);
        }
        for &x in &xs[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(3.0);
        let before = a.clone();
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);
        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn histogram_buckets_samples() {
        let mut h = BucketHistogram::paper_idle_buckets();
        h.record(SimDuration::from_millis(5)); // boundary: goes to first bucket
        h.record(SimDuration::from_millis(6)); // second bucket
        h.record(SimDuration::from_secs(100)); // overflow
        assert_eq!(h.total(), 3);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[1], 1);
        assert_eq!(*h.counts().last().unwrap(), 1);
    }

    #[test]
    fn cdf_reaches_one() {
        let mut h = BucketHistogram::paper_idle_buckets();
        for m in [1u64, 8, 40, 90, 450, 900, 4_000, 9_000, 60_000] {
            h.record(SimDuration::from_millis(m));
        }
        let cdf = h.cdf();
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
        // Monotone non-decreasing.
        assert!(cdf.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn fraction_at_or_below() {
        let mut h = BucketHistogram::paper_idle_buckets();
        h.record(SimDuration::from_millis(3));
        h.record(SimDuration::from_millis(70));
        h.record(SimDuration::from_millis(70_000));
        assert!((h.fraction_at_or_below(SimDuration::from_millis(5)) - 1.0 / 3.0).abs() < 1e-12);
        assert!((h.fraction_at_or_below(SimDuration::from_millis(100)) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_cdf_is_empty() {
        let h = BucketHistogram::paper_idle_buckets();
        assert!(h.cdf().is_empty());
        assert_eq!(h.fraction_at_or_below(SimDuration::from_secs(1)), 0.0);
    }

    #[test]
    fn histogram_merge() {
        let mut a = BucketHistogram::paper_idle_buckets();
        let mut b = BucketHistogram::paper_idle_buckets();
        a.record(SimDuration::from_millis(1));
        b.record(SimDuration::from_millis(1));
        b.record(SimDuration::from_secs(200));
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.counts()[0], 2);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn bad_edges_panic() {
        let _ = BucketHistogram::new(vec![
            SimDuration::from_millis(10),
            SimDuration::from_millis(10),
        ]);
    }

    #[test]
    fn duration_histogram_weights_by_time() {
        let mut h = DurationHistogram::paper_idle_buckets();
        for _ in 0..1_000 {
            h.record(SimDuration::from_millis(3)); // 3 s total, short bucket
        }
        h.record(SimDuration::from_secs(27)); // one long period
        assert_eq!(h.total(), SimDuration::from_secs(30));
        // Periods: 1000 short vs 1 long; time: 10% short vs 90% long.
        let share_short = h.share_at_or_below(SimDuration::from_millis(5));
        assert!((share_short - 0.1).abs() < 1e-9, "got {share_short}");
        let cdf = h.cdf();
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
        assert!(cdf.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn duration_histogram_merge() {
        let mut a = DurationHistogram::paper_idle_buckets();
        let mut b = DurationHistogram::paper_idle_buckets();
        a.record(SimDuration::from_secs(1));
        b.record(SimDuration::from_secs(2));
        a.merge(&b);
        assert_eq!(a.total(), SimDuration::from_secs(3));
    }
}
