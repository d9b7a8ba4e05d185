//! Latency histogram with percentile queries.

use serde::{Deserialize, Serialize};
use smp_types::SimTime;

/// Accumulates latency samples (microseconds) and answers percentile,
/// mean, and extrema queries.
///
/// Samples are stored run-length encoded — `(value, repeat-count)` pairs —
/// so recording a block commit that contributes thousands of identical
/// latencies ([`record_n`](Self::record_n)) is O(1) instead of one push
/// per transaction.  Percentile queries sort the runs on demand and cache
/// the sorted order until the next out-of-order insertion; monotone
/// streams (the common case inside one simulation) never trigger a sort.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct LatencyHistogram {
    /// `(value_us, run_length)` pairs, coalesced with the tail on insert.
    runs: Vec<(u64, u64)>,
    /// Total number of samples across all runs.
    count: u64,
    #[serde(skip)]
    sorted: bool,
    sum: u128,
    max: u64,
    min: u64,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            runs: Vec::new(),
            count: 0,
            sorted: true,
            sum: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    /// Records one latency sample in microseconds.
    pub fn record(&mut self, latency_us: SimTime) {
        self.record_n(latency_us, 1);
    }

    /// Records `count` samples of the same value (useful when a block
    /// commit contributes many identical latencies).  O(1): the samples
    /// are stored as a single run.
    pub fn record_n(&mut self, latency_us: SimTime, count: usize) {
        if count == 0 {
            return;
        }
        let c = count as u64;
        match self.runs.last_mut() {
            Some((value, run)) if *value == latency_us => *run += c,
            last => {
                // Appending a value >= the current tail keeps any sorted
                // order valid, so monotone streams stay sort-free.
                if self.sorted && last.is_some_and(|(value, _)| *value > latency_us) {
                    self.sorted = false;
                }
                self.runs.push((latency_us, c));
            }
        }
        self.count += c;
        self.sum += latency_us as u128 * c as u128;
        self.max = self.max.max(latency_us);
        self.min = self.min.min(latency_us);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.count == 0 {
            return;
        }
        self.runs.extend_from_slice(&other.runs);
        self.sorted = false;
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }

    /// Number of `(value, repeat-count)` runs held: what the histogram's
    /// memory grows with.
    pub fn runs(&self) -> usize {
        self.runs.len()
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean latency in microseconds.
    pub fn mean_us(&self) -> Option<f64> {
        (!self.is_empty()).then(|| self.sum as f64 / self.count as f64)
    }

    /// Mean latency in milliseconds.
    pub fn mean_ms(&self) -> Option<f64> {
        self.mean_us().map(|us| us / 1_000.0)
    }

    /// Maximum latency in microseconds.
    pub fn max_us(&self) -> Option<u64> {
        (!self.is_empty()).then_some(self.max)
    }

    /// Minimum latency in microseconds.
    pub fn min_us(&self) -> Option<u64> {
        (!self.is_empty()).then_some(self.min)
    }

    /// The `p`-th percentile (0.0–100.0) in microseconds, using the
    /// nearest-rank method.
    pub fn percentile_us(&mut self, p: f64) -> Option<u64> {
        if self.is_empty() {
            return None;
        }
        if !self.sorted {
            self.runs.sort_unstable_by_key(|(value, _)| *value);
            // Coalesce equal-valued runs so repeated sorts stay cheap.
            let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.runs.len());
            for (value, run) in self.runs.drain(..) {
                match merged.last_mut() {
                    Some((v, r)) if *v == value => *r += run,
                    _ => merged.push((value, run)),
                }
            }
            self.runs = merged;
            self.sorted = true;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let target = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (value, run) in &self.runs {
            seen += run;
            if seen >= target {
                return Some(*value);
            }
        }
        // Unreachable: the cumulative count covers `target <= count`.
        self.runs.last().map(|(value, _)| *value)
    }

    /// The `p`-th percentile in milliseconds.
    pub fn percentile_ms(&mut self, p: f64) -> Option<f64> {
        self.percentile_us(p).map(|us| us as f64 / 1_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_returns_none() {
        let mut h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean_us(), None);
        assert_eq!(h.percentile_us(95.0), None);
        assert_eq!(h.max_us(), None);
        assert_eq!(h.min_us(), None);
    }

    #[test]
    fn mean_and_extrema() {
        let mut h = LatencyHistogram::new();
        for v in [10, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.mean_us(), Some(20.0));
        assert_eq!(h.min_us(), Some(10));
        assert_eq!(h.max_us(), Some(30));
        assert_eq!(h.mean_ms(), Some(0.02));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut h = LatencyHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.percentile_us(50.0), Some(50));
        assert_eq!(h.percentile_us(95.0), Some(95));
        assert_eq!(h.percentile_us(100.0), Some(100));
        assert_eq!(h.percentile_us(0.0), Some(1));
    }

    #[test]
    fn percentile_after_interleaved_inserts() {
        let mut h = LatencyHistogram::new();
        h.record(50);
        assert_eq!(h.percentile_us(50.0), Some(50));
        h.record(10);
        h.record(90);
        assert_eq!(h.percentile_us(50.0), Some(50));
        assert_eq!(h.percentile_us(99.0), Some(90));
    }

    #[test]
    fn record_n_and_merge() {
        let mut a = LatencyHistogram::new();
        a.record_n(5, 3);
        let mut b = LatencyHistogram::new();
        b.record(15);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.max_us(), Some(15));
        assert_eq!(a.mean_us(), Some(7.5));
    }

    #[test]
    fn single_sample_percentiles() {
        let mut h = LatencyHistogram::new();
        h.record(42);
        for p in [0.0, 0.1, 50.0, 99.9, 100.0] {
            assert_eq!(h.percentile_us(p), Some(42), "p={p}");
        }
        assert_eq!(h.mean_us(), Some(42.0));
        assert_eq!(h.min_us(), Some(42));
        assert_eq!(h.max_us(), Some(42));
    }

    #[test]
    fn merge_with_empty_histograms() {
        let mut a = LatencyHistogram::new();
        a.record(10);
        let empty = LatencyHistogram::new();
        a.merge(&empty); // rhs empty: no-op
        assert_eq!(a.count(), 1);
        assert_eq!(a.min_us(), Some(10));

        let mut b = LatencyHistogram::new();
        b.merge(&a); // lhs empty: adopts rhs
        assert_eq!(b.count(), 1);
        assert_eq!(b.min_us(), Some(10));
        assert_eq!(b.max_us(), Some(10));
        assert_eq!(b.percentile_us(50.0), Some(10));

        let mut both = LatencyHistogram::new();
        both.merge(&LatencyHistogram::new()); // both empty
        assert!(both.is_empty());
        assert_eq!(both.percentile_us(50.0), None);
    }

    #[test]
    fn merge_disjoint_ranges() {
        let mut low = LatencyHistogram::new();
        for v in 1..=50u64 {
            low.record(v);
        }
        let mut high = LatencyHistogram::new();
        for v in 51..=100u64 {
            high.record(v);
        }
        // Merge the higher range into the lower one; percentiles must see
        // the union, not either half.
        low.merge(&high);
        assert_eq!(low.count(), 100);
        assert_eq!(low.min_us(), Some(1));
        assert_eq!(low.max_us(), Some(100));
        assert_eq!(low.percentile_us(50.0), Some(50));
        assert_eq!(low.percentile_us(95.0), Some(95));
        assert_eq!(low.mean_us(), Some(50.5));
    }

    #[test]
    fn record_n_is_a_single_run() {
        let mut h = LatencyHistogram::new();
        h.record_n(7, 1_000_000);
        h.record_n(7, 500_000); // coalesces with the tail run
        assert_eq!(h.runs.len(), 1);
        assert_eq!(h.count(), 1_500_000);
        assert_eq!(h.percentile_us(50.0), Some(7));
        assert_eq!(h.percentile_us(100.0), Some(7));
        h.record_n(3, 0); // zero-count is a no-op
        assert_eq!(h.count(), 1_500_000);
    }

    #[test]
    fn run_length_percentiles_match_per_sample_recording() {
        let mut bulk = LatencyHistogram::new();
        let mut single = LatencyHistogram::new();
        for (value, n) in [(30u64, 5usize), (10, 2), (20, 8), (10, 1)] {
            bulk.record_n(value, n);
            for _ in 0..n {
                single.record(value);
            }
        }
        for p in [0.0, 12.5, 50.0, 90.0, 95.0, 99.0, 100.0] {
            assert_eq!(bulk.percentile_us(p), single.percentile_us(p), "p={p}");
        }
        assert_eq!(bulk.mean_us(), single.mean_us());
        assert_eq!(bulk.count(), single.count());
    }

    #[test]
    fn monotone_streams_stay_sorted_across_queries() {
        let mut h = LatencyHistogram::new();
        h.record(10);
        h.record_n(20, 3);
        assert!(h.sorted);
        assert_eq!(h.percentile_us(100.0), Some(20));
        h.record(20); // equal to tail: still sorted
        h.record(30);
        assert!(h.sorted);
        h.record(5); // out of order: needs a sort on next query
        assert!(!h.sorted);
        assert_eq!(h.percentile_us(0.0), Some(5));
        assert!(h.sorted);
    }
}
