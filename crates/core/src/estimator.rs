//! The stable-time workload estimator (Section V-B).
//!
//! The *stable time* (ST) of a microblock is the delay between the moment
//! its disseminator broadcast it and the moment it became provably
//! available (received `f + 1` acks).  Because inter-datacenter delays are
//! stable and predictable (Figure 5), a rising ST is a reliable signal
//! that the replica's outbound link or CPU is saturated.  The estimator
//! keeps a sliding window of the most recent ST samples and reports a
//! percentile of it; a replica considers itself busy when that estimate
//! exceeds the observed baseline by a factor.  A Stratus replica runs the
//! [`Default`] estimator, built from the three constants below; unit tests
//! drive smaller windows through [`StableTimeEstimator::new`].

use smp_types::SimTime;
use std::collections::VecDeque;

/// Stable-time samples in the sliding window.
pub const ESTIMATOR_WINDOW: usize = 100;
/// Percentile of the window used as the ST estimate.
pub const ESTIMATOR_PERCENTILE: f64 = 95.0;
/// A replica is busy when its ST estimate exceeds the baseline by this
/// factor (the paper's `β` margin over `α + ε`).
pub const BUSY_FACTOR: f64 = 2.0;

/// Sliding-window stable-time estimator.
#[derive(Clone, Debug)]
pub struct StableTimeEstimator {
    window: VecDeque<SimTime>,
    capacity: usize,
    percentile: f64,
    busy_factor: f64,
    /// Smallest window-percentile estimate observed so far — the paper's
    /// "constant number α" for the unloaded regime.
    baseline: Option<SimTime>,
    samples_seen: u64,
}

impl StableTimeEstimator {
    /// Creates an estimator with the given window size, percentile
    /// (0–100) and busy factor.
    pub fn new(capacity: usize, percentile: f64, busy_factor: f64) -> Self {
        StableTimeEstimator {
            window: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            percentile: percentile.clamp(0.0, 100.0),
            busy_factor: busy_factor.max(1.0),
            baseline: None,
            samples_seen: 0,
        }
    }

    /// Records the stable time of a newly stabilized microblock.
    pub fn record(&mut self, stable_time: SimTime) {
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(stable_time);
        self.samples_seen += 1;
        if let Some(est) = self.estimate() {
            self.baseline = Some(self.baseline.map_or(est, |b| b.min(est)));
        }
    }

    /// Number of samples recorded over the estimator's lifetime.
    pub fn samples_seen(&self) -> u64 {
        self.samples_seen
    }

    /// The current ST estimate: the configured percentile over the window,
    /// or `None` when no samples have been recorded yet.
    pub fn estimate(&self) -> Option<SimTime> {
        if self.window.is_empty() {
            return None;
        }
        let mut sorted: Vec<SimTime> = self.window.iter().copied().collect();
        sorted.sort_unstable();
        let rank = ((self.percentile / 100.0) * sorted.len() as f64).ceil() as usize;
        Some(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
    }

    /// The unloaded baseline observed so far.
    pub fn baseline(&self) -> Option<SimTime> {
        self.baseline
    }

    /// Whether the replica should consider itself busy: the current
    /// estimate exceeds the baseline by the busy factor.  A replica with
    /// too few samples is never busy (it has no evidence of overload).
    pub fn is_busy(&self) -> bool {
        let (Some(est), Some(base)) = (self.estimate(), self.baseline()) else {
            return false;
        };
        if self.window.len() < self.capacity / 10 + 1 {
            return false;
        }
        est as f64 > base as f64 * self.busy_factor
    }

    /// The value returned to `LB-Query` messages (`GetLoadStatus` in
    /// Algorithm 4): the ST estimate, or `None` if this replica is itself
    /// busy and should not be chosen as a proxy.
    pub fn load_status(&self) -> Option<SimTime> {
        if self.is_busy() {
            None
        } else {
            // A replica with no samples yet advertises a conservative zero
            // (it has capacity to spare by definition).
            Some(self.estimate().unwrap_or(0))
        }
    }
}

impl Default for StableTimeEstimator {
    fn default() -> Self {
        StableTimeEstimator::new(ESTIMATOR_WINDOW, ESTIMATOR_PERCENTILE, BUSY_FACTOR)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_estimator_is_not_busy() {
        let e = StableTimeEstimator::default();
        assert_eq!(e.estimate(), None);
        assert!(!e.is_busy());
        assert_eq!(e.load_status(), Some(0));
    }

    #[test]
    fn estimate_tracks_percentile() {
        let mut e = StableTimeEstimator::new(100, 95.0, 2.0);
        for v in 1..=100u64 {
            e.record(v * 1_000);
        }
        assert_eq!(e.estimate(), Some(95_000));
        assert_eq!(e.samples_seen(), 100);
    }

    #[test]
    fn window_slides() {
        let mut e = StableTimeEstimator::new(10, 50.0, 2.0);
        for _ in 0..10 {
            e.record(100);
        }
        for _ in 0..10 {
            e.record(900);
        }
        // Old samples have been evicted; the median reflects the new load.
        assert_eq!(e.estimate(), Some(900));
    }

    #[test]
    fn becomes_busy_when_st_doubles() {
        let mut e = StableTimeEstimator::new(20, 95.0, 2.0);
        for _ in 0..20 {
            e.record(100_000); // ~100 ms baseline, like a WAN round trip
        }
        assert!(!e.is_busy());
        assert_eq!(e.load_status(), Some(100_000));
        for _ in 0..20 {
            e.record(350_000); // overload: 3.5x the baseline
        }
        assert!(e.is_busy());
        assert_eq!(e.load_status(), None, "busy replicas refuse proxy work");
    }

    #[test]
    fn recovers_when_load_subsides() {
        let mut e = StableTimeEstimator::new(10, 95.0, 2.0);
        for _ in 0..10 {
            e.record(100_000);
        }
        for _ in 0..10 {
            e.record(400_000);
        }
        assert!(e.is_busy());
        for _ in 0..10 {
            e.record(110_000);
        }
        assert!(!e.is_busy());
    }

    #[test]
    fn baseline_is_monotone_minimum() {
        let mut e = StableTimeEstimator::new(5, 50.0, 2.0);
        e.record(500);
        e.record(200);
        e.record(800);
        assert!(e.baseline().unwrap() <= 500);
    }
}
