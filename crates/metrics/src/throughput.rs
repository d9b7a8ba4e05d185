//! Throughput measurement.

use serde::{Deserialize, Serialize};
use smp_types::{SimTime, MICROS_PER_SEC};

/// Counts committed transactions over simulated time and converts them to
/// transactions-per-second figures, optionally excluding a warm-up prefix.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ThroughputMeter {
    events: Vec<(SimTime, u64)>,
    total: u64,
}

impl ThroughputMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        ThroughputMeter {
            events: Vec::new(),
            total: 0,
        }
    }

    /// Records `count` transactions committed at `time`.
    pub fn record(&mut self, time: SimTime, count: u64) {
        if count == 0 {
            return;
        }
        self.events.push((time, count));
        self.total += count;
    }

    /// Number of records held: one for every commit that ordered something.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total transactions recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Transactions committed in the window `[from, to)`.
    pub fn total_in(&self, from: SimTime, to: SimTime) -> u64 {
        self.events
            .iter()
            .filter(|(t, _)| *t >= from && *t < to)
            .map(|(_, c)| *c)
            .sum()
    }

    /// Average throughput (tx/s) over the window `[from, to)`.
    pub fn tps_in(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from {
            return 0.0;
        }
        let txs = self.total_in(from, to);
        txs as f64 * MICROS_PER_SEC as f64 / (to - from) as f64
    }

    /// Average throughput (KTx/s) over the window `[from, to)` — the unit
    /// the paper's figures use.
    pub fn ktps_in(&self, from: SimTime, to: SimTime) -> f64 {
        self.tps_in(from, to) / 1_000.0
    }

    /// Per-second throughput series covering `[0, horizon)`.
    pub fn series_tps(&self, bucket: SimTime, horizon: SimTime) -> Vec<f64> {
        assert!(bucket > 0);
        let n = horizon.div_ceil(bucket) as usize;
        let mut counts = vec![0u64; n];
        for (t, c) in &self.events {
            if *t < horizon {
                counts[(*t / bucket) as usize] += *c;
            }
        }
        let scale = MICROS_PER_SEC as f64 / bucket as f64;
        counts.into_iter().map(|c| c as f64 * scale).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_windows() {
        let mut m = ThroughputMeter::new();
        m.record(100_000, 10);
        m.record(600_000, 20);
        m.record(1_600_000, 40);
        m.record(2_000_000, 0); // ignored
        assert_eq!(m.total(), 70);
        assert_eq!(m.total_in(0, 1_000_000), 30);
        assert_eq!(m.total_in(1_000_000, 2_000_000), 40);
    }

    #[test]
    fn tps_normalizes_by_window_length() {
        let mut m = ThroughputMeter::new();
        m.record(500_000, 50_000);
        // 50K txs over a 1-second window => 50 KTx/s.
        assert!((m.tps_in(0, MICROS_PER_SEC) - 50_000.0).abs() < 1e-9);
        assert!((m.ktps_in(0, MICROS_PER_SEC) - 50.0).abs() < 1e-9);
        // Over 2 seconds the rate halves.
        assert!((m.ktps_in(0, 2 * MICROS_PER_SEC) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_window_is_zero() {
        let mut m = ThroughputMeter::new();
        m.record(10, 5);
        assert_eq!(m.tps_in(100, 100), 0.0);
        assert_eq!(m.tps_in(200, 100), 0.0);
    }

    #[test]
    fn window_boundaries_are_half_open() {
        let mut m = ThroughputMeter::new();
        m.record(1_000_000, 7);
        // `from` is inclusive, `to` is exclusive.
        assert_eq!(m.total_in(1_000_000, 1_000_001), 7);
        assert_eq!(m.total_in(0, 1_000_000), 0);
        assert_eq!(m.total_in(1_000_001, 2_000_000), 0);
    }

    #[test]
    fn series_bucket_boundaries() {
        let mut m = ThroughputMeter::new();
        m.record(0, 1); // first instant of bucket 0
        m.record(999_999, 2); // last instant of bucket 0
        m.record(1_000_000, 4); // first instant of bucket 1
        m.record(2_999_999, 8); // last instant inside the horizon
        m.record(3_000_000, 16); // at the horizon: excluded
        let s = m.series_tps(MICROS_PER_SEC, 3 * MICROS_PER_SEC);
        assert_eq!(s, vec![3.0, 4.0, 8.0]);
        // A horizon that is not a bucket multiple rounds the bucket count up,
        // and the event sitting exactly at 3 s now falls inside it.
        let s = m.series_tps(MICROS_PER_SEC, 3 * MICROS_PER_SEC + 1);
        assert_eq!(s.len(), 4);
        assert_eq!(s[3], 16.0);
    }

    #[test]
    fn series_buckets_events() {
        let mut m = ThroughputMeter::new();
        m.record(100_000, 10);
        m.record(1_200_000, 30);
        let s = m.series_tps(MICROS_PER_SEC, 3 * MICROS_PER_SEC);
        assert_eq!(s, vec![10.0, 30.0, 0.0]);
    }
}
