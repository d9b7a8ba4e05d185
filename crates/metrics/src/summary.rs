//! Per-run summaries: the numbers a single experiment point reports.

use crate::LatencyHistogram;
use serde::Serialize;
use smp_types::{SimTime, MICROS_PER_SEC};

/// The throughput and latency of one experiment run (one point in a paper
/// figure).
#[derive(Clone, Debug, Default, Serialize)]
pub struct RunSummary {
    /// Human-readable label of the protocol/config (e.g. `"S-HS"`).
    pub label: String,
    /// Number of replicas.
    pub n: usize,
    /// Committed throughput in KTx/s.
    pub throughput_ktps: f64,
    /// Mean commit latency in milliseconds.
    pub mean_latency_ms: f64,
    /// Median commit latency in milliseconds.
    pub p50_latency_ms: f64,
    /// 95th-percentile commit latency in milliseconds.
    pub p95_latency_ms: f64,
    /// 99th-percentile commit latency in milliseconds.
    pub p99_latency_ms: f64,
}

impl RunSummary {
    /// Builds a summary from `committed_txs` transactions committed in the
    /// window `[from, to)` and the commit latencies recorded.
    pub fn from_measurements(
        label: impl Into<String>,
        n: usize,
        committed_txs: u64,
        latency: &mut LatencyHistogram,
        from: SimTime,
        to: SimTime,
    ) -> Self {
        let throughput_ktps = if to <= from {
            0.0
        } else {
            committed_txs as f64 * MICROS_PER_SEC as f64 / (to - from) as f64 / 1_000.0
        };
        RunSummary {
            label: label.into(),
            n,
            throughput_ktps,
            mean_latency_ms: latency.mean_ms().unwrap_or(0.0),
            p50_latency_ms: latency.percentile_ms(50.0).unwrap_or(0.0),
            p95_latency_ms: latency.percentile_ms(95.0).unwrap_or(0.0),
            p99_latency_ms: latency.percentile_ms(99.0).unwrap_or(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ktps(committed_txs: u64, from: SimTime, to: SimTime) -> f64 {
        let mut lat = LatencyHistogram::new();
        RunSummary::from_measurements("x", 4, committed_txs, &mut lat, from, to).throughput_ktps
    }

    #[test]
    fn summary_computes_rates_and_percentiles() {
        let mut lat = LatencyHistogram::new();
        for v in [1_000, 2_000, 3_000, 100_000] {
            lat.record(v);
        }
        let s = RunSummary::from_measurements("S-HS", 64, 30_000, &mut lat, 0, MICROS_PER_SEC);
        assert_eq!((s.label.as_str(), s.n), ("S-HS", 64));
        assert!((s.throughput_ktps - 30.0).abs() < 1e-9);
        assert!(s.p99_latency_ms >= s.p50_latency_ms);
        assert_eq!(s.p50_latency_ms, 2.0);
    }

    #[test]
    fn empty_measurements_produce_zeroes() {
        let mut lat = LatencyHistogram::new();
        let s = RunSummary::from_measurements("x", 4, 0, &mut lat, 0, MICROS_PER_SEC);
        assert_eq!(s.throughput_ktps, 0.0);
        assert_eq!(s.mean_latency_ms, 0.0);
    }

    #[test]
    fn tps_normalizes_by_window_length() {
        // 50K txs over a 1-second window => 50 KTx/s.
        assert!((ktps(50_000, 0, MICROS_PER_SEC) - 50.0).abs() < 1e-9);
        // Over 2 seconds the rate halves.
        assert!((ktps(50_000, 0, 2 * MICROS_PER_SEC) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_window_is_zero() {
        assert_eq!(ktps(5, 100, 100), 0.0);
        assert_eq!(ktps(5, 200, 100), 0.0);
    }
}
