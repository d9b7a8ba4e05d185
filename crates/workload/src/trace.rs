//! Synthetic WAN delay traces (Figure 5).
//!
//! Figure 5 motivates the stable-time workload estimator by showing that
//! inter-datacenter round-trip delays (Virginia ↔ Singapore on Alibaba
//! Cloud) are stable and predictable: ~234 ms with sub-millisecond jitter
//! for most of the day, with occasional short-lived spikes.  We cannot
//! measure that link, so this module generates a trace with the same
//! statistical shape, which is all the estimator (and the figure) needs.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Baseline round-trip time in milliseconds (Virginia–Singapore ≈ 234).
pub const BASE_RTT_MS: f64 = 233.8;
/// Standard deviation of the per-sample jitter in milliseconds.
pub const JITTER_MS: f64 = 0.15;
/// Probability that a given minute contains a congestion spike.
pub const SPIKE_PROBABILITY: f64 = 0.004;
/// Additional delay during a spike, milliseconds.
pub const SPIKE_EXTRA_MS: f64 = 8.0;

/// Size of the synthetic delay trace; its shape is the constants above.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Number of delay samples measured per minute.
    pub samples_per_minute: usize,
    /// Trace duration in minutes (24 h = 1440).
    pub minutes: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            samples_per_minute: 4_000,
            minutes: 1_440,
        }
    }
}

/// A generated delay trace: per-minute samples of round-trip delay.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DelayTrace {
    /// Configuration used to generate the trace.
    pub config: TraceConfig,
    /// `samples[m]` holds the RTT samples (ms) measured during minute `m`.
    pub samples: Vec<Vec<f64>>,
}

impl DelayTrace {
    /// Generates a trace deterministically from `seed`.
    pub fn generate(config: TraceConfig, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut samples = Vec::with_capacity(config.minutes);
        for _ in 0..config.minutes {
            let spike = rng.gen_bool(SPIKE_PROBABILITY);
            let extra = if spike { SPIKE_EXTRA_MS } else { 0.0 };
            let minute: Vec<f64> = (0..config.samples_per_minute)
                .map(|_| {
                    // Approximately normal jitter via the sum of uniforms.
                    let u: f64 = (0..4).map(|_| rng.gen::<f64>()).sum::<f64>() / 4.0 - 0.5;
                    (BASE_RTT_MS + extra + u * 4.0 * JITTER_MS).max(0.0)
                })
                .collect();
            samples.push(minute);
        }
        DelayTrace { config, samples }
    }

    /// Histogram of all samples bucketed into 1 ms bins, as
    /// `(bucket_floor_ms, count)` pairs — the data behind the Figure 5a
    /// heat map (aggregated over time).
    pub fn histogram_1ms(&self) -> Vec<(u64, u64)> {
        use std::collections::BTreeMap;
        let mut bins: BTreeMap<u64, u64> = BTreeMap::new();
        for minute in &self.samples {
            for s in minute {
                *bins.entry(*s as u64).or_default() += 1;
            }
        }
        bins.into_iter().collect()
    }

    /// Per-minute heat-map row: how many samples of minute `m` fall into
    /// each 1 ms bin between `lo_ms` and `hi_ms`.
    pub fn heatmap_row(&self, minute: usize, lo_ms: u64, hi_ms: u64) -> Vec<u64> {
        let mut row = vec![0u64; (hi_ms - lo_ms + 1) as usize];
        for s in &self.samples[minute] {
            let bucket = (*s as u64).clamp(lo_ms, hi_ms) - lo_ms;
            row[bucket as usize] += 1;
        }
        row
    }

    /// The `p`-th percentile of delays observed in one minute.
    pub fn minute_percentile(&self, minute: usize, p: f64) -> f64 {
        let mut v = self.samples[minute].clone();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let idx = ((p / 100.0) * v.len() as f64).ceil() as usize;
        v[idx.saturating_sub(1).min(v.len() - 1)]
    }

    /// Mean delay over the whole trace.
    pub fn mean_ms(&self) -> f64 {
        let (mut sum, mut n) = (0.0, 0usize);
        for minute in &self.samples {
            sum += minute.iter().sum::<f64>();
            n += minute.len();
        }
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> TraceConfig {
        TraceConfig {
            samples_per_minute: 200,
            minutes: 60,
        }
    }

    #[test]
    fn trace_is_deterministic_for_a_seed() {
        let a = DelayTrace::generate(small_config(), 9);
        let b = DelayTrace::generate(small_config(), 9);
        assert_eq!(a.samples, b.samples);
        let c = DelayTrace::generate(small_config(), 10);
        assert_ne!(a.samples, c.samples);
    }

    #[test]
    fn delays_are_stable_around_the_base_rtt() {
        let t = DelayTrace::generate(small_config(), 1);
        let mean = t.mean_ms();
        assert!((mean - 233.8).abs() < 1.0, "mean {mean}");
        // The vast majority of samples sit within 2 ms of the base.
        let hist = t.histogram_1ms();
        let total: u64 = hist.iter().map(|(_, c)| *c).sum();
        let near: u64 = hist
            .iter()
            .filter(|(b, _)| (*b as f64 - 233.8).abs() <= 2.0)
            .map(|(_, c)| *c)
            .sum();
        assert!(near as f64 / total as f64 > 0.95);
    }

    #[test]
    fn heatmap_row_covers_requested_bins() {
        let t = DelayTrace::generate(small_config(), 2);
        let row = t.heatmap_row(0, 232, 244);
        assert_eq!(row.len(), 13);
        assert_eq!(
            row.iter().sum::<u64>() as usize,
            t.config.samples_per_minute
        );
    }

    #[test]
    fn minute_percentile_is_ordered() {
        let t = DelayTrace::generate(small_config(), 3);
        let p50 = t.minute_percentile(5, 50.0);
        let p99 = t.minute_percentile(5, 99.0);
        assert!(p99 >= p50);
    }
}
