//! Network environment model: bandwidth, latency, jitter, fault windows.
//!
//! # Two ways to inject delay, and why both stay
//!
//! A [`FaultWindow`] is part of the [`NetConfig`]: while one is open,
//! [`NetConfig::propagation_us`] *replaces* base delay + jitter with one
//! uniform draw, taken once, when the message leaves its sender's NIC, from
//! the *sender's node RNG* — the stream the ordinary jitter draw uses.  It
//! is the paper's NetEm experiment (Figure 8) and what `fig8_asynchrony`,
//! `tests/end_to_end.rs` and one `golden_fingerprints` row run.
//!
//! A [`DelayBurst`](crate::FaultAction::DelayBurst) is an entry of a
//! [`FaultSchedule`](crate::FaultSchedule), scripted among crashes and
//! partitions: while one is open, every delivery *arriving* at its
//! receiver is put back on the wire for an *additional* delay drawn from
//! the dedicated *fault RNG*, so that scripting faults never perturbs a
//! node's stream.
//!
//! Replace-at-send from the node stream and add-at-delivery from the fault
//! stream give different schedules for the same window, so neither can be
//! rewritten as the other with outputs bit-identical; merging them is a
//! behaviour change that re-records every figure using either.

use rand::Rng;
use serde::{Deserialize, Serialize};
use smp_types::{NetworkPreset, ReplicaId, SimTime};

/// A window of simulated time during which inter-replica delays are
/// replaced by a (usually much larger) uniformly random delay.
///
/// This reproduces the Figure 8 experiment, where NetEm injects delays
/// fluctuating between 100 ms and 300 ms for 10 seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultWindow {
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
    /// Minimum one-way delay during the window.
    pub min_delay_us: SimTime,
    /// Maximum one-way delay during the window.
    pub max_delay_us: SimTime,
}

impl FaultWindow {
    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end
    }
}

/// Complete description of the simulated network environment.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetConfig {
    /// Per-replica outbound bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// Base one-way propagation delay between distinct replicas.
    pub one_way_delay_us: SimTime,
    /// Uniform jitter added to each message's propagation delay.
    pub jitter_us: SimTime,
    /// Asynchrony windows (Figure 8).
    pub fault_windows: Vec<FaultWindow>,
}

impl NetConfig {
    /// The paper's LAN environment (3 Gb/s, < 10 ms RTT).
    pub fn lan() -> Self {
        NetConfig::from_preset(NetworkPreset::Lan)
    }

    /// The paper's WAN environment (100 Mb/s, 100 ms RTT).
    pub fn wan() -> Self {
        NetConfig::from_preset(NetworkPreset::Wan)
    }

    /// Builds a config from a [`NetworkPreset`].
    pub fn from_preset(preset: NetworkPreset) -> Self {
        NetConfig {
            bandwidth_bps: preset.bandwidth_bps(),
            one_way_delay_us: preset.one_way_delay_us(),
            jitter_us: preset.jitter_us(),
            fault_windows: Vec::new(),
        }
    }

    /// Adds an asynchrony window.
    pub fn with_fault_window(mut self, w: FaultWindow) -> Self {
        self.fault_windows.push(w);
        self
    }

    /// Time to push `bytes` bytes through a replica's outbound NIC.
    pub fn serialization_us(&self, bytes: usize) -> SimTime {
        let bps = self.bandwidth_bps.max(1);
        // bytes * 8 bits / (bits per second) => seconds; scale to micros.
        let us = (bytes as f64 * 8.0 * 1_000_000.0) / bps as f64;
        us.ceil() as SimTime
    }

    /// One-way propagation delay for a message sent at time `now`,
    /// including jitter and any active fault window.
    pub fn propagation_us<R: Rng>(
        &self,
        from: ReplicaId,
        to: ReplicaId,
        now: SimTime,
        rng: &mut R,
    ) -> SimTime {
        if from == to {
            // Loopback delivery is effectively immediate.
            return 1;
        }
        if let Some(w) = self.fault_windows.iter().find(|w| w.contains(now)) {
            let span = w.max_delay_us.saturating_sub(w.min_delay_us);
            let extra = if span == 0 {
                0
            } else {
                rng.gen_range(0..=span)
            };
            return w.min_delay_us + extra;
        }
        let jitter = if self.jitter_us == 0 {
            0
        } else {
            rng.gen_range(0..=self.jitter_us)
        };
        self.one_way_delay_us + jitter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn presets_match_paper_environments() {
        let lan = NetConfig::lan();
        let wan = NetConfig::wan();
        assert_eq!(lan.bandwidth_bps, 3_000_000_000);
        assert_eq!(wan.bandwidth_bps, 100_000_000);
        assert_eq!(wan.one_way_delay_us, 50_000);
    }

    #[test]
    fn serialization_time_scales_with_size_and_bandwidth() {
        let wan = NetConfig::wan();
        // 100 Mb/s => 12.5 MB/s => 1 MB takes 80 ms.
        let t = wan.serialization_us(1_000_000);
        assert_eq!(t, 80_000);
        let lan = NetConfig::lan();
        assert!(lan.serialization_us(1_000_000) < t);
    }

    #[test]
    fn propagation_respects_fault_window() {
        let cfg = NetConfig::wan().with_fault_window(FaultWindow {
            start: 1_000_000,
            end: 2_000_000,
            min_delay_us: 100_000,
            max_delay_us: 300_000,
        });
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..50 {
            let inside = cfg.propagation_us(ReplicaId(0), ReplicaId(1), 1_500_000, &mut rng);
            assert!((100_000..=300_000).contains(&inside));
            let outside = cfg.propagation_us(ReplicaId(0), ReplicaId(1), 500_000, &mut rng);
            assert!(outside >= 50_000 && outside <= 50_000 + cfg.jitter_us);
        }
    }

    #[test]
    fn loopback_is_instant() {
        let cfg = NetConfig::lan();
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(
            cfg.propagation_us(ReplicaId(2), ReplicaId(2), 0, &mut rng),
            1
        );
    }

    #[test]
    fn fault_window_bounds_are_half_open() {
        let w = FaultWindow {
            start: 10,
            end: 20,
            min_delay_us: 1,
            max_delay_us: 2,
        };
        assert!(!w.contains(9));
        assert!(w.contains(10));
        assert!(w.contains(19));
        assert!(!w.contains(20));
    }
}
