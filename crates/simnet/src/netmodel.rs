//! Network environment model: bandwidth, latency, jitter.
//!
//! It describes the healthy network only; every fault, the Figure 8
//! fluctuation among them, is an entry of a
//! [`FaultSchedule`](crate::FaultSchedule) (see [`faults`](crate::faults)).

use rand::Rng;
use serde::{Deserialize, Serialize};
use smp_types::{NetworkPreset, ReplicaId, SimTime};

/// Complete description of the simulated network environment.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetConfig {
    /// Per-replica outbound bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// Base one-way propagation delay between distinct replicas.
    pub one_way_delay_us: SimTime,
    /// Uniform jitter added to each message's propagation delay.
    pub jitter_us: SimTime,
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
        }
    }

    /// Time to push `bytes` bytes through a replica's outbound NIC.
    pub fn serialization_us(&self, bytes: usize) -> SimTime {
        let bps = self.bandwidth_bps.max(1);
        // bytes * 8 bits / (bits per second) => seconds; scale to micros.
        let us = (bytes as f64 * 8.0 * 1_000_000.0) / bps as f64;
        us.ceil() as SimTime
    }

    /// One-way propagation delay of a message: base delay plus jitter.
    pub fn propagation_us<R: Rng>(&self, from: ReplicaId, to: ReplicaId, rng: &mut R) -> SimTime {
        if from == to {
            // Loopback delivery is effectively immediate.
            return 1;
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
    fn loopback_is_instant() {
        let cfg = NetConfig::lan();
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(cfg.propagation_us(ReplicaId(2), ReplicaId(2), &mut rng), 1);
    }
}
