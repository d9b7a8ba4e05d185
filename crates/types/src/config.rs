//! System configuration.
//!
//! [`SystemConfig`] captures the deployment parameters that every crate
//! needs to agree on: the replica count `N`, the fault bound `f`
//! (`N >= 3f + 1`), quorum sizes, the key-derivation seed, and the network
//! preset (LAN vs WAN as used in Section VII-A).  [`MempoolConfig`]
//! captures the batching parameters studied in Figure 6.

use crate::ids::ReplicaId;
use crate::time::{SimTime, MICROS_PER_MS};
use serde::{Deserialize, Serialize};

/// Network environments evaluated in the paper (Section VII-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum NetworkPreset {
    /// "National" deployment: up to 3 Gb/s per replica, < 10 ms RTT.
    Lan,
    /// "Regional" deployment: 100 Mb/s per replica, 100 ms RTT (NetEm).
    Wan,
    /// Custom environment.
    Custom {
        /// Per-replica outbound bandwidth in bits per second.
        bandwidth_bps: u64,
        /// One-way propagation delay in microseconds.
        one_way_delay_us: SimTime,
        /// Uniform jitter bound in microseconds.
        jitter_us: SimTime,
    },
}

impl NetworkPreset {
    /// Per-replica outbound bandwidth in bits per second.
    pub fn bandwidth_bps(&self) -> u64 {
        match self {
            NetworkPreset::Lan => 3_000_000_000,
            NetworkPreset::Wan => 100_000_000,
            NetworkPreset::Custom { bandwidth_bps, .. } => *bandwidth_bps,
        }
    }

    /// One-way propagation delay in microseconds.
    pub fn one_way_delay_us(&self) -> SimTime {
        match self {
            // < 10 ms RTT in the paper's LAN; use 4 ms RTT => 2 ms one-way.
            NetworkPreset::Lan => 2 * MICROS_PER_MS,
            // 100 ms RTT => 50 ms one-way.
            NetworkPreset::Wan => 50 * MICROS_PER_MS,
            NetworkPreset::Custom {
                one_way_delay_us, ..
            } => *one_way_delay_us,
        }
    }

    /// Uniform jitter bound (added on top of the one-way delay).
    pub fn jitter_us(&self) -> SimTime {
        match self {
            NetworkPreset::Lan => 300,
            NetworkPreset::Wan => 2 * MICROS_PER_MS,
            NetworkPreset::Custom { jitter_us, .. } => *jitter_us,
        }
    }
}

/// How the per-shard dissemination pipelines of a sharded mempool are
/// driven (`smp-shard`).
///
/// Both kinds call every shard on the replica's thread.  `Parallel` once
/// ran shards on threads of their own, which was slower for
/// byte-identical output; it now behaves as `Sequential` and is kept
/// only while the benchmark package still names the knob.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecutorKind {
    /// All shards run on the calling thread.
    #[default]
    Sequential,
    /// The same as `Sequential`.
    Parallel,
}

impl ExecutorKind {
    /// Stable label for reporting.
    pub fn label(&self) -> &'static str {
        match self {
            ExecutorKind::Sequential => "sequential",
            ExecutorKind::Parallel => "parallel",
        }
    }
}

/// Commit-derivation mode of the DAG mempool (`smp-dag`, the D-HS rows).
///
/// Both modes share the same DAG: blocks are consistently broadcast,
/// acks piggyback on later blocks, and a batch's *support pattern* is the
/// set of distinct replicas whose blocks acknowledged it.  The mode only
/// decides when a batch becomes proposable and what its reference proves.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum DagMode {
    /// Narwhal-strength availability: a batch becomes proposable only
    /// once `2f + 1` distinct acks form a certificate, which is embedded
    /// in the proposal reference and re-verified by every replica.
    #[default]
    Certified,
    /// Uncertified fast path (Mysticeti-style): a batch is proposable on
    /// first delivery; references carry no proof and replicas that miss
    /// the data must fetch it before consensus proceeds.
    FastPath,
}

/// Batching parameters of the mempool (Figure 6).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MempoolConfig {
    /// Target microblock size in bytes (transactions are batched until the
    /// accumulated payload reaches this size).
    pub batch_size_bytes: usize,
    /// Seal a partial batch after this much time even if the target size
    /// has not been reached (200 ms by default, Section VII-B).
    pub batch_timeout: SimTime,
    /// Transaction payload size in bytes (128 B in the evaluation).
    pub tx_payload_bytes: usize,
    /// Maximum number of microblock references pulled into one proposal
    /// (the paper leaves this unconstrained; `usize::MAX` reproduces that).
    pub max_refs_per_proposal: usize,
    /// Maximum number of inline transactions per native proposal.
    pub max_inline_txs_per_proposal: usize,
    /// Byte budget for a cross-shard proposal payload assembled by
    /// `smp-shard` (content that does not fit is carried over to the next
    /// proposal).  Unsharded mempools do not consult this limit.
    pub max_proposal_bytes: usize,
}

impl MempoolConfig {
    /// Number of transactions that fit in one target-sized microblock.
    pub fn txs_per_batch(&self) -> usize {
        (self.batch_size_bytes / self.tx_payload_bytes).max(1)
    }
}

impl Default for MempoolConfig {
    fn default() -> Self {
        MempoolConfig {
            batch_size_bytes: 128 * 1024,
            batch_timeout: 200 * MICROS_PER_MS,
            tx_payload_bytes: 128,
            max_refs_per_proposal: usize::MAX,
            max_inline_txs_per_proposal: 8_000,
            max_proposal_bytes: 2 * 1024 * 1024,
        }
    }
}

/// Global system configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Number of replicas `N`.
    pub n: usize,
    /// Byzantine fault bound `f` (defaults to `(N - 1) / 3`).
    pub f: usize,
    /// Seed for key derivation and all simulation randomness.
    pub seed: u64,
    /// PAB availability quorum `q ∈ [f+1, 2f+1]` (Section IV-A).
    pub pab_quorum: usize,
    /// Network environment.
    pub network: NetworkPreset,
    /// Mempool batching parameters.
    pub mempool: MempoolConfig,
    /// View-change / pacemaker timeout.
    pub view_change_timeout: SimTime,
    /// Number of shared-mempool dissemination shards per replica
    /// (`smp-shard`).  `1` disables sharding and runs the backend mempool
    /// unwrapped.
    pub shards: usize,
    /// How the shards are driven.  Both kinds run every shard on the
    /// replica thread (see [`ExecutorKind`]).
    pub executor: ExecutorKind,
}

impl SystemConfig {
    /// Creates a configuration for `n` replicas with the maximum tolerated
    /// number of Byzantine faults and defaults for everything else.
    pub fn new(n: usize) -> Self {
        assert!(
            n >= 4,
            "BFT requires at least 4 replicas (N >= 3f + 1 with f >= 1)"
        );
        let f = (n - 1) / 3;
        SystemConfig {
            n,
            f,
            seed: 0x53_7472_6174_7573, // "Stratus"
            pab_quorum: f + 1,
            network: NetworkPreset::Lan,
            mempool: MempoolConfig::default(),
            view_change_timeout: 1_000 * MICROS_PER_MS,
            shards: 1,
            executor: ExecutorKind::Sequential,
        }
    }

    /// Sets the number of shared-mempool dissemination shards, clamped to
    /// at least 1.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the shard-executor kind (sequential or parallel).
    pub fn with_executor(mut self, executor: ExecutorKind) -> Self {
        self.executor = executor;
        self
    }

    /// Sets the network preset.
    pub fn with_network(mut self, network: NetworkPreset) -> Self {
        self.network = network;
        self
    }

    /// Sets the RNG / key-derivation seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the PAB availability quorum, clamped to `[f+1, 2f+1]`.
    pub fn with_pab_quorum(mut self, q: usize) -> Self {
        self.pab_quorum = q.clamp(self.f + 1, 2 * self.f + 1);
        self
    }

    /// Sets the mempool batching parameters.
    pub fn with_mempool(mut self, mempool: MempoolConfig) -> Self {
        self.mempool = mempool;
        self
    }

    /// The consensus quorum `2f + 1`.
    pub fn consensus_quorum(&self) -> usize {
        2 * self.f + 1
    }

    /// The minimum availability quorum `f + 1`.
    pub fn min_pab_quorum(&self) -> usize {
        self.f + 1
    }

    /// Iterator over every replica id in the system.
    pub fn replicas(&self) -> impl Iterator<Item = ReplicaId> {
        (0..self.n as u32).map(ReplicaId)
    }

    /// Whether `N >= 3f + 1` holds for the configured values.
    pub fn is_valid(&self) -> bool {
        self.n > 3 * self.f
            && self.pab_quorum > self.f
            && self.pab_quorum <= 2 * self.f + 1
            && self.pab_quorum < self.n
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::new(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_computes_max_f() {
        assert_eq!(SystemConfig::new(4).f, 1);
        assert_eq!(SystemConfig::new(7).f, 2);
        assert_eq!(SystemConfig::new(100).f, 33);
        assert_eq!(SystemConfig::new(400).f, 133);
    }

    #[test]
    #[should_panic(expected = "at least 4 replicas")]
    fn too_few_replicas_panics() {
        let _ = SystemConfig::new(3);
    }

    #[test]
    fn quorums_follow_bft_arithmetic() {
        let c = SystemConfig::new(10);
        assert_eq!(c.f, 3);
        assert_eq!(c.consensus_quorum(), 7);
        assert_eq!(c.min_pab_quorum(), 4);
        assert!(c.is_valid());
    }

    #[test]
    fn pab_quorum_is_clamped() {
        let c = SystemConfig::new(10).with_pab_quorum(1);
        assert_eq!(c.pab_quorum, 4); // f + 1
        let c = SystemConfig::new(10).with_pab_quorum(100);
        assert_eq!(c.pab_quorum, 7); // 2f + 1
    }

    #[test]
    fn network_presets_match_paper() {
        assert_eq!(NetworkPreset::Lan.bandwidth_bps(), 3_000_000_000);
        assert_eq!(NetworkPreset::Wan.bandwidth_bps(), 100_000_000);
        assert_eq!(NetworkPreset::Wan.one_way_delay_us(), 50_000);
    }

    #[test]
    fn mempool_defaults_match_evaluation_setup() {
        let m = MempoolConfig::default();
        assert_eq!(m.batch_size_bytes, 128 * 1024);
        assert_eq!(m.tx_payload_bytes, 128);
        assert_eq!(m.batch_timeout, 200_000);
        assert_eq!(m.txs_per_batch(), 1024);
    }

    #[test]
    fn executor_kind_defaults_to_sequential() {
        assert_eq!(ExecutorKind::default(), ExecutorKind::Sequential);
        assert_eq!(ExecutorKind::Parallel.label(), "parallel");
        let c = SystemConfig::new(4).with_executor(ExecutorKind::Parallel);
        assert_eq!(c.executor, ExecutorKind::Parallel);
    }

    #[test]
    fn replicas_iterator_covers_all() {
        let c = SystemConfig::new(7);
        let ids: Vec<_> = c.replicas().collect();
        assert_eq!(ids.len(), 7);
        assert_eq!(ids[0], ReplicaId(0));
        assert_eq!(ids[6], ReplicaId(6));
    }
}
