//! # stratus-repro
//!
//! A full reproduction of *"Scaling Blockchain Consensus via a Robust
//! Shared Mempool"* (ICDE 2023): the Stratus shared mempool (provably
//! available broadcast + distributed load balancing), the baseline
//! mempools and consensus engines it is evaluated against, a
//! discrete-event network substrate standing in for the paper's cloud
//! testbed, and the experiment harnesses that regenerate every table and
//! figure of the evaluation.
//!
//! This facade crate re-exports the public API of every workspace member
//! so downstream users can depend on a single crate:
//!
//! ```
//! use stratus_repro::prelude::*;
//!
//! let config = ExperimentConfig::new(Protocol::StratusHotStuff, 4, 2_000.0)
//!     .with_duration(500_000, 1_500_000);
//! let result = run_experiment(&config);
//! assert!(result.committed_txs > 0);
//! ```
//!
//! See `examples/` for richer scenarios (a permissioned key-value chain,
//! Byzantine resilience, geo-distributed load balancing) and the
//! `smp-bench` crate for the per-figure harnesses.

pub use simnet;
pub use smp_analysis as analysis;
pub use smp_consensus as consensus;
pub use smp_crypto as crypto;
pub use smp_mempool as mempool;
pub use smp_metrics as metrics;
pub use smp_replica as replica;
pub use smp_shard as shard;
pub use smp_telemetry as telemetry;
pub use smp_types as types;
pub use smp_workload as workload;
pub use stratus;

/// The most commonly used items, re-exported for convenience.
pub mod prelude {
    pub use simnet::{FaultWindow, NetConfig, Simulation};
    pub use smp_consensus::{ConsensusEngine, HotStuffEngine, PbftEngine, StreamletEngine};
    pub use smp_mempool::{DagMempool, Mempool, MempoolEvent, SimpleSmp};
    pub use smp_metrics::RunSummary;
    pub use smp_replica::experiment::run as run_experiment;
    pub use smp_replica::{
        saturation_sweep, Behavior, ExperimentConfig, ExperimentResult, Protocol, Replica,
    };
    pub use smp_shard::{ShardRouter, ShardedMempool, ShardedMsg};
    pub use smp_telemetry::Telemetry;
    pub use smp_types::{
        DagMode, ExecutorKind, MempoolConfig, NetworkPreset, Payload, Proposal, ReplicaId,
        SystemConfig, Transaction, View,
    };
    pub use smp_workload::{LoadDistribution, WorkloadSpec};
    pub use stratus::{DlbConfig, ShardLoadCoordinator, StratusConfig, StratusMempool};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_reexports_compile() {
        use crate::prelude::*;
        let cfg = ExperimentConfig::new(Protocol::StratusHotStuff, 4, 100.0);
        assert_eq!(cfg.n, 4);
    }
}
