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
    pub use simnet::{FaultAction, FaultSchedule, NetConfig, Simulation};
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

/// The messages of `mempool::messages` and `stratus::messages`, as
/// `replica::wire` models them: label, bytes and lane.
#[cfg(test)]
mod messages {
    mod tests {
        use crate::crypto::{KeyPair, QuorumProof, Signature};
        use crate::mempool::{NarwhalMsg, SmpMsg};
        use crate::replica::MempoolWire;
        use crate::stratus::StratusMsg;
        use crate::types::{ClientId, Microblock, ReplicaId, Transaction};

        fn mb(n: usize) -> Microblock {
            let txs = (0..n)
                .map(|i| Transaction::synthetic(ClientId(0), i as u64, 128, 0))
                .collect();
            Microblock::seal(ReplicaId(0), txs, 0)
        }

        #[test]
        fn smp_msg_kinds_and_sizes() {
            let m = SmpMsg::Microblock(mb(10));
            assert_eq!(m.kind(), "microblock");
            assert!(m.wire_size() > 10 * 128);
            let f = SmpMsg::Fetch {
                ids: vec![mb(1).id, mb(2).id],
            };
            assert_eq!(f.kind(), "fetch-req");
            assert!(f.wire_size() < 200);
            let g = SmpMsg::Gossip { mb: mb(5), hops: 3 };
            assert_eq!(g.kind(), "microblock");
        }

        #[test]
        fn narwhal_control_messages_are_small() {
            let kp = KeyPair::derive(1, 0);
            let sig = Signature::sign(&kp.secret, &mb(1).id.digest());
            assert!(NarwhalMsg::Echo { id: mb(1).id, sig }.wire_size() <= 128);
            assert!(NarwhalMsg::Ready { id: mb(1).id, sig }.wire_size() <= 128);
            assert_eq!(NarwhalMsg::Batch(mb(3)).kind(), "microblock");
        }

        #[test]
        fn data_messages_are_flagged_as_bulk() {
            assert!(StratusMsg::PabMsg(mb(4)).is_bulk());
            assert!(StratusMsg::LbForward(mb(4)).is_bulk());
            assert!(!StratusMsg::LbQuery { token: 1 }.is_bulk());
            assert!(!StratusMsg::PabProof {
                id: mb(1).id,
                proof: QuorumProof::new(mb(1).id.digest())
            }
            .is_bulk());
        }

        #[test]
        fn control_messages_are_small() {
            let kp = KeyPair::derive(0, 0);
            let sig = Signature::sign(&kp.secret, &mb(1).id.digest());
            assert!(StratusMsg::PabAck { id: mb(1).id, sig }.wire_size() <= 128);
            assert!(StratusMsg::LbQuery { token: 9 }.wire_size() <= 64);
            assert!(
                StratusMsg::LbInfo {
                    token: 9,
                    stable_time_us: Some(10)
                }
                .wire_size()
                    <= 64
            );
        }

        #[test]
        fn kinds_match_table_iii_vocabulary() {
            assert_eq!(StratusMsg::PabMsg(mb(1)).kind(), "microblock");
            assert_eq!(
                StratusMsg::PabAck {
                    id: mb(1).id,
                    sig: Signature::sign(&KeyPair::derive(0, 0).secret, &mb(1).id.digest())
                }
                .kind(),
                "ack"
            );
        }
    }
}

/// The messages of `consensus::api`, as `replica::wire` models them:
/// label and bytes.
#[cfg(test)]
mod api {
    mod tests {
        use crate::consensus::ConsensusMsg;
        use crate::mempool::SmpMsg;
        use crate::replica::wire::size;
        use crate::replica::ReplicaMsg;
        use crate::simnet::SimMessage;
        use crate::types::{BlockId, Payload, Proposal, ReplicaId, View, PROPOSAL_HEADER_BYTES};

        fn wrap(msg: ConsensusMsg) -> ReplicaMsg<SmpMsg> {
            ReplicaMsg::consensus(msg, false)
        }

        #[test]
        fn consensus_msg_kinds_and_sizes() {
            let p = Proposal::new(
                View(1),
                1,
                BlockId::GENESIS,
                ReplicaId(0),
                Payload::Empty,
                true,
            );
            assert_eq!(wrap(ConsensusMsg::Propose(p.clone())).kind(), "proposal");
            let vote = wrap(ConsensusMsg::Vote {
                view: View(1),
                block: p.id,
                voter: ReplicaId(1),
            });
            assert_eq!(vote.kind(), "vote");
            assert_eq!(vote.wire_size(), size::VOTE);
            assert!(wrap(ConsensusMsg::Propose(p)).wire_size() >= PROPOSAL_HEADER_BYTES);
        }
    }
}
