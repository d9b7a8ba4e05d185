//! Replica assembly and experiment runner for the Stratus reproduction.
//!
//! This crate glues the pieces together the way the paper's Bamboo-based
//! prototype does: a [`Replica`] owns a consensus engine and a mempool,
//! routes their messages over the [`simnet`] simulator, generates its
//! share of the client workload, and emits the observations (commits,
//! view changes, fetches) that a run's numbers are counted from.  The
//! [`experiment`] module exposes the protocol matrix of Table II and a
//! runner that produces one figure/table data point per call.

mod assembly;
pub mod experiment;
pub mod netrun;
pub mod protocols;
pub mod replica;
pub mod wire;

pub use experiment::{
    run, run_sampled, saturation_sweep, ExperimentConfig, ExperimentResult, ReplicaSizes,
};
pub use netrun::{
    offered_txs, run_cluster_over_net, run_replica_over_net, sim_commit_logs, NetRunOptions,
    NetRunSummary,
};
pub use protocols::Protocol;
pub use replica::{Behavior, Replica, ReplicaMetrics, PAYLOAD_HOLD};
pub use wire::codec::{
    decode_frame, encode_frame, DecodeError, FrameHeader, WireCodec, CODEC_VERSION,
    FRAME_HEADER_BYTES, MAX_FRAME_BYTES,
};
pub use wire::{MempoolWire, ReplicaMsg, ReplicaPayload, SyncMsg};
