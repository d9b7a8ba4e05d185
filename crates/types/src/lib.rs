//! Core data types shared by every crate in the Stratus reproduction.
//!
//! This crate defines the vocabulary of the system described in
//! *"Scaling Blockchain Consensus via a Robust Shared Mempool"*:
//! transactions, microblocks (batches of transactions disseminated by the
//! shared mempool), proposals (which reference microblocks by id),
//! replica/client identifiers, logical time, wire-size modelling, and the
//! system configuration (`N`, `f`, quorum sizes, batch sizes, timeouts and
//! network presets).

pub mod config;
pub mod ids;
pub mod microblock;
pub mod proposal;
pub mod time;
pub mod transaction;
pub mod wire;

pub use config::{DagMode, ExecutorKind, MempoolConfig, NetworkPreset, SystemConfig};
pub use ids::{
    mb_id_derivations, BlockId, ClientId, MicroblockId, ReplicaId, TxId, TxIdPrefix, View,
};
pub use microblock::Microblock;
pub use proposal::{MicroblockRef, Payload, Proposal, SHARD_GROUP_TAG_BYTES};
pub use time::{SimTime, MICROS_PER_MS, MICROS_PER_SEC};
pub use transaction::Transaction;
pub use wire::{WireSize, PROPOSAL_HEADER_BYTES, TX_OVERHEAD_BYTES};
