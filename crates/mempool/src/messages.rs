//! Wire messages used by the baseline shared-mempool implementations.

use serde::{Deserialize, Serialize};
use smp_crypto::{QuorumProof, Signature};
use smp_types::{Microblock, MicroblockId, ReplicaId};

/// Messages exchanged by the best-effort and gossip shared mempools.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum SmpMsg {
    /// Best-effort broadcast of a microblock.
    Microblock(Microblock),
    /// Gossip relay of a microblock with a remaining hop budget.
    Gossip {
        /// The relayed microblock.
        mb: Microblock,
        /// Remaining relay hops.
        hops: u8,
    },
    /// Request for missing microblocks.
    Fetch {
        /// Identifiers being requested.
        ids: Vec<MicroblockId>,
    },
    /// Response carrying the requested microblocks that the responder has.
    FetchResp {
        /// The returned microblocks.
        mbs: Vec<Microblock>,
    },
}

/// Messages exchanged by the Narwhal-style reliable-broadcast mempool.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum NarwhalMsg {
    /// The worker batch (microblock) itself.
    Batch(Microblock),
    /// Echo of a batch digest, signed by the echoing replica.
    Echo {
        /// Batch being echoed.
        id: MicroblockId,
        /// Echoing replica's signature over the batch id.
        sig: Signature,
    },
    /// Ready message of Bracha-style reliable broadcast, signed.
    Ready {
        /// Batch the replica is ready to deliver.
        id: MicroblockId,
        /// Signature over the batch id.
        sig: Signature,
    },
    /// Availability certificate assembled from `2f + 1` ready signatures.
    Certificate {
        /// Certified batch.
        id: MicroblockId,
        /// Creator of the batch.
        creator: ReplicaId,
        /// Number of transactions in the batch.
        tx_count: u32,
        /// The certificate.
        proof: QuorumProof,
    },
    /// Request for missing batches.
    Fetch {
        /// Identifiers being requested.
        ids: Vec<MicroblockId>,
    },
    /// Response with the requested batches.
    FetchResp {
        /// The returned batches.
        mbs: Vec<Microblock>,
    },
}
