//! Wire messages of the Stratus shared mempool.

use serde::{Deserialize, Serialize};
use smp_crypto::{QuorumProof, Signature};
use smp_types::{Microblock, MicroblockId, SimTime};

/// Messages exchanged between Stratus mempool instances.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum StratusMsg {
    /// PAB push phase: the disseminator broadcasts the microblock.
    PabMsg(Microblock),
    /// PAB push phase: a receiver acknowledges the microblock to the
    /// disseminator with its signature share.
    PabAck {
        /// Acknowledged microblock.
        id: MicroblockId,
        /// Signature over the microblock id.
        sig: Signature,
    },
    /// PAB recovery phase: the availability proof is broadcast.
    PabProof {
        /// Proven microblock.
        id: MicroblockId,
        /// The availability proof (`q` aggregated signatures).
        proof: QuorumProof,
    },
    /// PAB recovery phase: request for missing microblocks.
    PabRequest {
        /// Requested microblock ids.
        ids: Vec<MicroblockId>,
    },
    /// PAB recovery phase: response with the requested microblocks.
    PabResponse {
        /// The returned microblocks.
        mbs: Vec<Microblock>,
    },
    /// DLB: a busy replica samples the load status of a peer.
    LbQuery {
        /// Correlation token.
        token: u64,
    },
    /// DLB: load-status reply; `stable_time_us` is `None` when the replica
    /// is itself busy.
    LbInfo {
        /// Correlation token from the query.
        token: u64,
        /// Estimated stable time, or `None` if busy.
        stable_time_us: Option<SimTime>,
    },
    /// DLB: a busy replica forwards a microblock to the chosen proxy for
    /// dissemination on its behalf.
    LbForward(Microblock),
}
