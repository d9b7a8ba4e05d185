//! The unified wire message of a replica and its cost model.
//!
//! A replica exchanges two families of messages: consensus messages
//! (proposals, votes) and mempool messages (microblocks, acks, proofs,
//! fetches, load-balancing control).  [`ReplicaMsg`] wraps both so the
//! network simulator sees a single message type per protocol, and carries
//! the priority bit used by the Stratus "prioritize consensus messages"
//! optimization.

pub mod codec;

use simnet::SimMessage;
use smp_consensus::ConsensusMsg;
use smp_mempool::{DagMsg, NarwhalMsg, NativeMsg, SmpMsg};
use smp_shard::ShardedMsg;
use smp_types::{TxId, WireSize};
use stratus::StratusMsg;

/// Mempool message types routable by a replica.
pub trait MempoolWire: WireSize + Clone + std::fmt::Debug {
    /// Stable label for bandwidth accounting.
    fn kind(&self) -> &'static str;
    /// Whether the message is bulk data (low priority lane).
    fn is_bulk(&self) -> bool;
    /// CPU cost of handling the message at the receiver, in microseconds.
    fn cpu_cost_us(&self) -> f64;
}

impl MempoolWire for NativeMsg {
    fn kind(&self) -> &'static str {
        "mempool"
    }
    fn is_bulk(&self) -> bool {
        false
    }
    fn cpu_cost_us(&self) -> f64 {
        1.0
    }
}

impl MempoolWire for SmpMsg {
    fn kind(&self) -> &'static str {
        SmpMsg::kind(self)
    }
    fn is_bulk(&self) -> bool {
        matches!(
            self,
            SmpMsg::Microblock(_) | SmpMsg::Gossip { .. } | SmpMsg::FetchResp { .. }
        )
    }
    fn cpu_cost_us(&self) -> f64 {
        match self {
            SmpMsg::Microblock(mb) | SmpMsg::Gossip { mb, .. } => 20.0 + 0.6 * mb.len() as f64,
            SmpMsg::Fetch { .. } => 8.0,
            SmpMsg::FetchResp { mbs } => {
                20.0 + 0.6 * mbs.iter().map(|m| m.len()).sum::<usize>() as f64
            }
        }
    }
}

impl MempoolWire for NarwhalMsg {
    fn kind(&self) -> &'static str {
        NarwhalMsg::kind(self)
    }
    fn is_bulk(&self) -> bool {
        matches!(self, NarwhalMsg::Batch(_) | NarwhalMsg::FetchResp { .. })
    }
    fn cpu_cost_us(&self) -> f64 {
        match self {
            NarwhalMsg::Batch(mb) => 20.0 + 0.6 * mb.len() as f64,
            NarwhalMsg::Echo { .. } | NarwhalMsg::Ready { .. } => 70.0, // signature verify
            NarwhalMsg::Certificate { .. } => 90.0,
            NarwhalMsg::Fetch { .. } => 8.0,
            NarwhalMsg::FetchResp { mbs } => {
                20.0 + 0.6 * mbs.iter().map(|m| m.len()).sum::<usize>() as f64
            }
        }
    }
}

impl MempoolWire for DagMsg {
    fn kind(&self) -> &'static str {
        DagMsg::kind(self)
    }
    fn is_bulk(&self) -> bool {
        matches!(
            self,
            DagMsg::Block(b) if b.batch.is_some()
        ) || matches!(self, DagMsg::FetchResp { .. })
    }
    fn cpu_cost_us(&self) -> f64 {
        match self {
            // Block digest + creator signature check, per-ack signature
            // verification, and per-transaction batch ingestion.
            DagMsg::Block(b) => {
                let batch = b.batch.as_ref().map_or(0, |mb| mb.len());
                30.0 + 0.6 * batch as f64 + 60.0 * b.acks.len() as f64
            }
            DagMsg::Fetch { .. } => 8.0,
            DagMsg::FetchResp { mbs } => {
                20.0 + 0.6 * mbs.iter().map(|m| m.len()).sum::<usize>() as f64
            }
        }
    }
}

impl MempoolWire for StratusMsg {
    fn kind(&self) -> &'static str {
        StratusMsg::kind(self)
    }
    fn is_bulk(&self) -> bool {
        self.is_bulk_data()
    }
    fn cpu_cost_us(&self) -> f64 {
        match self {
            StratusMsg::PabMsg(mb) | StratusMsg::LbForward(mb) => 20.0 + 0.6 * mb.len() as f64,
            StratusMsg::PabAck { .. } => 60.0, // one signature verification
            // One aggregate check: what `NarwhalMsg::Certificate` pays.
            StratusMsg::PabProof { .. } => 90.0,
            StratusMsg::PabRequest { .. } => 8.0,
            StratusMsg::PabResponse { mbs } => {
                20.0 + 0.6 * mbs.iter().map(|m| m.len()).sum::<usize>() as f64
            }
            StratusMsg::LbQuery { .. } | StratusMsg::LbInfo { .. } => 5.0,
        }
    }
}

/// A sharded envelope costs what its wrapped message costs: the shard
/// index rides in header padding (see [`ShardedMsg`]), so bandwidth,
/// priority, and CPU accounting all delegate to the inner message.  This
/// is what makes a one-shard deployment behave identically to an
/// unsharded one.
impl<M: MempoolWire> MempoolWire for ShardedMsg<M> {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
    fn is_bulk(&self) -> bool {
        self.inner.is_bulk()
    }
    fn cpu_cost_us(&self) -> f64 {
        self.inner.cpu_cost_us()
    }
}

/// The wire message of a replica running mempool message type `MM`.
#[derive(Clone, Debug)]
pub struct ReplicaMsg<MM> {
    /// The wrapped payload.
    pub payload: ReplicaPayload<MM>,
    /// Whether the sender marked the message for the high-priority lane.
    pub priority: bool,
}

/// The message families a replica routes.
#[derive(Clone, Debug)]
pub enum ReplicaPayload<MM> {
    /// Consensus-engine message.
    Consensus(ConsensusMsg),
    /// Mempool message.
    Mempool(MM),
    /// Crash-recovery state transfer.
    Sync(SyncMsg),
}

/// Crash-recovery state transfer: a restarted replica replays the
/// committed sequence from its live peers.
///
/// The protocol is deliberately minimal — crash faults only.  The
/// requester asks for the committed log from the first index it does
/// not hold; any peer with a commit log answers with a bounded chunk of
/// the tail.  Responses from different peers are safe to interleave
/// because committed prefixes never conflict under BFT safety.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SyncMsg {
    /// "Send me the committed sequence starting at `from_index`."
    Request {
        /// First log index the requester is missing.
        from_index: u64,
    },
    /// A chunk of the committed sequence starting at `from_index`.
    Response {
        /// Index of the first entry in `entries`.
        from_index: u64,
        /// Committed transaction ids, in commit order.
        entries: Vec<TxId>,
    },
}

impl<MM: MempoolWire> ReplicaMsg<MM> {
    /// Wraps a consensus message.
    pub fn consensus(msg: ConsensusMsg, priority: bool) -> Self {
        ReplicaMsg {
            payload: ReplicaPayload::Consensus(msg),
            priority,
        }
    }

    /// Wraps a mempool message.
    pub fn mempool(msg: MM, priority: bool) -> Self {
        ReplicaMsg {
            payload: ReplicaPayload::Mempool(msg),
            priority,
        }
    }

    /// Wraps a recovery message.  Requests ride the priority lane (they
    /// are tiny and latency-bound); responses are bulk data.
    pub fn sync(msg: SyncMsg) -> Self {
        let priority = matches!(msg, SyncMsg::Request { .. });
        ReplicaMsg {
            payload: ReplicaPayload::Sync(msg),
            priority,
        }
    }
}

impl<MM: MempoolWire> SimMessage for ReplicaMsg<MM> {
    fn wire_size(&self) -> usize {
        match &self.payload {
            ReplicaPayload::Consensus(c) => c.wire_size(),
            ReplicaPayload::Mempool(m) => m.wire_size(),
            ReplicaPayload::Sync(s) => match s {
                SyncMsg::Request { .. } => 12,
                SyncMsg::Response { entries, .. } => 16 + 32 * entries.len(),
            },
        }
    }

    fn kind(&self) -> &'static str {
        match &self.payload {
            ReplicaPayload::Consensus(c) => match c.kind() {
                "proposal" => "proposal",
                _ => "vote",
            },
            ReplicaPayload::Mempool(m) => m.kind(),
            ReplicaPayload::Sync(_) => "sync",
        }
    }

    fn cpu_cost_us(&self) -> f64 {
        match &self.payload {
            ReplicaPayload::Consensus(c) => match c {
                ConsensusMsg::Propose(p) => {
                    // Header checks plus per-reference / per-transaction work.
                    40.0 + 1.0 * p.payload.ref_count() as f64
                        + 0.4 * p.payload.inline_tx_count() as f64
                }
                _ => 25.0,
            },
            ReplicaPayload::Mempool(m) => m.cpu_cost_us(),
            ReplicaPayload::Sync(s) => match s {
                SyncMsg::Request { .. } => 5.0,
                // Appending ids to a log: cheap per entry.
                SyncMsg::Response { entries, .. } => 5.0 + 0.2 * entries.len() as f64,
            },
        }
    }

    fn high_priority(&self) -> bool {
        self.priority
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smp_types::{
        BlockId, ClientId, Microblock, Payload, Proposal, ReplicaId, Transaction, View,
    };

    fn mb(n: usize) -> Microblock {
        let txs = (0..n)
            .map(|i| Transaction::synthetic(ClientId(0), i as u64, 128, 0))
            .collect();
        Microblock::seal(ReplicaId(0), txs, 0)
    }

    #[test]
    fn consensus_votes_are_small_and_can_be_prioritized() {
        let vote = ConsensusMsg::Vote {
            view: View(1),
            block: BlockId::GENESIS,
            voter: ReplicaId(0),
        };
        let msg: ReplicaMsg<StratusMsg> = ReplicaMsg::consensus(vote, true);
        assert!(msg.wire_size() < 200);
        assert!(msg.high_priority());
        assert_eq!(msg.kind(), "vote");
    }

    #[test]
    fn microblock_messages_are_bulk_and_low_priority() {
        let m = StratusMsg::PabMsg(mb(100));
        assert!(m.is_bulk());
        let msg: ReplicaMsg<StratusMsg> = ReplicaMsg::mempool(m, false);
        assert!(!msg.high_priority());
        assert_eq!(msg.kind(), "microblock");
        assert!(msg.wire_size() > 100 * 128);
        assert!(msg.cpu_cost_us() > 20.0);
    }

    #[test]
    fn proposal_cpu_cost_scales_with_contents() {
        let small = Proposal::new(
            View(1),
            1,
            BlockId::GENESIS,
            ReplicaId(0),
            Payload::Empty,
            true,
        );
        let big = Proposal::new(
            View(1),
            1,
            BlockId::GENESIS,
            ReplicaId(0),
            Payload::inline(
                (0..1000)
                    .map(|i| Transaction::synthetic(ClientId(0), i, 128, 0))
                    .collect(),
            ),
            true,
        );
        let s: ReplicaMsg<SmpMsg> = ReplicaMsg::consensus(ConsensusMsg::Propose(small), false);
        let b: ReplicaMsg<SmpMsg> = ReplicaMsg::consensus(ConsensusMsg::Propose(big), false);
        assert!(b.cpu_cost_us() > s.cpu_cost_us());
    }
}
