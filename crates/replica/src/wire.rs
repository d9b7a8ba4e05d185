//! The unified wire message of a replica and its model.
//!
//! A replica exchanges three families of messages: consensus messages
//! (proposals, votes), mempool messages (microblocks, acks, proofs,
//! fetches, load-balancing control) and state transfer.  [`ReplicaMsg`]
//! wraps them so the network simulator sees a single message type per
//! protocol, and carries the priority bit used by the Stratus "prioritize
//! consensus messages" optimization.
//!
//! Everything about a message on the wire is decided here: the simulator's
//! label, bytes ([`size`]), lane and CPU cost ([`cost`]), and the socket
//! encoding ([`codec`]).

pub mod codec;

use simnet::SimMessage;
use smp_consensus::ConsensusMsg;
use smp_mempool::{DagMsg, NarwhalMsg, NativeMsg, SmpMsg};
use smp_shard::ShardedMsg;
use smp_types::{Microblock, TxId, WireSize};
use stratus::StratusMsg;

/// The modelled wire bytes of each message: its own header fields from
/// this table plus the [`WireSize`] of the data it carries (`smp_types`,
/// `smp_crypto`).  Every `wire_size` below reads it.  The values and the
/// order of their sums are what the recorded goldens and baselines were
/// made with: changing one is a deliberate re-record.
pub mod size {
    use smp_types::{Microblock, WireSize};

    /// Any consensus vote: the paper's ~100 B (introduction); view 8,
    /// block hash 32, voter 4, signature 64.
    pub const VOTE: usize = 108;
    /// A PAB ack, Bracha echo or ready: the paper's ~100 B (Table III);
    /// microblock id 32, signer 4, signature 64.
    pub const ACK: usize = 100;
    /// A DLB load query.  Nothing records why 48 B.
    pub const LB_QUERY: usize = 48;
    /// A fetch request before its ids: recorded as "microblock id +
    /// requester" when a request named one id.
    pub const FETCH_REQUEST: usize = 44;
    /// A microblock or transaction id in a list: one digest.
    pub const ID: usize = smp_crypto::DIGEST_BYTES;
    /// A fetch response before its microblocks.  Nothing records why 16 B.
    pub const FETCH_RESPONSE: usize = 16;
    /// A PAB proof message before the proof: the microblock id.
    pub const PROOF_HEADER: usize = 32;
    /// A Narwhal certificate before the proof: batch id 32, creator 4,
    /// transaction count 4.
    pub const CERTIFICATE_HEADER: usize = 40;
    /// A gossip relay's hop budget: a `u8`.
    pub const GOSSIP_HOPS: usize = 1;
    /// A DLB load reply's stable-time estimate, on top of [`LB_QUERY`]: a
    /// `u64`.
    pub const LB_ESTIMATE: usize = 8;
    /// A DAG block's header (creator, round, seq, counts, signature), its
    /// signature at the codec's 12-byte stand-in, not 64 B.
    pub const DAG_BLOCK_HEADER: usize = 40;
    /// A DAG parent edge: creator 4, round 8.
    pub const DAG_EDGE: usize = 12;
    /// A DAG block's ack: batch id 32 and the codec's 12-byte signature
    /// stand-in, where [`ACK`] charges 64.
    pub const DAG_ACK: usize = 44;
    /// A state-transfer request: first missing index 8, and 4 B nothing
    /// records.
    pub const SYNC_REQUEST: usize = 12;
    /// A state-transfer response before its [`ID`]s: first index 8,
    /// count 8.
    pub const SYNC_RESPONSE: usize = 16;

    /// A fetch request naming `ids` microblocks.
    pub fn fetch_request(ids: usize) -> usize {
        FETCH_REQUEST + ids * ID
    }

    /// A fetch response returning `mbs`.
    pub fn fetch_response(mbs: &[Microblock]) -> usize {
        FETCH_RESPONSE + mbs.iter().map(WireSize::wire_size).sum::<usize>()
    }
}

/// The receiver CPU cost model: what the simulator charges a replica, in
/// microseconds, to handle each message before its handler runs.  Every
/// `cpu_cost_us` below reads this table and nothing else.
///
/// Each entry is one of two kinds:
/// - *Modelled crypto* stands for a cryptographic check.  Signatures here
///   are MACs (`smp_crypto`), so what the host spends on them says
///   nothing; the entry names the operation it stands for.
/// - *Handler* is host work a measurement could time; the entry names the
///   handler span that would time it.
///
/// The values and the order of their f64 sums are what the recorded
/// goldens and baselines were made with: changing one is a deliberate
/// re-record (ROADMAP: every model constant has a source).
pub mod cost {
    /// *Handler*: fixed cost of a message that carries microblock bodies
    /// (decode, id check, store insert); the handler span of an empty body.
    pub const BODY_BASE_US: f64 = 20.0;
    /// *Handler*: cost per transaction in a body; the slope of that span
    /// against the body's transaction count.
    pub const BODY_PER_TX_US: f64 = 0.6;
    /// *Handler*: a DAG block before its batch and acks (decode, digest,
    /// parent bookkeeping, with the creator's MAC check folded in); the
    /// handler span of a block with neither.
    pub const DAG_BLOCK_BASE_US: f64 = 30.0;
    /// *Modelled crypto*: one signature verification (a PAB ack, each ack
    /// a DAG block carries), standing for an Ed25519 verify (Bernstein et
    /// al., "High-speed high-security signatures", 2012).
    pub const SIG_VERIFY_US: f64 = 60.0;
    /// *Modelled crypto*: an echo or ready of Bracha's reliable broadcast
    /// (Bracha, "Asynchronous Byzantine agreement protocols", 1987): one
    /// signature verification, charged 10 µs above [`SIG_VERIFY_US`].
    /// Nothing records why; refitting it moves every Narwhal row.
    pub const BRACHA_VOTE_US: f64 = 70.0;
    /// *Modelled crypto*: one aggregate check of a quorum certificate (a
    /// PAB proof, a Narwhal certificate), standing for a BLS
    /// multi-signature checked against the signers' aggregate key (Boneh,
    /// Drijvers and Neven, "Compact multi-signatures for smaller
    /// blockchains", 2018).  The host's stand-in has the same shape: one
    /// message hash plus `q` additions.
    pub const AGGREGATE_VERIFY_US: f64 = 90.0;
    /// *Handler*: a fetch request (look the ids up, queue the response);
    /// the handler span of a fetch request.
    pub const FETCH_REQUEST_US: f64 = 8.0;
    /// *Handler*: a DLB load query or load report; their handler spans.
    pub const DLB_CONTROL_US: f64 = 5.0;
    /// *Handler*: a proposal's header checks; the consensus handler span
    /// of an empty proposal.
    pub const PROPOSAL_BASE_US: f64 = 40.0;
    /// *Handler*: per microblock reference a proposal carries.
    pub const PROPOSAL_PER_REF_US: f64 = 1.0;
    /// *Handler*: per transaction a proposal carries inline.
    pub const PROPOSAL_PER_INLINE_TX_US: f64 = 0.4;
    /// *Handler*: any other consensus message (a vote, a new-view); its
    /// signature is not charged apart.
    pub const CONSENSUS_VOTE_US: f64 = 25.0;
    /// *Handler*: a state-transfer request, and the fixed part of a
    /// response; the sync handler span.
    pub const SYNC_BASE_US: f64 = 5.0;
    /// *Handler*: per committed id a state-transfer response appends.
    pub const SYNC_PER_ENTRY_US: f64 = 0.2;

    /// What a message carrying `txs` transactions of microblock bodies
    /// costs.
    pub fn body_us(txs: usize) -> f64 {
        BODY_BASE_US + BODY_PER_TX_US * txs as f64
    }
}

use cost::body_us;

fn bodies_us(mbs: &[Microblock]) -> f64 {
    body_us(mbs.iter().map(|m| m.len()).sum())
}

/// Mempool message types routable by a replica.  Each family's impl below
/// is that family's whole model on the simulated wire.
pub trait MempoolWire: Clone + std::fmt::Debug {
    /// Whether the family's mempool shares transactions among replicas, so
    /// that payload can reach a leader that has none: only then may a
    /// leader hold its view for payload (see the replica).
    const SHARED: bool = true;
    /// Stable label for bandwidth accounting (Table III splits traffic
    /// into proposals, microblocks, votes and acks).
    fn kind(&self) -> &'static str;
    /// Modelled bytes on the wire.
    fn wire_size(&self) -> usize;
    /// Whether the message is bulk data (low priority lane).
    fn is_bulk(&self) -> bool;
    /// CPU cost of handling the message at the receiver, in microseconds.
    fn cpu_cost_us(&self) -> f64;
}

/// The native mempool sends nothing: no value of [`NativeMsg`] exists, and
/// a leader proposes only what its own clients sent it.
impl MempoolWire for NativeMsg {
    const SHARED: bool = false;
    fn kind(&self) -> &'static str {
        match *self {}
    }
    fn wire_size(&self) -> usize {
        match *self {}
    }
    fn is_bulk(&self) -> bool {
        match *self {}
    }
    fn cpu_cost_us(&self) -> f64 {
        match *self {}
    }
}

impl MempoolWire for SmpMsg {
    fn kind(&self) -> &'static str {
        match self {
            SmpMsg::Microblock(_) | SmpMsg::Gossip { .. } => "microblock",
            SmpMsg::Fetch { .. } => "fetch-req",
            SmpMsg::FetchResp { .. } => "fetch-resp",
        }
    }
    fn wire_size(&self) -> usize {
        match self {
            SmpMsg::Microblock(mb) => mb.wire_size(),
            SmpMsg::Gossip { mb, .. } => mb.wire_size() + size::GOSSIP_HOPS,
            SmpMsg::Fetch { ids } => size::fetch_request(ids.len()),
            SmpMsg::FetchResp { mbs } => size::fetch_response(mbs),
        }
    }
    fn is_bulk(&self) -> bool {
        matches!(
            self,
            SmpMsg::Microblock(_) | SmpMsg::Gossip { .. } | SmpMsg::FetchResp { .. }
        )
    }
    fn cpu_cost_us(&self) -> f64 {
        match self {
            SmpMsg::Microblock(mb) | SmpMsg::Gossip { mb, .. } => body_us(mb.len()),
            SmpMsg::Fetch { .. } => cost::FETCH_REQUEST_US,
            SmpMsg::FetchResp { mbs } => bodies_us(mbs),
        }
    }
}

impl MempoolWire for NarwhalMsg {
    fn kind(&self) -> &'static str {
        match self {
            NarwhalMsg::Batch(_) => "microblock",
            NarwhalMsg::Echo { .. } => "rb-echo",
            NarwhalMsg::Ready { .. } => "rb-ready",
            NarwhalMsg::Certificate { .. } => "rb-cert",
            NarwhalMsg::Fetch { .. } => "fetch-req",
            NarwhalMsg::FetchResp { .. } => "fetch-resp",
        }
    }
    fn wire_size(&self) -> usize {
        match self {
            NarwhalMsg::Batch(mb) => mb.wire_size(),
            NarwhalMsg::Echo { .. } | NarwhalMsg::Ready { .. } => size::ACK,
            NarwhalMsg::Certificate { proof, .. } => size::CERTIFICATE_HEADER + proof.wire_size(),
            NarwhalMsg::Fetch { ids } => size::fetch_request(ids.len()),
            NarwhalMsg::FetchResp { mbs } => size::fetch_response(mbs),
        }
    }
    fn is_bulk(&self) -> bool {
        matches!(self, NarwhalMsg::Batch(_) | NarwhalMsg::FetchResp { .. })
    }
    fn cpu_cost_us(&self) -> f64 {
        match self {
            NarwhalMsg::Batch(mb) => body_us(mb.len()),
            NarwhalMsg::Echo { .. } | NarwhalMsg::Ready { .. } => cost::BRACHA_VOTE_US,
            NarwhalMsg::Certificate { .. } => cost::AGGREGATE_VERIFY_US,
            NarwhalMsg::Fetch { .. } => cost::FETCH_REQUEST_US,
            NarwhalMsg::FetchResp { mbs } => bodies_us(mbs),
        }
    }
}

impl MempoolWire for DagMsg {
    fn kind(&self) -> &'static str {
        match self {
            DagMsg::Block(b) if b.batch.is_some() => "microblock",
            DagMsg::Block(_) => "dag-ack",
            DagMsg::Fetch { .. } => "fetch-req",
            DagMsg::FetchResp { .. } => "fetch-resp",
        }
    }
    fn wire_size(&self) -> usize {
        match self {
            DagMsg::Block(b) => {
                size::DAG_BLOCK_HEADER
                    + b.parents.len() * size::DAG_EDGE
                    + b.acks.len() * size::DAG_ACK
                    + b.batch.wire_size()
            }
            DagMsg::Fetch { ids } => size::fetch_request(ids.len()),
            DagMsg::FetchResp { mbs } => size::fetch_response(mbs),
        }
    }
    fn is_bulk(&self) -> bool {
        matches!(self, DagMsg::Block(b) if b.batch.is_some())
            || matches!(self, DagMsg::FetchResp { .. })
    }
    fn cpu_cost_us(&self) -> f64 {
        match self {
            DagMsg::Block(b) => {
                let batch = b.batch.as_ref().map_or(0, |mb| mb.len());
                cost::DAG_BLOCK_BASE_US
                    + cost::BODY_PER_TX_US * batch as f64
                    + cost::SIG_VERIFY_US * b.acks.len() as f64
            }
            DagMsg::Fetch { .. } => cost::FETCH_REQUEST_US,
            DagMsg::FetchResp { mbs } => bodies_us(mbs),
        }
    }
}

impl MempoolWire for StratusMsg {
    fn kind(&self) -> &'static str {
        match self {
            StratusMsg::PabMsg(_) => "microblock",
            StratusMsg::PabAck { .. } => "ack",
            StratusMsg::PabProof { .. } => "proof",
            StratusMsg::PabRequest { .. } => "fetch-req",
            StratusMsg::PabResponse { .. } => "fetch-resp",
            StratusMsg::LbQuery { .. } | StratusMsg::LbInfo { .. } => "lb-control",
            StratusMsg::LbForward(_) => "lb-forward",
        }
    }
    fn wire_size(&self) -> usize {
        match self {
            StratusMsg::PabMsg(mb) | StratusMsg::LbForward(mb) => mb.wire_size(),
            StratusMsg::PabAck { .. } => size::ACK,
            StratusMsg::PabProof { proof, .. } => size::PROOF_HEADER + proof.wire_size(),
            StratusMsg::PabRequest { ids } => size::fetch_request(ids.len()),
            StratusMsg::PabResponse { mbs } => size::fetch_response(mbs),
            StratusMsg::LbQuery { .. } => size::LB_QUERY,
            StratusMsg::LbInfo { .. } => size::LB_QUERY + size::LB_ESTIMATE,
        }
    }
    fn is_bulk(&self) -> bool {
        matches!(
            self,
            StratusMsg::PabMsg(_) | StratusMsg::PabResponse { .. } | StratusMsg::LbForward(_)
        )
    }
    fn cpu_cost_us(&self) -> f64 {
        match self {
            StratusMsg::PabMsg(mb) | StratusMsg::LbForward(mb) => body_us(mb.len()),
            StratusMsg::PabAck { .. } => cost::SIG_VERIFY_US,
            StratusMsg::PabProof { .. } => cost::AGGREGATE_VERIFY_US,
            StratusMsg::PabRequest { .. } => cost::FETCH_REQUEST_US,
            StratusMsg::PabResponse { mbs } => bodies_us(mbs),
            StratusMsg::LbQuery { .. } | StratusMsg::LbInfo { .. } => cost::DLB_CONTROL_US,
        }
    }
}

/// A sharded envelope costs what its wrapped message costs: the shard
/// index rides in header padding (see [`ShardedMsg`]), so bandwidth,
/// priority, and CPU accounting all delegate to the inner message.  This
/// is what makes a one-shard deployment behave identically to an
/// unsharded one.
impl<M: MempoolWire> MempoolWire for ShardedMsg<M> {
    const SHARED: bool = M::SHARED;
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
    fn wire_size(&self) -> usize {
        self.inner.wire_size()
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

impl SyncMsg {
    /// Whether the message is bulk data: responses are; requests ride the
    /// priority lane (they are tiny and latency-bound).
    pub(crate) fn is_bulk(&self) -> bool {
        matches!(self, SyncMsg::Response { .. })
    }
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

    /// Wraps a recovery message on its lane (`SyncMsg::is_bulk`).
    pub fn sync(msg: SyncMsg) -> Self {
        let priority = !msg.is_bulk();
        ReplicaMsg {
            payload: ReplicaPayload::Sync(msg),
            priority,
        }
    }
}

impl<MM: MempoolWire> SimMessage for ReplicaMsg<MM> {
    fn wire_size(&self) -> usize {
        match &self.payload {
            ReplicaPayload::Consensus(c) => match c {
                ConsensusMsg::Propose(p) => p.wire_size(),
                _ => size::VOTE,
            },
            ReplicaPayload::Mempool(m) => m.wire_size(),
            ReplicaPayload::Sync(s) => match s {
                SyncMsg::Request { .. } => size::SYNC_REQUEST,
                SyncMsg::Response { entries, .. } => size::SYNC_RESPONSE + size::ID * entries.len(),
            },
        }
    }

    fn kind(&self) -> &'static str {
        match &self.payload {
            ReplicaPayload::Consensus(c) => match c {
                ConsensusMsg::Propose(_) => "proposal",
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
                    cost::PROPOSAL_BASE_US
                        + cost::PROPOSAL_PER_REF_US * p.payload.ref_count() as f64
                        + cost::PROPOSAL_PER_INLINE_TX_US * p.payload.inline_tx_count() as f64
                }
                _ => cost::CONSENSUS_VOTE_US,
            },
            ReplicaPayload::Mempool(m) => m.cpu_cost_us(),
            ReplicaPayload::Sync(s) => match s {
                SyncMsg::Request { .. } => cost::SYNC_BASE_US,
                SyncMsg::Response { entries, .. } => {
                    cost::SYNC_BASE_US + cost::SYNC_PER_ENTRY_US * entries.len() as f64
                }
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

    #[test]
    #[allow(clippy::assertions_on_constants, clippy::manual_range_contains)]
    fn vote_is_roughly_100_bytes() {
        assert!(size::VOTE >= 90 && size::VOTE <= 128);
    }
}
