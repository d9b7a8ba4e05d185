//! Identifier newtypes.
//!
//! Identifiers are small copyable newtypes so they can be passed around the
//! simulation freely; content-addressed identifiers wrap a
//! [`smp_crypto::Digest`].

use serde::{Deserialize, Serialize};
use smp_crypto::Digest;
use std::fmt;

/// Index of a replica in the system (`0..N`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default)]
pub struct ReplicaId(pub u32);

impl ReplicaId {
    /// Returns the underlying index as a `usize` for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// Identifier of an external client issuing transactions.
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct ClientId(pub u32);

/// Content-derived identifier of a transaction.
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct TxId(pub Digest);

impl TxId {
    /// Derives a transaction id from the issuing client and a per-client
    /// sequence number.
    pub fn derive(client: ClientId, seq: u64) -> Self {
        TxIdPrefix::new(client).derive(seq)
    }
}

/// The part of [`TxId::derive`] that depends on the client alone: the
/// hasher state after the domain word and the client word.
///
/// A client that issues many transactions builds its prefix once and pays
/// only for the sequence number per id; `prefix.derive(seq)` equals
/// `TxId::derive(prefix.client(), seq)`.
#[derive(Clone, Debug)]
pub struct TxIdPrefix {
    client: ClientId,
    state: smp_crypto::Hasher,
}

impl TxIdPrefix {
    /// Absorbs the domain and `client`.
    pub fn new(client: ClientId) -> Self {
        let mut state = smp_crypto::Hasher::with_domain(0x5458_4944); // "TXID"
        state.update_u64(client.0 as u64);
        TxIdPrefix { client, state }
    }

    /// The client whose ids this prefix derives.
    pub fn client(&self) -> ClientId {
        self.client
    }

    /// The id of the client's transaction number `seq`.
    pub fn derive(&self, seq: u64) -> TxId {
        let mut h = self.state.clone();
        h.update_u64(seq);
        TxId(h.finalize())
    }
}

/// Content-derived identifier of a microblock (batch of transactions).
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct MicroblockId(pub Digest);

thread_local! {
    static MB_ID_DERIVATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Number of payload-proportional microblock-id derivations performed on
/// this thread so far.
///
/// [`MicroblockId::derive`] is the only hash whose cost scales with batch
/// size, and the dissemination planes are built so it runs exactly once
/// per payload — at [`Microblock::seal`](crate::Microblock::seal) on the
/// creator, and once more at the codec boundary when a body crosses a real
/// socket (the decoder deliberately re-derives rather than trusting the
/// wire).  Regression tests diff this counter around a full
/// seal→gossip→fill→commit flow to prove the gossip/fill path never
/// re-hashes a payload.
pub fn mb_id_derivations() -> u64 {
    MB_ID_DERIVATIONS.with(|c| c.get())
}

impl MicroblockId {
    /// Derives a microblock id from the ids of the transactions it contains
    /// and its creator, as described in Section III-D of the paper.
    pub fn derive(creator: ReplicaId, tx_ids: &[TxId]) -> Self {
        Self::derive_from(creator, tx_ids.iter().copied())
    }

    /// [`derive`](Self::derive) over ids as they are read, so sealing a
    /// batch does not first copy its ids out.
    pub(crate) fn derive_from(creator: ReplicaId, tx_ids: impl IntoIterator<Item = TxId>) -> Self {
        MB_ID_DERIVATIONS.with(|c| c.set(c.get() + 1));
        let mut h = smp_crypto::Hasher::with_domain(0x4d42_4944); // "MBID"
        h.update_u64(creator.0 as u64);
        for tx in tx_ids {
            h.update_digest(&tx.0);
        }
        MicroblockId(h.finalize())
    }

    /// The digest wrapped by this id.
    pub fn digest(&self) -> Digest {
        self.0
    }
}

/// Identifier of a consensus block / proposal (hash of the header).
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct BlockId(pub Digest);

impl BlockId {
    /// The zero sentinel id (parent of genesis).
    pub const GENESIS: BlockId = BlockId(Digest::ZERO);

    /// The digest wrapped by this id.
    pub fn digest(&self) -> Digest {
        self.0
    }
}

/// How many views below the commit tip (blocks) or the current view
/// (pacemaker sets, vote tallies) the consensus engines keep state: a
/// block more than this below the highest committed view is gone and can
/// no longer commit at that replica.
pub const KEPT_VIEWS: u64 = 16;

/// A consensus view (or round / epoch, depending on the protocol).
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct View(pub u64);

impl View {
    /// The next view.
    pub fn next(self) -> View {
        View(self.0 + 1)
    }

    /// Returns the designated leader for this view under round-robin
    /// rotation over `n` replicas.
    pub fn leader(self, n: usize) -> ReplicaId {
        ReplicaId((self.0 % n as u64) as u32)
    }
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_ids_are_unique_per_client_and_seq() {
        let a = TxId::derive(ClientId(1), 0);
        let b = TxId::derive(ClientId(1), 1);
        let c = TxId::derive(ClientId(2), 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, TxId::derive(ClientId(1), 0));
    }

    #[test]
    fn microblock_id_depends_on_contents_and_creator() {
        let txs: Vec<TxId> = (0..5).map(|i| TxId::derive(ClientId(0), i)).collect();
        let a = MicroblockId::derive(ReplicaId(0), &txs);
        let b = MicroblockId::derive(ReplicaId(1), &txs);
        let c = MicroblockId::derive(ReplicaId(0), &txs[..4]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, MicroblockId::derive(ReplicaId(0), &txs));
    }

    #[test]
    fn view_leader_rotates_round_robin() {
        assert_eq!(View(0).leader(4), ReplicaId(0));
        assert_eq!(View(1).leader(4), ReplicaId(1));
        assert_eq!(View(4).leader(4), ReplicaId(0));
        assert_eq!(View(7).leader(4), ReplicaId(3));
    }

    #[test]
    fn view_next_increments() {
        assert_eq!(View(3).next(), View(4));
    }

    #[test]
    fn replica_id_display() {
        assert_eq!(format!("{}", ReplicaId(12)), "R12");
        assert_eq!(format!("{:?}", ReplicaId(12)), "R12");
    }
}
