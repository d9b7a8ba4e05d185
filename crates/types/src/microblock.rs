//! Microblocks: batches of transactions disseminated by the shared mempool.

use crate::ids::{MicroblockId, ReplicaId};
use crate::time::SimTime;
use crate::transaction::Transaction;
use crate::wire::{WireSize, MICROBLOCK_HEADER_BYTES};
use std::sync::Arc;

/// A batch of transactions created by one replica (Section III-D).
///
/// Because each client sends every transaction to exactly one replica, the
/// microblocks produced by different replicas are disjoint; the microblock
/// id is derived from the contained transaction ids and the creator.
#[derive(Clone, Debug, PartialEq)]
pub struct Microblock {
    /// Content-derived identifier.
    pub id: MicroblockId,
    /// Replica that batched the transactions.
    pub creator: ReplicaId,
    /// The batched transactions (shared so that cloning a microblock for
    /// broadcast to hundreds of replicas does not copy transaction data).
    pub txs: Arc<Vec<Transaction>>,
    /// Simulated time at which the batch was sealed.
    pub created_at: SimTime,
    /// Replica that actually disseminated the batch (differs from
    /// `creator` when a DLB proxy forwarded it on the creator's behalf).
    pub disseminator: ReplicaId,
    /// The stamped `received_at` of `txs`, in order (see
    /// [`receive_times`](Self::receive_times)).
    receive_times: Arc<[SimTime]>,
}

impl Microblock {
    /// Seals a batch of transactions into a microblock.
    pub fn seal(creator: ReplicaId, txs: Vec<Transaction>, created_at: SimTime) -> Self {
        let mut receive_times = Vec::with_capacity(txs.len());
        receive_times.extend(txs.iter().filter_map(|t| t.received_at));
        Microblock {
            id: MicroblockId::derive_from(creator, txs.iter().map(|t| t.id)),
            creator,
            txs: Arc::new(txs),
            created_at,
            disseminator: creator,
            receive_times: receive_times.into(),
        }
    }

    /// The stamped `received_at` of the batch's transactions, in order:
    /// what every replica that executes the batch reports as its commit
    /// latencies, read once at seal instead of once per transaction per
    /// replica.  Derived from `txs`, so it is not encoded; decoding reseals.
    pub fn receive_times(&self) -> &[SimTime] {
        &self.receive_times
    }

    /// Number of transactions in the batch.
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }

    /// Total payload bytes carried by the batch (excluding framing).
    pub fn payload_bytes(&self) -> usize {
        self.txs.iter().map(|t| t.payload_len).sum()
    }
}

impl WireSize for Microblock {
    fn wire_size(&self) -> usize {
        MICROBLOCK_HEADER_BYTES + self.txs.iter().map(WireSize::wire_size).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;
    use crate::wire::TX_OVERHEAD_BYTES;

    fn mk_txs(n: usize) -> Vec<Transaction> {
        (0..n)
            .map(|i| Transaction::synthetic(ClientId(0), i as u64, 128, 0))
            .collect()
    }

    #[test]
    fn seal_derives_id_from_contents() {
        let a = Microblock::seal(ReplicaId(0), mk_txs(3), 10);
        let b = Microblock::seal(ReplicaId(0), mk_txs(3), 20);
        let c = Microblock::seal(ReplicaId(1), mk_txs(3), 10);
        // Same creator + same tx ids => same microblock id (time is not part
        // of the id), different creator => different id.
        assert_eq!(a.id, b.id);
        assert_ne!(a.id, c.id);
    }

    #[test]
    fn wire_size_accounts_for_all_txs() {
        let mb = Microblock::seal(ReplicaId(0), mk_txs(10), 0);
        assert_eq!(
            mb.wire_size(),
            MICROBLOCK_HEADER_BYTES + 10 * (TX_OVERHEAD_BYTES + 128)
        );
        assert_eq!(mb.payload_bytes(), 1280);
        assert_eq!(mb.len(), 10);
        assert!(!mb.is_empty());
    }

    #[test]
    fn empty_microblock_is_empty() {
        let mb = Microblock::seal(ReplicaId(0), vec![], 0);
        assert!(mb.is_empty());
        assert_eq!(mb.wire_size(), MICROBLOCK_HEADER_BYTES);
    }

    #[test]
    fn disseminator_defaults_to_creator() {
        let mb = Microblock::seal(ReplicaId(5), mk_txs(1), 0);
        assert_eq!(mb.disseminator, ReplicaId(5));
    }
}
