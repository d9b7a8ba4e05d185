//! Client transactions.

use crate::ids::{ClientId, ReplicaId, TxId, TxIdPrefix};
use crate::time::SimTime;
use crate::wire::{WireSize, TX_OVERHEAD_BYTES};
use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// A client transaction.
///
/// The evaluation in the paper uses opaque key-value `set` operations with
/// a fixed payload size (128 bytes by default); execution semantics are out
/// of scope for the consensus measurements, so the payload here is an
/// opaque byte string whose *length* is what matters to the simulation.
/// Example applications (e.g. the permissioned key-value chain) encode real
/// commands into the payload.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transaction {
    /// Unique transaction id (derived from client id and sequence number).
    pub id: TxId,
    /// Issuing client.
    pub client: ClientId,
    /// Per-client sequence number.
    pub seq: u64,
    /// Opaque command payload.
    #[serde(skip)]
    pub payload: Bytes,
    /// Payload length in bytes (kept separately so synthetic workloads can
    /// model large payloads without allocating them).
    pub payload_len: usize,
    /// Simulated time at which the client created the transaction.
    pub created_at: SimTime,
    /// Simulated time at which a replica first received the transaction;
    /// commit latency is measured from this point (Section VII-A).
    pub received_at: Option<SimTime>,
    /// Replica that first received the transaction from the client.
    pub entry_replica: Option<ReplicaId>,
}

impl Transaction {
    /// Creates a transaction with a real payload.
    pub fn with_payload(client: ClientId, seq: u64, payload: Bytes, created_at: SimTime) -> Self {
        let payload_len = payload.len();
        Transaction {
            id: TxId::derive(client, seq),
            client,
            seq,
            payload,
            payload_len,
            created_at,
            received_at: None,
            entry_replica: None,
        }
    }

    /// Creates a synthetic transaction of `payload_len` bytes without
    /// allocating the payload (used by the workload generators).
    pub fn synthetic(client: ClientId, seq: u64, payload_len: usize, created_at: SimTime) -> Self {
        Transaction::synthetic_from(&TxIdPrefix::new(client), seq, payload_len, created_at)
    }

    /// [`synthetic`](Self::synthetic) for the client of `ids`, whose
    /// prefix a generator builds once rather than once per transaction.
    pub fn synthetic_from(
        ids: &TxIdPrefix,
        seq: u64,
        payload_len: usize,
        created_at: SimTime,
    ) -> Self {
        Transaction {
            id: ids.derive(seq),
            client: ids.client(),
            seq,
            payload: Bytes::new(),
            payload_len,
            created_at,
            received_at: None,
            entry_replica: None,
        }
    }

    /// Marks the transaction as received by `replica` at `now`, if it has
    /// not already been stamped.
    pub fn mark_received(&mut self, replica: ReplicaId, now: SimTime) {
        if self.received_at.is_none() {
            self.received_at = Some(now);
            self.entry_replica = Some(replica);
        }
    }
}

impl WireSize for Transaction {
    fn wire_size(&self) -> usize {
        TX_OVERHEAD_BYTES + self.payload_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_transactions_have_ids_and_sizes() {
        let tx = Transaction::synthetic(ClientId(3), 7, 128, 1000);
        assert_eq!(tx.id, TxId::derive(ClientId(3), 7));
        assert_eq!(tx.wire_size(), TX_OVERHEAD_BYTES + 128);
        assert!(tx.received_at.is_none());
    }

    #[test]
    fn payload_transactions_record_length() {
        let tx = Transaction::with_payload(ClientId(1), 0, Bytes::from_static(b"set k v"), 0);
        assert_eq!(tx.payload_len, 7);
        assert_eq!(tx.wire_size(), TX_OVERHEAD_BYTES + 7);
    }

    #[test]
    fn mark_received_only_stamps_once() {
        let mut tx = Transaction::synthetic(ClientId(1), 0, 128, 0);
        tx.mark_received(ReplicaId(2), 50);
        tx.mark_received(ReplicaId(3), 90);
        assert_eq!(tx.received_at, Some(50));
        assert_eq!(tx.entry_replica, Some(ReplicaId(2)));
    }
}
