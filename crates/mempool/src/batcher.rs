//! Transaction batching into microblocks.
//!
//! Transactions are collected from clients and batched into microblocks
//! for dissemination (Section III-D): a batch is sealed as soon as the
//! configured byte size is reached, or after [`BATCH_TIMEOUT`] so lightly
//! loaded replicas still make progress (Section VII-B).

use smp_types::{
    MempoolConfig, Microblock, ReplicaId, SimTime, Transaction, WireSize, MICROS_PER_MS,
};

/// A partial batch is sealed this long after its first transaction
/// arrived, even if the target size has not been reached (Section VII-B).
pub const BATCH_TIMEOUT: SimTime = 200 * MICROS_PER_MS;

/// Timer tag used by the batcher for its seal timeout.
pub const BATCH_TIMEOUT_TAG: u64 = 0x42_41_54_43; // "BATC"

/// Accumulates transactions and seals them into microblocks.
#[derive(Clone, Debug)]
pub struct TxBatcher {
    me: ReplicaId,
    config: MempoolConfig,
    buffer: Vec<Transaction>,
    buffer_bytes: usize,
    timer_armed: bool,
    sealed_count: u64,
}

/// Result of feeding transactions into the batcher.
#[derive(Clone, Debug, Default)]
pub struct BatchOutcome {
    /// Microblocks sealed by this call.
    pub sealed: Vec<Microblock>,
    /// Whether the caller should arm the batch timeout timer (a partial
    /// batch is buffered and no timer is currently armed).
    pub arm_timer: bool,
}

impl TxBatcher {
    /// Creates a batcher for replica `me`.
    pub fn new(me: ReplicaId, config: MempoolConfig) -> Self {
        TxBatcher {
            me,
            config,
            buffer: Vec::new(),
            buffer_bytes: 0,
            timer_armed: false,
            sealed_count: 0,
        }
    }

    /// Ingests client transactions, stamping their reception time, and
    /// seals as many full microblocks as the configured batch size allows.
    pub fn add(&mut self, now: SimTime, txs: Vec<Transaction>) -> BatchOutcome {
        let mut outcome = BatchOutcome::default();
        for mut tx in txs {
            tx.mark_received(self.me, now);
            self.buffer_bytes += tx.wire_size();
            self.buffer.push(tx);
            if self.buffer_bytes >= self.config.batch_size_bytes {
                outcome.sealed.push(self.seal(now));
            }
        }
        if !self.buffer.is_empty() && !self.timer_armed {
            self.timer_armed = true;
            outcome.arm_timer = true;
        }
        outcome
    }

    /// Handles the batch timeout: seals whatever is buffered.
    pub fn on_timeout(&mut self, now: SimTime) -> Option<Microblock> {
        self.timer_armed = false;
        if self.buffer.is_empty() {
            return None;
        }
        Some(self.seal(now))
    }

    /// Number of buffered (unsealed) transactions.
    pub fn pending_txs(&self) -> usize {
        self.buffer.len()
    }

    /// Total microblocks sealed so far.
    pub fn sealed_count(&self) -> u64 {
        self.sealed_count
    }

    fn seal(&mut self, now: SimTime) -> Microblock {
        let txs = std::mem::take(&mut self.buffer);
        self.buffer_bytes = 0;
        self.sealed_count += 1;
        Microblock::seal(self.me, txs, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smp_types::ClientId;

    fn cfg(batch_bytes: usize) -> MempoolConfig {
        MempoolConfig {
            batch_size_bytes: batch_bytes,
            ..MempoolConfig::default()
        }
    }

    fn txs(n: usize) -> Vec<Transaction> {
        (0..n)
            .map(|i| Transaction::synthetic(ClientId(9), i as u64, 128, 0))
            .collect()
    }

    #[test]
    fn seals_when_batch_size_reached() {
        // 128-byte payload + 40-byte overhead = 168 bytes per tx; a 1680-byte
        // batch seals after 10 transactions.
        let mut b = TxBatcher::new(ReplicaId(0), cfg(1680));
        let out = b.add(100, txs(25));
        assert_eq!(out.sealed.len(), 2);
        assert_eq!(out.sealed[0].len(), 10);
        assert_eq!(b.pending_txs(), 5);
        assert!(out.arm_timer);
        assert_eq!(b.sealed_count(), 2);
    }

    #[test]
    fn timeout_seals_partial_batch() {
        let mut b = TxBatcher::new(ReplicaId(0), cfg(1_000_000));
        let out = b.add(100, txs(3));
        assert!(out.sealed.is_empty());
        assert!(out.arm_timer);
        let mb = b.on_timeout(300).expect("partial batch sealed");
        assert_eq!(mb.len(), 3);
        assert_eq!(b.pending_txs(), 0);
        assert!(b.on_timeout(400).is_none());
    }

    #[test]
    fn reception_time_is_stamped() {
        let mut b = TxBatcher::new(ReplicaId(7), cfg(1_000_000));
        b.add(12_345, txs(1));
        let mb = b.on_timeout(20_000).unwrap();
        assert_eq!(mb.txs[0].received_at, Some(12_345));
        assert_eq!(mb.txs[0].entry_replica, Some(ReplicaId(7)));
    }

    #[test]
    fn timer_is_armed_once_per_partial_batch() {
        let mut b = TxBatcher::new(ReplicaId(0), cfg(1_000_000));
        assert!(b.add(0, txs(1)).arm_timer);
        assert!(!b.add(1, txs(1)).arm_timer, "timer already armed");
        let _ = b.on_timeout(10).unwrap();
        assert!(b.add(20, txs(1)).arm_timer, "new partial batch arms again");
    }

    #[test]
    fn empty_add_has_no_effect() {
        let mut b = TxBatcher::new(ReplicaId(0), cfg(1000));
        let out = b.add(0, vec![]);
        assert!(out.sealed.is_empty());
        assert!(!out.arm_timer);
        assert_eq!(b.pending_txs(), 0);
    }
}
