//! Open-loop workload specification and transaction factory.
//!
//! Replicas generate their own client arrivals inside the simulation (the
//! paper excludes the client-to-replica hop from all measurements, and
//! commit latency is measured from first reception at a replica), so the
//! workload layer only has to answer two questions:
//!
//! * *what rate of transactions should replica `i` receive?* —
//!   [`WorkloadSpec::rate_for`], and
//! * *what does the next transaction for replica `i` look like?* —
//!   [`TxFactory::next_tx`].

use crate::distribution::LoadDistribution;
use serde::{Deserialize, Serialize};
use smp_types::{ClientId, ReplicaId, SimTime, Transaction, TxIdPrefix};

/// Description of the offered load for one experiment.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Aggregate offered load across the whole system, transactions per
    /// second.
    pub total_rate_tps: f64,
    /// Transaction payload size in bytes (128 B in the paper).
    pub payload_bytes: usize,
    /// How the load is spread over replicas.
    pub distribution: LoadDistribution,
}

impl WorkloadSpec {
    /// An evenly spread workload at `total_rate_tps`.
    pub fn even(total_rate_tps: f64, payload_bytes: usize) -> Self {
        WorkloadSpec {
            total_rate_tps,
            payload_bytes,
            distribution: LoadDistribution::Even,
        }
    }

    /// A skewed workload.
    pub fn skewed(
        total_rate_tps: f64,
        payload_bytes: usize,
        distribution: LoadDistribution,
    ) -> Self {
        WorkloadSpec {
            total_rate_tps,
            payload_bytes,
            distribution,
        }
    }

    /// Offered rate (tx/s) for replica `replica` in a system of `n`.
    pub fn rate_for(&self, replica: ReplicaId, n: usize) -> f64 {
        let shares = self.distribution.shares(n);
        self.total_rate_tps * shares[replica.index()]
    }

    /// Per-replica rates for the whole system.
    pub fn rates(&self, n: usize) -> Vec<f64> {
        self.distribution
            .shares(n)
            .into_iter()
            .map(|s| s * self.total_rate_tps)
            .collect()
    }

    /// Scales the total offered rate by `factor` (used by the saturation
    /// search in the experiment harness).
    pub fn scaled(&self, factor: f64) -> Self {
        WorkloadSpec {
            total_rate_tps: self.total_rate_tps * factor,
            payload_bytes: self.payload_bytes,
            distribution: self.distribution.clone(),
        }
    }
}

/// Deterministic per-replica transaction factory.
///
/// Each replica owns a disjoint [`ClientId`] space (derived from the
/// replica index), so transaction ids never collide across replicas —
/// mirroring the paper's assumption that each client submits every
/// transaction to exactly one replica.
#[derive(Clone, Debug)]
pub struct TxFactory {
    /// The replica's client, its id prefix hashed once.
    ids: TxIdPrefix,
    next_seq: u64,
    payload_bytes: usize,
    /// Fractional transaction accumulator for rate-based generation.
    carry: f64,
}

impl TxFactory {
    /// Creates the factory for `replica`.
    pub fn new(replica: ReplicaId, payload_bytes: usize) -> Self {
        TxFactory {
            ids: TxIdPrefix::new(ClientId(replica.0)),
            next_seq: 0,
            payload_bytes,
            carry: 0.0,
        }
    }

    /// Produces the next transaction, created at time `now`.
    pub fn next_tx(&mut self, now: SimTime) -> Transaction {
        let tx = Transaction::synthetic_from(&self.ids, self.next_seq, self.payload_bytes, now);
        self.next_seq += 1;
        tx
    }

    /// Produces the batch of transactions that arrive during a tick of
    /// length `tick_us` at offered rate `rate_tps`, carrying fractional
    /// remainders across ticks so long-run rates are exact.
    pub fn tick(&mut self, now: SimTime, tick_us: SimTime, rate_tps: f64) -> Vec<Transaction> {
        let expected = rate_tps * tick_us as f64 / 1_000_000.0 + self.carry;
        let count = expected.floor() as usize;
        self.carry = expected - count as f64;
        (0..count).map(|_| self.next_tx(now)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smp_types::TxId;

    #[test]
    fn rate_split_follows_distribution() {
        let spec = WorkloadSpec::even(10_000.0, 128);
        assert!((spec.rate_for(ReplicaId(3), 10) - 1_000.0).abs() < 1e-9);
        let skew = WorkloadSpec::skewed(10_000.0, 128, LoadDistribution::zipf1());
        assert!(skew.rate_for(ReplicaId(0), 10) > skew.rate_for(ReplicaId(9), 10));
        let total: f64 = skew.rates(10).iter().sum();
        assert!((total - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn scaled_changes_only_rate() {
        let spec = WorkloadSpec::even(10_000.0, 128).scaled(2.5);
        assert!((spec.total_rate_tps - 25_000.0).abs() < 1e-9);
        assert_eq!(spec.payload_bytes, 128);
    }

    #[test]
    fn factory_produces_unique_ids_per_replica() {
        let mut a = TxFactory::new(ReplicaId(0), 128);
        let mut b = TxFactory::new(ReplicaId(1), 128);
        let ta1 = a.next_tx(0);
        let ta2 = a.next_tx(1);
        let tb1 = b.next_tx(0);
        assert_ne!(ta1.id, ta2.id);
        assert_ne!(ta1.id, tb1.id);
    }

    #[test]
    fn tick_generation_matches_rate_in_the_long_run() {
        let mut f = TxFactory::new(ReplicaId(0), 128);
        let mut total = 0usize;
        // 1000 ticks of 1 ms at 12,345 tx/s ~= 12,345 transactions.
        for i in 0..1000u64 {
            total += f.tick(i * 1_000, 1_000, 12_345.0).len();
        }
        assert!((total as i64 - 12_345).abs() <= 1, "generated {total}");
    }

    #[test]
    fn tick_ids_are_the_reference_derivation_in_order() {
        let mut f = TxFactory::new(ReplicaId(7), 128);
        let mut txs = Vec::new();
        for i in 0..20u64 {
            txs.extend(f.tick(i * 1_000, 1_000, 3_333.0));
        }
        assert!(txs.len() > 50);
        for (seq, tx) in txs.iter().enumerate() {
            assert_eq!(tx.id, TxId::derive(ClientId(7), seq as u64));
            assert_eq!(
                tx,
                &Transaction::synthetic(ClientId(7), seq as u64, 128, tx.created_at)
            );
        }
    }

    #[test]
    fn tick_with_tiny_rate_eventually_emits() {
        let mut f = TxFactory::new(ReplicaId(0), 128);
        let mut total = 0;
        // 0.5 tx/s over 10 seconds of 100 ms ticks => ~5 transactions.
        for i in 0..100u64 {
            total += f.tick(i * 100_000, 100_000, 0.5).len();
        }
        assert_eq!(total, 5);
    }
}
