//! The native (non-shared) mempool used by the paper's baselines
//! (N-HS, N-PBFT).
//!
//! Each replica keeps the transactions it receives from clients in a local
//! queue; when it becomes the leader it pulls them into a proposal *with
//! full transaction data*, so the leader's outbound link carries the whole
//! batch to every other replica — the leader bottleneck analysed in
//! Appendix A.

use crate::api::{Effects, FillStatus, Mempool, MempoolStats, TimerTag};
use rand::rngs::SmallRng;
use smp_types::{Payload, Proposal, ReplicaId, SimTime, SystemConfig, Transaction};
use std::collections::VecDeque;

/// Most transactions a leader carries inline in one native proposal.
pub const MAX_INLINE_TXS_PER_PROPOSAL: usize = 8_000;

/// Marker message type: the native mempool never talks to its peers.
#[derive(Clone, Debug, PartialEq)]
pub enum NativeMsg {}

/// The native mempool.
#[derive(Clone, Debug)]
pub struct NativeMempool {
    me: ReplicaId,
    pending: VecDeque<Transaction>,
    executed_txs: u64,
}

impl NativeMempool {
    /// Creates the native mempool for replica `me`.  It reads nothing from
    /// the system configuration; the parameter keeps the constructor
    /// signature every mempool shares.
    pub fn new(_config: &SystemConfig, me: ReplicaId) -> Self {
        NativeMempool {
            me,
            pending: VecDeque::new(),
            executed_txs: 0,
        }
    }

    /// Total transactions executed through committed proposals.
    pub fn executed_txs(&self) -> u64 {
        self.executed_txs
    }
}

impl Mempool for NativeMempool {
    type Msg = NativeMsg;

    fn on_client_txs(
        &mut self,
        now: SimTime,
        txs: Vec<Transaction>,
        _rng: &mut SmallRng,
    ) -> Effects<NativeMsg> {
        for mut tx in txs {
            tx.mark_received(self.me, now);
            self.pending.push_back(tx);
        }
        Effects::none()
    }

    fn on_message(
        &mut self,
        _now: SimTime,
        _from: ReplicaId,
        msg: NativeMsg,
        _rng: &mut SmallRng,
    ) -> Effects<NativeMsg> {
        match msg {}
    }

    fn on_timer(
        &mut self,
        _now: SimTime,
        _tag: TimerTag,
        _rng: &mut SmallRng,
    ) -> Effects<NativeMsg> {
        Effects::none()
    }

    fn make_payload(&mut self, _now: SimTime) -> Payload {
        if self.pending.is_empty() {
            return Payload::Empty;
        }
        let take = MAX_INLINE_TXS_PER_PROPOSAL.min(self.pending.len());
        let txs: Vec<Transaction> = self.pending.drain(..take).collect();
        Payload::inline(txs)
    }

    fn on_proposal(
        &mut self,
        _now: SimTime,
        proposal: &Proposal,
        _rng: &mut SmallRng,
    ) -> (FillStatus, Effects<NativeMsg>) {
        match &proposal.payload {
            Payload::Inline(_) | Payload::Empty => (FillStatus::Ready, Effects::none()),
            Payload::Refs(_) => (
                FillStatus::Invalid("native mempool cannot resolve referenced payloads"),
                Effects::none(),
            ),
            // Per-shard groups are split off by the sharded wrapper before
            // a backend sees them; reaching here is a layering error.
            Payload::Sharded(_) => (
                FillStatus::Invalid("sharded payload reached an unsharded mempool"),
                Effects::none(),
            ),
        }
    }

    fn on_commit(&mut self, _now: SimTime, proposal: &Proposal) -> Effects<NativeMsg> {
        let mut effects = Effects::none();
        match &proposal.payload {
            Payload::Inline(txs) => {
                self.executed_txs += txs.len() as u64;
                effects.event(crate::api::MempoolEvent::Executed {
                    proposal: proposal.id,
                    tx_count: txs.len() as u32,
                    receive_times: txs.iter().filter_map(|t| t.received_at).collect(),
                });
            }
            Payload::Empty => {
                effects.event(crate::api::MempoolEvent::Executed {
                    proposal: proposal.id,
                    tx_count: 0,
                    receive_times: Vec::new(),
                });
            }
            Payload::Refs(_) | Payload::Sharded(_) => {}
        }
        effects
    }

    fn stats(&self) -> MempoolStats {
        MempoolStats {
            unbatched_txs: self.pending.len(),
            ..MempoolStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::MempoolEvent;
    use rand::SeedableRng;
    use smp_types::{BlockId, ClientId, View};

    fn setup() -> (NativeMempool, SmallRng) {
        let cfg = SystemConfig::new(4);
        (
            NativeMempool::new(&cfg, ReplicaId(1)),
            SmallRng::seed_from_u64(0),
        )
    }

    fn txs(n: usize) -> Vec<Transaction> {
        (0..n)
            .map(|i| Transaction::synthetic(ClientId(5), i as u64, 128, 0))
            .collect()
    }

    #[test]
    fn client_txs_are_buffered_and_proposed_inline() {
        let (mut mp, mut rng) = setup();
        assert!(mp.on_client_txs(100, txs(10), &mut rng).is_empty());
        let payload = mp.make_payload(200);
        assert_eq!(payload.inline_tx_count(), 10);
        assert_eq!(mp.stats().unbatched_txs, 0);
        // Second call has nothing left.
        assert!(matches!(mp.make_payload(300), Payload::Empty));
    }

    #[test]
    fn proposal_size_is_capped() {
        let (mut mp, mut rng) = setup();
        mp.on_client_txs(0, txs(MAX_INLINE_TXS_PER_PROPOSAL + 10), &mut rng);
        assert_eq!(
            mp.make_payload(1).inline_tx_count(),
            MAX_INLINE_TXS_PER_PROPOSAL
        );
        assert_eq!(mp.stats().unbatched_txs, 10);
    }

    #[test]
    fn inline_proposals_are_always_ready() {
        let (mut mp, mut rng) = setup();
        mp.on_client_txs(0, txs(3), &mut rng);
        let payload = mp.make_payload(1);
        let p = Proposal::new(View(1), 1, BlockId::GENESIS, ReplicaId(0), payload, true);
        let (status, fx) = mp.on_proposal(2, &p, &mut rng);
        assert_eq!(status, FillStatus::Ready);
        assert!(fx.is_empty());
    }

    #[test]
    fn commit_reports_executed_txs_with_latencies() {
        let (mut mp, mut rng) = setup();
        mp.on_client_txs(50, txs(5), &mut rng);
        let p = Proposal::new(
            View(1),
            1,
            BlockId::GENESIS,
            ReplicaId(1),
            mp.make_payload(60),
            true,
        );
        let fx = mp.on_commit(100, &p);
        assert_eq!(fx.events.len(), 1);
        match &fx.events[0] {
            MempoolEvent::Executed {
                tx_count,
                receive_times,
                ..
            } => {
                assert_eq!(*tx_count, 5);
                assert_eq!(receive_times, &vec![50; 5]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(mp.executed_txs(), 5);
    }

    #[test]
    fn refs_payload_is_rejected() {
        let (mut mp, mut rng) = setup();
        let p = Proposal::new(
            View(1),
            1,
            BlockId::GENESIS,
            ReplicaId(0),
            Payload::Refs(vec![]),
            true,
        );
        let (status, _) = mp.on_proposal(0, &p, &mut rng);
        assert!(matches!(status, FillStatus::Invalid(_)));
    }
}
