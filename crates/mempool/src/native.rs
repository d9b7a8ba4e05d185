//! The native (non-shared) mempool used by the paper's baselines
//! (N-HS, N-PBFT).
//!
//! Each replica keeps the transactions it receives from clients in a local
//! queue; when it becomes the leader it pulls them into a proposal *with
//! full transaction data*, so the leader's outbound link carries the whole
//! batch to every other replica — the leader bottleneck analysed in
//! Appendix A.
//!
//! **An orphan gives back.**  A leader drains its queue into a proposal,
//! so a proposal that never commits would take its transactions with it.
//! The mempool learns of its own proposal through
//! [`Mempool::on_proposal`], as every replica does, and keeps it until it
//! commits.  Once the highest view committed here is more than
//! [`KEPT_VIEWS`] above it, the consensus engines have dropped the block
//! and it can no longer commit here: its transactions go back to the front
//! of the queue, oldest proposal first, in their original order.  A commit
//! over a gap — a parent never committed here, as after a restart — may
//! have committed a kept proposal below it elsewhere, so it forgets every
//! kept proposal below its view without giving any back.  MirBFT numbers
//! each instance's views apart; in the failure-free runs it is built for
//! its instances advance together, and no own proposal falls that far
//! below another instance's commit.

use crate::api::{Effects, FillStatus, Mempool, MempoolStats, TimerTag};
use crate::dissemination::RecentCommits;
use rand::rngs::SmallRng;
use smp_types::{
    BlockId, Payload, Proposal, ReplicaId, SimTime, SystemConfig, Transaction, View, KEPT_VIEWS,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

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
    /// This replica's own inline proposals, by view, until they commit or
    /// give their transactions back (see the module docs).
    own: BTreeMap<View, (BlockId, Arc<Vec<Transaction>>)>,
    /// The highest view committed here.
    top: View,
    recent_commits: RecentCommits,
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
            own: BTreeMap::new(),
            top: View(0),
            recent_commits: RecentCommits::new(),
        }
    }

    /// Total transactions executed through committed proposals.
    pub fn executed_txs(&self) -> u64 {
        self.executed_txs
    }

    /// Forgets `committed` if it is this replica's own; forgets every kept
    /// proposal below it if it lands over a gap; and puts the transactions
    /// of every kept proposal that can no longer commit here back at the
    /// front of the queue.
    fn give_back_orphans(&mut self, committed: &Proposal) {
        if self
            .own
            .get(&committed.view)
            .is_some_and(|(id, _)| *id == committed.id)
        {
            self.own.remove(&committed.view);
        }
        if !self.recent_commits.extend(committed) {
            self.own = self.own.split_off(&committed.view);
        }
        self.top = self.top.max(committed.view);
        let floor = View(self.top.0.saturating_sub(KEPT_VIEWS));
        let kept = self.own.split_off(&floor);
        let orphans = std::mem::replace(&mut self.own, kept);
        for (_, txs) in orphans.into_values().rev() {
            for tx in txs.iter().rev() {
                self.pending.push_front(tx.clone());
            }
        }
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
            Payload::Inline(txs) => {
                if proposal.proposer == self.me {
                    self.own.insert(proposal.view, (proposal.id, txs.clone()));
                }
                (FillStatus::Ready, Effects::none())
            }
            Payload::Empty => (FillStatus::Ready, Effects::none()),
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
        self.give_back_orphans(proposal);
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
    use smp_types::{ClientId, TxId};

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

    /// Offers the transactions `seqs` to `mp` (replica 1), which proposes
    /// them in `view` and learns of its own proposal.
    fn propose(mp: &mut NativeMempool, view: u64, seqs: std::ops::Range<u64>) -> Proposal {
        let mut rng = SmallRng::seed_from_u64(0);
        let txs = seqs
            .map(|i| Transaction::synthetic(ClientId(5), i, 128, 0))
            .collect();
        mp.on_client_txs(0, txs, &mut rng);
        let payload = mp.make_payload(0);
        let p = Proposal::new(
            View(view),
            view,
            BlockId::GENESIS,
            ReplicaId(1),
            payload,
            true,
        );
        assert_eq!(mp.on_proposal(0, &p, &mut rng).0, FillStatus::Ready);
        p
    }

    /// Commits, after `parent`, an empty block of every view in `views`,
    /// each extending the one before; returns the last.
    fn commit_chain(
        mp: &mut NativeMempool,
        parent: BlockId,
        views: std::ops::RangeInclusive<u64>,
    ) -> BlockId {
        views.fold(parent, |parent, v| {
            let p = Proposal::new(View(v), v, parent, ReplicaId(0), Payload::Empty, true);
            mp.on_commit(0, &p);
            p.id
        })
    }

    /// A block this mempool never saw commit.
    fn never_committed() -> BlockId {
        Proposal::new(
            View(3),
            3,
            BlockId::GENESIS,
            ReplicaId(3),
            Payload::Empty,
            true,
        )
        .id
    }

    /// The ids of the queued transactions, front first.
    fn queued(mp: &NativeMempool) -> Vec<TxId> {
        mp.pending.iter().map(|tx| tx.id).collect()
    }

    #[test]
    fn an_own_proposal_that_can_no_longer_commit_gives_its_transactions_back() {
        type Script = fn(&mut NativeMempool);
        // What each script leaves queued (client 5's sequence numbers,
        // front first) and how many own proposals it leaves kept.
        let cases: [(&str, Script, Vec<u64>, usize); 6] = [
            (
                "own proposals below the floor come back to the front, oldest first, in order",
                |mp| {
                    propose(mp, 1, 0..3);
                    propose(mp, 2, 3..5);
                    let mut rng = SmallRng::seed_from_u64(0);
                    let later = vec![Transaction::synthetic(ClientId(5), 9, 128, 0)];
                    mp.on_client_txs(0, later, &mut rng);
                    // View 19 leaves views 1 and 2 below the floor at once.
                    let tip = commit_chain(mp, BlockId::GENESIS, 3..=1 + KEPT_VIEWS);
                    assert_eq!(mp.own.len(), 2);
                    commit_chain(mp, tip, 3 + KEPT_VIEWS..=3 + KEPT_VIEWS);
                },
                vec![0, 1, 2, 3, 4, 9],
                0,
            ),
            (
                "a proposal as deep as the floor is kept",
                |mp| {
                    propose(mp, 1, 0..3);
                    propose(mp, 2, 3..5);
                    commit_chain(mp, BlockId::GENESIS, 3..=2 + KEPT_VIEWS);
                },
                vec![0, 1, 2],
                1,
            ),
            (
                "a committed one does not come back",
                |mp| {
                    let p = propose(mp, 1, 0..3);
                    mp.on_commit(0, &p);
                    commit_chain(mp, p.id, 2..=40);
                },
                vec![],
                0,
            ),
            (
                "a commit over a gap forgets what lies below it without giving it back",
                |mp| {
                    propose(mp, 1, 0..3);
                    commit_chain(mp, never_committed(), 5..=40);
                },
                vec![],
                0,
            ),
            (
                "a commit over a gap keeps what lies above it",
                |mp| {
                    propose(mp, 10, 0..3);
                    let tip = commit_chain(mp, never_committed(), 5..=5);
                    commit_chain(mp, tip, 6..=40);
                },
                vec![0, 1, 2],
                0,
            ),
            (
                "another replica's proposal is ignored",
                |mp| {
                    let mut rng = SmallRng::seed_from_u64(0);
                    let txs = vec![Transaction::synthetic(ClientId(6), 7, 128, 0)];
                    let theirs = Proposal::new(
                        View(2),
                        2,
                        BlockId::GENESIS,
                        ReplicaId(2),
                        Payload::inline(txs),
                        true,
                    );
                    mp.on_proposal(0, &theirs, &mut rng);
                    commit_chain(mp, BlockId::GENESIS, 3..=40);
                },
                vec![],
                0,
            ),
        ];
        for (name, script, expected, kept) in cases {
            let (mut mp, _) = setup();
            script(&mut mp);
            let expected: Vec<TxId> = expected
                .into_iter()
                .map(|seq| TxId::derive(ClientId(5), seq))
                .collect();
            assert_eq!(queued(&mp), expected, "{name}");
            assert_eq!(mp.own.len(), kept, "{name}: kept");
        }
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
