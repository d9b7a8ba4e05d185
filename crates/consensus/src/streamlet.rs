//! Streamlet: the textbook streamlined blockchain protocol (Chan & Shi,
//! 2020), one of the three consensus engines the paper integrates with
//! Stratus (Section VI).
//!
//! The epoch leader proposes a block extending the longest notarized
//! chain; every replica broadcasts its vote; a block with `2f + 1` votes is
//! notarized; three adjacent notarized blocks with consecutive epoch
//! numbers finalize the prefix up to the middle one.
//!
//! An epoch ends at the first of two events: its block is notarized, or
//! [`EPOCH_DURATION`] passes without that — a silent leader.  A proposal
//! from a later epoch's leader also moves a replica that is behind to that
//! epoch.  The consistency proof does not rest on timing, only on each
//! replica voting at most once per epoch, and only in the epoch it is in:
//! a replica votes for the first proposal of its current epoch that
//! extends the longest notarized chain it knows, and for nothing in an
//! epoch at or below the highest it voted in.  The block table and the
//! leader gate are the shared `core.rs`; the epoch timer, notarization and
//! the vote rule are here.

use crate::api::{
    CEffects, CEvent, ConsensusEngine, ConsensusMsg, ProposalVerdict, StateSize, VoteAggregator,
};
use crate::core::{Chain, Pacemaker, VIEW_TIMEOUT};
use smp_types::{BlockId, Payload, Proposal, ReplicaId, SimTime, SystemConfig, View};
use std::collections::BTreeSet;

/// Timer-tag base for per-epoch timers (`tag = base + epoch`).
pub const EPOCH_TAG: u64 = 0x5354_524c_0000_0001;

/// How long an epoch waits for its block to be notarized before it gives
/// up on the leader: half the view timeout, which comfortably fits one
/// proposal round trip.
pub const EPOCH_DURATION: SimTime = VIEW_TIMEOUT / 2;

/// Streamlet engine.
#[derive(Clone, Debug)]
pub struct StreamletEngine {
    /// Leadership by epoch (`pm.view` is the current epoch) and the
    /// once-per-epoch payload gate; the epoch timer is armed here.
    pm: Pacemaker,
    chain: Chain,
    votes: VoteAggregator,
    /// The highest epoch this replica voted in.
    voted_in: View,
    /// Notarized blocks by epoch, for the epochs at or above the
    /// pacemaker's floor.
    notarized: BTreeSet<(View, BlockId)>,
    longest_notarized_tip: BlockId,
}

impl StreamletEngine {
    /// Creates the engine for replica `me`.
    pub fn new(config: &SystemConfig, me: ReplicaId) -> Self {
        StreamletEngine {
            pm: Pacemaker::new(config, me, EPOCH_TAG),
            chain: Chain::default(),
            votes: VoteAggregator::new(config.consensus_quorum()),
            voted_in: View(0),
            notarized: BTreeSet::new(),
            longest_notarized_tip: BlockId::GENESIS,
        }
    }

    /// Number of epochs that timed out here, plus proposals the mempool
    /// rejected.
    pub fn view_changes(&self) -> u64 {
        self.pm.view_changes
    }

    fn longest_notarized_height(&self) -> u64 {
        self.chain.height_of(&self.longest_notarized_tip)
    }

    /// Arms the current epoch's timer and, if this replica leads it, asks
    /// for a payload.
    fn begin_epoch(&mut self, fx: &mut CEffects) {
        let epoch = self.pm.view;
        fx.timer(EPOCH_DURATION, EPOCH_TAG + epoch.0);
        self.pm.request_payload_if_leader(epoch, fx);
    }

    /// Moves forward to `epoch`, if it is ahead, and begins it.
    fn enter(&mut self, epoch: View, fx: &mut CEffects) {
        if epoch > self.pm.view {
            self.pm.set_view(epoch);
            self.begin_epoch(fx);
        }
    }

    /// Counts a vote; at the quorum `block` is notarized, which may extend
    /// the longest notarized chain and finalize a prefix, and ends its
    /// epoch.
    fn record_vote(&mut self, epoch: View, block: BlockId, voter: ReplicaId, fx: &mut CEffects) {
        let floor = self.pm.floor();
        if !self.votes.record(floor, epoch, block, voter) {
            return;
        }
        while self.notarized.first().is_some_and(|(e, _)| *e < floor) {
            self.notarized.pop_first();
        }
        if !self.notarized.insert((epoch, block)) {
            return;
        }
        if let Some(height) = self.chain.get(&block).map(|p| p.height) {
            if height > self.longest_notarized_height() {
                self.longest_notarized_tip = block;
            }
            // Finalization: three adjacent notarized blocks with
            // consecutive epochs finalize everything up to the middle one.
            if let Some([_, parent, grandparent]) = self.chain.three_chain(&block) {
                // A three-chain's epochs are consecutive.
                let notarized = |back: u64, id| {
                    let epoch = View(epoch.0.saturating_sub(back));
                    self.notarized.contains(&(epoch, id))
                };
                if notarized(1, parent) && notarized(2, grandparent) {
                    self.chain.commit_through(parent, fx);
                }
            }
        }
        self.enter(epoch.next(), fx);
    }
}

impl ConsensusEngine for StreamletEngine {
    fn on_start(&mut self, _now: SimTime) -> CEffects {
        let mut fx = CEffects::none();
        self.begin_epoch(&mut fx);
        self.chain.let_wait(&mut fx);
        fx
    }

    fn on_message(&mut self, _now: SimTime, _from: ReplicaId, msg: ConsensusMsg) -> CEffects {
        let mut fx = CEffects::none();
        match msg {
            ConsensusMsg::Propose(p) => {
                if !self.pm.admit(&mut self.chain, &p) {
                    return fx;
                }
                // If we are behind, adopt the later epoch.
                self.enter(p.view, &mut fx);
                fx.event(CEvent::VerifyProposal { proposal: p });
            }
            ConsensusMsg::Prepare {
                view, block, voter, ..
            } => self.record_vote(view, block, voter, &mut fx),
            _ => {}
        }
        self.chain.let_wait(&mut fx);
        fx
    }

    fn on_timer(&mut self, _now: SimTime, tag: u64) -> CEffects {
        let mut fx = CEffects::none();
        // Only the current epoch's timer counts: an earlier one is stale.
        let epoch = self.pm.view;
        if tag != EPOCH_TAG + epoch.0 {
            return fx;
        }
        self.pm.abandon(epoch, &mut fx);
        self.enter(epoch.next(), &mut fx);
        self.chain.let_wait(&mut fx);
        fx
    }

    fn on_payload(&mut self, now: SimTime, epoch: View, payload: Payload) -> CEffects {
        let mut fx = CEffects::none();
        if !self.pm.claim_proposal(epoch) {
            return fx;
        }
        let parent = self.longest_notarized_tip;
        let height = self.longest_notarized_height() + 1;
        let proposal = Proposal::new(epoch, height, parent, self.pm.me, payload, false);
        let id = proposal.id;
        self.chain.insert(&proposal);
        fx.broadcast(ConsensusMsg::Propose(proposal));
        // The leader votes for its own proposal.
        fx.merge(self.on_proposal_verdict(now, id, ProposalVerdict::Accept));
        fx
    }

    fn on_proposal_verdict(
        &mut self,
        _now: SimTime,
        block: BlockId,
        verdict: ProposalVerdict,
    ) -> CEffects {
        let mut fx = CEffects::none();
        let Some(p) = self.chain.get(&block) else {
            return fx;
        };
        let (view, instance, voter) = (p.view, p.proposer, self.pm.me);
        // One vote per epoch, and only in the epoch this replica is in.
        let votable = view == self.pm.view && view > self.voted_in;
        let extends =
            p.parent == self.longest_notarized_tip || p.height > self.longest_notarized_height();
        if verdict == ProposalVerdict::Reject {
            self.pm.abandon(view, &mut fx);
        } else if votable && extends {
            // Only proposals extending the longest notarized chain get a vote.
            self.voted_in = view;
            fx.broadcast(ConsensusMsg::Prepare {
                view,
                block,
                voter,
                instance,
            });
            self.record_vote(view, block, voter, &mut fx);
        }
        self.chain.let_wait(&mut fx);
        fx
    }

    fn id(&self) -> ReplicaId {
        self.pm.me
    }

    fn current_view(&self) -> View {
        self.pm.view
    }

    fn committed_count(&self) -> u64 {
        self.chain.committed_count()
    }

    fn state_size(&self) -> StateSize {
        StateSize {
            blocks: self.chain.len(),
            tallies: self.votes.len() + self.notarized.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{drive_until_quiet, EngineNet};

    fn net(n: usize) -> EngineNet<StreamletEngine> {
        let config = SystemConfig::new(n);
        EngineNet::new(
            (0..n as u32)
                .map(|i| StreamletEngine::new(&config, ReplicaId(i)))
                .collect(),
        )
    }

    #[test]
    fn consecutive_epochs_finalize_blocks() {
        let mut net = net(4);
        net.start();
        // Each notarization ends its epoch, so no timer needs to fire;
        // with a payload always on offer the delivery budget ends the run.
        drive_until_quiet(&mut net, 1);
        assert!(net.engines().iter().all(|e| e.view_changes() == 0));
        let committed = net
            .engines()
            .iter()
            .map(|e| e.committed_count())
            .max()
            .unwrap();
        assert!(
            committed >= 1,
            "three consecutive notarized epochs should finalize, got {committed}"
        );
        // Prefix agreement.
        let chains = net.committed_chains();
        let shortest = chains.iter().map(|c| c.len()).min().unwrap();
        for i in 0..shortest {
            assert!(chains.iter().all(|c| c[i] == chains[0][i]));
        }
    }

    #[test]
    fn epoch_clock_advances_even_without_progress() {
        let config = SystemConfig::new(4);
        let mut e = StreamletEngine::new(&config, ReplicaId(3));
        let _ = e.on_start(0);
        assert_eq!(e.current_view(), View(1));
        let _ = e.on_timer(1, EPOCH_TAG + 1);
        let _ = e.on_timer(2, EPOCH_TAG + 2);
        assert_eq!(e.current_view(), View(3));
        assert_eq!(e.view_changes(), 2);
    }

    /// Replica 0 of 4, started: epoch 1, led by replica 1.
    fn follower() -> StreamletEngine {
        let mut e = StreamletEngine::new(&SystemConfig::new(4), ReplicaId(0));
        let _ = e.on_start(0);
        e
    }

    /// A proposal of `epoch` by its leader on genesis; `salt` tells
    /// equivocating siblings apart.
    fn proposal(epoch: u64, salt: u64) -> Proposal {
        let leader = View(epoch).leader(4);
        let parent = BlockId(smp_crypto::Digest::of_u64(salt));
        let parent = if salt == 0 { BlockId::GENESIS } else { parent };
        Proposal::new(View(epoch), 1, parent, leader, Payload::Empty, false)
    }

    /// Delivers `p` and accepts it; the blocks this replica voted for.
    fn deliver(e: &mut StreamletEngine, p: &Proposal) -> Vec<BlockId> {
        let mut fx = e.on_message(0, p.proposer, ConsensusMsg::Propose(p.clone()));
        fx.merge(e.on_proposal_verdict(0, p.id, ProposalVerdict::Accept));
        fx.msgs
            .iter()
            .filter_map(|(_, m)| match m {
                ConsensusMsg::Prepare { block, voter, .. } if *voter == e.id() => Some(*block),
                _ => None,
            })
            .collect()
    }

    fn vote(e: &mut StreamletEngine, p: &Proposal, voter: u32) -> CEffects {
        let (view, block, voter, instance) = (p.view, p.id, ReplicaId(voter), p.proposer);
        let msg = ConsensusMsg::Prepare {
            view,
            block,
            voter,
            instance,
        };
        e.on_message(0, voter, msg)
    }

    #[test]
    fn an_epoch_ends_when_its_block_is_notarized() {
        let mut e = follower();
        let p = proposal(1, 0);
        assert_eq!(deliver(&mut e, &p), vec![p.id]);
        assert!(vote(&mut e, &p, 1).timers.is_empty());
        assert_eq!(e.current_view(), View(1), "two votes of three");
        // The third vote notarizes the block: epoch 2 begins, with its own
        // timer, and no timer has fired.
        let fx = vote(&mut e, &p, 2);
        assert_eq!(e.current_view(), View(2));
        assert_eq!(fx.timers, vec![(EPOCH_DURATION, EPOCH_TAG + 2)]);
        assert_eq!(e.view_changes(), 0);
    }

    #[test]
    fn an_equivocating_leaders_second_proposal_gets_no_vote() {
        let mut e = follower();
        let (first, second) = (proposal(1, 0), proposal(1, 7));
        assert_ne!(first.id, second.id);
        assert_eq!(deliver(&mut e, &first), vec![first.id]);
        assert_eq!(deliver(&mut e, &second), vec![]);
        assert_eq!(e.current_view(), View(1));
    }

    #[test]
    fn a_proposal_for_an_epoch_left_gets_no_vote() {
        let mut e = follower();
        let _ = e.on_timer(1, EPOCH_TAG + 1);
        assert_eq!(e.current_view(), View(2));
        assert_eq!(deliver(&mut e, &proposal(1, 0)), vec![]);
        // The epoch it is in still gets its vote.
        let p = proposal(2, 0);
        assert_eq!(deliver(&mut e, &p), vec![p.id]);
    }

    #[test]
    fn a_stale_epoch_timer_is_ignored() {
        let mut e = follower();
        let p = proposal(1, 0);
        deliver(&mut e, &p);
        vote(&mut e, &p, 1);
        vote(&mut e, &p, 2);
        assert_eq!(e.current_view(), View(2));
        // Epoch 1's timer fires after its block was notarized.
        let fx = e.on_timer(1, EPOCH_TAG + 1);
        assert!(fx.msgs.is_empty() && fx.timers.is_empty() && fx.events.is_empty());
        assert_eq!((e.current_view(), e.view_changes()), (View(2), 0));
    }

    #[test]
    fn votes_are_broadcast() {
        let config = SystemConfig::new(4);
        let mut leader = StreamletEngine::new(&config, ReplicaId(1));
        let _ = leader.on_start(0);
        let fx = leader.on_payload(0, View(1), Payload::Empty);
        let broadcast_votes = fx
            .msgs
            .iter()
            .filter(|(dest, m)| {
                matches!(dest, crate::api::CDest::AllButSelf)
                    && matches!(m, ConsensusMsg::Prepare { .. })
            })
            .count();
        assert_eq!(broadcast_votes, 1);
    }
}
