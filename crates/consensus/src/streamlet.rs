//! Streamlet: the textbook streamlined blockchain protocol (Chan & Shi,
//! 2020), one of the three consensus engines the paper integrates with
//! Stratus (Section VI).
//!
//! Epochs advance on a fixed timer.  The epoch leader proposes a block
//! extending the longest notarized chain; every replica broadcasts its
//! vote; a block with `2f + 1` votes is notarized; three adjacent
//! notarized blocks with consecutive epoch numbers finalize the prefix up
//! to the middle one.  The block table and the leader gate are the shared
//! `core.rs`; the epoch clock, notarization and the vote rule are here.

use crate::api::{
    CEffects, CEvent, ConsensusEngine, ConsensusMsg, ProposalVerdict, StateSize, VoteAggregator,
};
use crate::core::{Chain, Pacemaker, VIEW_TIMEOUT};
use smp_types::{BlockId, Payload, Proposal, ReplicaId, SimTime, SystemConfig, View};
use std::collections::BTreeSet;

/// Timer tag for the epoch clock.
pub const EPOCH_TAG: u64 = 0x5354_524c_0000_0001;

/// Length of an epoch: half the view timeout, which comfortably fits one
/// proposal round trip.
pub const EPOCH_DURATION: SimTime = VIEW_TIMEOUT / 2;

/// Streamlet engine.
#[derive(Clone, Debug)]
pub struct StreamletEngine {
    /// Leadership by epoch (`pm.view` is the current epoch); the epoch
    /// clock below stands in for the pacemaker's view timer.
    pm: Pacemaker,
    chain: Chain,
    votes: VoteAggregator,
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
            notarized: BTreeSet::new(),
            longest_notarized_tip: BlockId::GENESIS,
        }
    }

    /// Number of epochs that ended under another replica's leadership,
    /// plus proposals the mempool rejected.
    pub fn view_changes(&self) -> u64 {
        self.pm.view_changes
    }

    fn longest_notarized_height(&self) -> u64 {
        self.chain.height_of(&self.longest_notarized_tip)
    }

    /// Counts a vote; at the quorum `block` is notarized, which may extend
    /// the longest notarized chain and finalize a prefix.
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
        let Some(height) = self.chain.get(&block).map(|p| p.height) else {
            return;
        };
        if height > self.longest_notarized_height() {
            self.longest_notarized_tip = block;
        }
        // Finalization: three adjacent notarized blocks with consecutive
        // epochs finalize everything up to the middle one.
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
}

impl ConsensusEngine for StreamletEngine {
    fn on_start(&mut self, _now: SimTime) -> CEffects {
        let mut fx = CEffects::none();
        fx.timer(EPOCH_DURATION, EPOCH_TAG);
        self.pm.request_payload_if_leader(self.pm.view, &mut fx);
        fx
    }

    fn on_message(&mut self, _now: SimTime, _from: ReplicaId, msg: ConsensusMsg) -> CEffects {
        let mut fx = CEffects::none();
        match msg {
            ConsensusMsg::Propose(p) => {
                if p.proposer != self.pm.leader_of(p.view) || !self.chain.insert(&p) {
                    return fx;
                }
                // If we are behind, adopt the later epoch.
                self.pm.set_view(self.pm.view.max(p.view));
                fx.event(CEvent::VerifyProposal { proposal: p });
            }
            ConsensusMsg::Prepare {
                view, block, voter, ..
            } => self.record_vote(view, block, voter, &mut fx),
            _ => {}
        }
        fx
    }

    fn on_timer(&mut self, _now: SimTime, tag: u64) -> CEffects {
        let mut fx = CEffects::none();
        if tag != EPOCH_TAG {
            return fx;
        }
        // The epoch clock ticks unconditionally.
        let finished = self.pm.view;
        if !self.pm.is_leader(finished) {
            self.pm.view_changes += 1;
        }
        self.pm.set_view(finished.next());
        fx.timer(EPOCH_DURATION, EPOCH_TAG);
        self.pm.request_payload_if_leader(finished.next(), &mut fx);
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
        let extends =
            p.parent == self.longest_notarized_tip || p.height > self.longest_notarized_height();
        if verdict == ProposalVerdict::Reject {
            self.pm.abandon(view, &mut fx);
        } else if extends {
            // Only proposals extending the longest notarized chain get a vote.
            fx.broadcast(ConsensusMsg::Prepare {
                view,
                block,
                voter,
                instance,
            });
            self.record_vote(view, block, voter, &mut fx);
        }
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
        // Drive several epochs: each fire advances the epoch clock.
        for _ in 0..8 {
            drive_until_quiet(&mut net, 20);
            net.fire_view_timers();
        }
        drive_until_quiet(&mut net, 20);
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
        let _ = e.on_timer(1, EPOCH_TAG);
        let _ = e.on_timer(2, EPOCH_TAG);
        assert_eq!(e.current_view(), View(3));
        assert!(e.view_changes() >= 1);
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
