//! Chained HotStuff (three-chain commit rule, rotating leaders, pacemaker).
//!
//! This is the "Chained-HotStuff" configuration the paper bases its
//! evaluation on (Section VII-A): pipelined proposals, a leader per view,
//! votes sent to the *next* leader (linear message complexity), and a
//! three-chain commit rule.  The block table and the timeout-driven
//! pacemaker are the shared `core.rs`; this file is the vote and the
//! commit rule.

use crate::api::{
    CEffects, CEvent, ConsensusEngine, ConsensusMsg, ProposalVerdict, StateSize, VoteAggregator,
};
use crate::core::{Chain, Pacemaker};
use smp_types::{BlockId, Payload, Proposal, ReplicaId, SimTime, SystemConfig, View};

/// Timer-tag base for per-view pacemaker timers (`tag = base + view`).
pub const VIEW_TAG_BASE: u64 = 0x4854_5300_0000_0000;

/// Chained HotStuff engine.
#[derive(Clone, Debug)]
pub struct HotStuffEngine {
    pm: Pacemaker,
    chain: Chain,
    /// The highest quorum certificate known: the certified block and the
    /// view whose votes certified it.
    high_qc_block: BlockId,
    high_qc_view: View,
    votes: VoteAggregator,
}

impl HotStuffEngine {
    /// Creates the engine for replica `me`.
    pub fn new(config: &SystemConfig, me: ReplicaId) -> Self {
        HotStuffEngine {
            pm: Pacemaker::new(config, me, VIEW_TAG_BASE),
            chain: Chain::default(),
            high_qc_block: BlockId::GENESIS,
            high_qc_view: View(0),
            votes: VoteAggregator::new(config.consensus_quorum()),
        }
    }

    /// Number of view changes this replica initiated.
    pub fn view_changes(&self) -> u64 {
        self.pm.view_changes
    }

    /// The three-chain rule, applied after `parent` (the block a new
    /// proposal extends) received a quorum certificate: three consecutive
    /// views certify the oldest block of the chain.
    fn try_commit(&mut self, parent: BlockId, fx: &mut CEffects) {
        if let Some([_, _, oldest]) = self.chain.three_chain(&parent) {
            self.chain.commit_through(oldest, fx);
        }
    }

    /// Votes go to the next leader; a valid proposal for view v is also the
    /// signal to move to view v + 1 (optimistic responsiveness).
    fn vote_for(&mut self, view: View, block: BlockId, fx: &mut CEffects) {
        let (next, voter) = (view.next(), self.pm.me);
        let vote = ConsensusMsg::Vote { view, block, voter };
        fx.send(self.pm.leader_of(next), vote);
        self.pm.enter(next, fx);
    }
}

impl ConsensusEngine for HotStuffEngine {
    fn on_start(&mut self, _now: SimTime) -> CEffects {
        let mut fx = CEffects::none();
        self.pm.arm(&mut fx);
        self.pm.request_payload_if_leader(self.pm.view, &mut fx);
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
                // The parent now has a QC (embedded in the proposal): remember
                // it and try the three-chain rule, on the newest QC's too if late.
                if self.chain.height_of(&p.parent) + 1 == p.height && p.view > self.high_qc_view {
                    self.high_qc_block = p.parent;
                    self.high_qc_view = View(p.view.0.saturating_sub(1));
                }
                self.try_commit(p.parent, &mut fx);
                if p.view < self.pm.view {
                    self.try_commit(self.high_qc_block, &mut fx);
                }
                // Hand the proposal to the mempool before voting.
                fx.event(CEvent::VerifyProposal { proposal: p });
            }
            ConsensusMsg::Vote { view, block, voter } => {
                // Votes for view v are collected by the leader of v + 1.
                let next = view.next();
                let floor = self.pm.floor();
                if self.pm.is_leader(next) && self.votes.record(floor, view, block, voter) {
                    if view >= self.high_qc_view {
                        self.high_qc_block = block;
                        self.high_qc_view = view;
                    }
                    self.pm.enter(next, &mut fx);
                    self.pm.request_payload_if_leader(next, &mut fx);
                }
            }
            ConsensusMsg::NewView { view, voter, .. } => {
                self.pm.on_new_view(view, voter, &mut fx);
            }
            // Not used by HotStuff.
            ConsensusMsg::Prepare { .. } | ConsensusMsg::Commit { .. } => {}
        }
        self.chain.let_wait(&mut fx);
        fx
    }

    fn on_timer(&mut self, _now: SimTime, tag: u64) -> CEffects {
        let mut fx = CEffects::none();
        self.pm.on_timer(tag, self.high_qc_view, &mut fx);
        self.chain.let_wait(&mut fx);
        fx
    }

    fn on_payload(&mut self, _now: SimTime, view: View, payload: Payload) -> CEffects {
        let mut fx = CEffects::none();
        if !self.pm.claim_proposal(view) {
            return fx;
        }
        let parent = self.high_qc_block;
        let height = self.chain.height_of(&parent) + 1;
        let proposal = Proposal::new(view, height, parent, self.pm.me, payload, true);
        let id = proposal.id;
        self.chain.insert(&proposal);
        self.try_commit(parent, &mut fx);
        fx.broadcast(ConsensusMsg::Propose(proposal));
        // The leader votes for its own proposal.
        self.vote_for(view, id, &mut fx);
        self.chain.let_wait(&mut fx);
        fx
    }

    fn on_proposal_verdict(
        &mut self,
        _now: SimTime,
        block: BlockId,
        verdict: ProposalVerdict,
    ) -> CEffects {
        let mut fx = CEffects::none();
        let Some(view) = self.chain.get(&block).map(|p| p.view) else {
            return fx;
        };
        match verdict {
            // No vote in a view this replica has left.
            ProposalVerdict::Accept if view >= self.pm.view => self.vote_for(view, block, &mut fx),
            ProposalVerdict::Accept => {}
            ProposalVerdict::Reject => self.pm.reject(view, self.high_qc_view, &mut fx),
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
            tallies: self.votes.len() + self.pm.tallies(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{drive_until_quiet, EngineNet};

    fn net(n: usize) -> EngineNet<HotStuffEngine> {
        let config = SystemConfig::new(n);
        EngineNet::new(
            (0..n as u32)
                .map(|i| HotStuffEngine::new(&config, ReplicaId(i)))
                .collect(),
        )
    }

    #[test]
    fn leader_of_view_one_requests_payload_on_start() {
        let config = SystemConfig::new(4);
        let mut e = HotStuffEngine::new(&config, ReplicaId(1));
        let fx = e.on_start(0);
        assert!(fx
            .events
            .iter()
            .any(|ev| matches!(ev, CEvent::NeedPayload { view, .. } if *view == View(1))));
        let mut e0 = HotStuffEngine::new(&config, ReplicaId(0));
        let fx0 = e0.on_start(0);
        assert!(!fx0
            .events
            .iter()
            .any(|ev| matches!(ev, CEvent::NeedPayload { .. })));
    }

    #[test]
    fn chain_commits_after_three_consecutive_views() {
        let mut net = net(4);
        net.start();
        // Let the network run several rounds with empty payloads.
        drive_until_quiet(&mut net, 30);
        let committed = net
            .engines()
            .iter()
            .map(|e| e.committed_count())
            .min()
            .unwrap();
        assert!(
            committed >= 1,
            "pipelined empty proposals should commit, got {committed}"
        );
        // All replicas commit the same prefix.
        let chains = net.committed_chains();
        let shortest = chains.iter().map(|c| c.len()).min().unwrap();
        for i in 0..shortest {
            let first = chains[0][i];
            assert!(
                chains.iter().all(|c| c[i] == first),
                "divergence at height {i}"
            );
        }
    }

    #[test]
    fn progress_resumes_after_leader_timeout() {
        // Five replicas: with the view-1 leader silent, views 2..5 still
        // give the three consecutive honest-leader views plus the follow-up
        // proposal that the chained commit rule needs.
        let mut net = net(5);
        net.start();
        // Silence replica 1 (the leader of view 1 is replica 1).
        net.silence(ReplicaId(1));
        for _ in 0..5 {
            drive_until_quiet(&mut net, 40);
            net.fire_view_timers();
        }
        drive_until_quiet(&mut net, 60);
        let committed = net
            .engines()
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 1)
            .map(|(_, e)| e.committed_count())
            .min()
            .unwrap();
        assert!(
            committed >= 1,
            "view change should restore progress, got {committed}"
        );
        assert!(net.engines()[0].view_changes() >= 1);
    }

    #[test]
    fn rejected_proposals_do_not_get_votes() {
        let config = SystemConfig::new(4);
        let mut leader = HotStuffEngine::new(&config, ReplicaId(1));
        let mut follower = HotStuffEngine::new(&config, ReplicaId(2));
        let _ = leader.on_start(0);
        let _ = follower.on_start(0);
        let fx = leader.on_payload(0, View(1), Payload::Empty);
        let proposal = fx
            .msgs
            .iter()
            .find_map(|(_, m)| match m {
                ConsensusMsg::Propose(p) => Some(p.clone()),
                _ => None,
            })
            .unwrap();
        let fx = follower.on_message(1, ReplicaId(1), ConsensusMsg::Propose(proposal.clone()));
        assert!(fx
            .events
            .iter()
            .any(|e| matches!(e, CEvent::VerifyProposal { .. })));
        let fx = follower.on_proposal_verdict(2, proposal.id, ProposalVerdict::Reject);
        assert!(fx
            .events
            .iter()
            .any(|e| matches!(e, CEvent::ViewChange { .. })));
        assert!(!fx
            .msgs
            .iter()
            .any(|(_, m)| matches!(m, ConsensusMsg::Vote { .. })));
    }

    #[test]
    fn stale_proposals_and_foreign_votes_are_ignored() {
        let config = SystemConfig::new(4);
        let mut e = HotStuffEngine::new(&config, ReplicaId(3));
        let _ = e.on_start(0);
        // A proposal from a non-leader is dropped.
        let bogus = Proposal::new(
            View(1),
            1,
            BlockId::GENESIS,
            ReplicaId(2),
            Payload::Empty,
            true,
        );
        let fx = e.on_message(0, ReplicaId(2), ConsensusMsg::Propose(bogus));
        assert!(fx.events.is_empty());
        // A vote addressed to a different next-leader is dropped.
        let fx = e.on_message(
            0,
            ReplicaId(0),
            ConsensusMsg::Vote {
                view: View(1),
                block: BlockId::GENESIS,
                voter: ReplicaId(0),
            },
        );
        assert!(fx.events.is_empty() && fx.msgs.is_empty());
    }
}
