//! Chained PBFT: the classic three-phase pattern (pre-prepare, prepare,
//! commit) arranged on the same chained, rotating-leader structure as
//! Chained-HotStuff, as the paper does for a fair comparison
//! (Section VII-A).  Prepare and commit votes are broadcast all-to-all,
//! giving the `O(n²)` message complexity of Table I.  The block table, the
//! pacemaker and the two tallies are the shared `core.rs`; this file builds
//! each view's block on the last committed one and enters the next on commit.

use crate::api::{CEffects, CEvent, ConsensusEngine, ConsensusMsg, ProposalVerdict, StateSize};
use crate::core::{Chain, Pacemaker, TwoPhase};
use smp_types::{BlockId, Payload, Proposal, ReplicaId, SimTime, SystemConfig, View};

/// Timer-tag base for per-view pacemaker timers (`tag = base + view`).
pub const PBFT_VIEW_TAG_BASE: u64 = 0x5042_4654_0000_0000;

/// Chained PBFT engine.
#[derive(Clone, Debug)]
pub struct PbftEngine {
    pm: Pacemaker,
    chain: Chain,
    votes: TwoPhase,
    last_committed: BlockId,
}

impl PbftEngine {
    /// Creates the engine for replica `me`.
    pub fn new(config: &SystemConfig, me: ReplicaId) -> Self {
        PbftEngine {
            pm: Pacemaker::new(config, me, PBFT_VIEW_TAG_BASE),
            chain: Chain::default(),
            votes: TwoPhase::new(config, me),
            last_committed: BlockId::GENESIS,
        }
    }

    /// Number of view changes this replica initiated.
    pub fn view_changes(&self) -> u64 {
        self.pm.view_changes
    }

    fn record_prepare(&mut self, view: View, block: BlockId, voter: ReplicaId, fx: &mut CEffects) {
        let floor = self.pm.floor();
        if self
            .votes
            .prepare(floor, view, block, voter, self.pm.me, fx)
        {
            self.on_commit_quorum(view, block, fx);
        }
    }

    /// Commits `block` if it is here, then — sequential views — moves to
    /// the next height whether it was or not.
    fn on_commit_quorum(&mut self, view: View, block: BlockId, fx: &mut CEffects) {
        if self.chain.is_committed(&block) {
            return;
        }
        if self.chain.commit(&block, fx) {
            self.last_committed = block;
        }
        self.pm.enter(view.next(), fx);
        self.pm.request_payload_if_leader(self.pm.view, fx);
    }
}

impl ConsensusEngine for PbftEngine {
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
                if !self.pm.accepts(&p) || !self.chain.insert(&p) {
                    return fx;
                }
                self.pm.enter(p.view, &mut fx);
                fx.event(CEvent::VerifyProposal { proposal: p });
            }
            ConsensusMsg::Prepare {
                view, block, voter, ..
            } => self.record_prepare(view, block, voter, &mut fx),
            ConsensusMsg::Commit {
                view, block, voter, ..
            } => {
                if self.votes.commit(self.pm.floor(), view, block, voter) {
                    self.on_commit_quorum(view, block, &mut fx);
                }
            }
            ConsensusMsg::NewView { view, voter, .. } => {
                self.pm.on_new_view(view, voter, &mut fx);
            }
            ConsensusMsg::Vote { .. } => {}
        }
        self.chain.let_wait(&mut fx);
        fx
    }

    fn on_timer(&mut self, _now: SimTime, tag: u64) -> CEffects {
        let mut fx = CEffects::none();
        self.pm.on_timer(tag, View(0), &mut fx);
        self.chain.let_wait(&mut fx);
        fx
    }

    fn on_payload(&mut self, now: SimTime, view: View, payload: Payload) -> CEffects {
        let mut fx = CEffects::none();
        if !self.pm.claim_proposal(view) {
            return fx;
        }
        let parent = self.last_committed;
        let proposal = Proposal::new(view, view.0, parent, self.pm.me, payload, false);
        let id = proposal.id;
        self.chain.insert(&proposal);
        fx.broadcast(ConsensusMsg::Propose(proposal));
        // The leader's pre-prepare doubles as its prepare vote.
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
        let Some((view, instance)) = self.chain.get(&block).map(|p| (p.view, p.proposer)) else {
            return fx;
        };
        let voter = self.pm.me;
        match verdict {
            ProposalVerdict::Accept => {
                fx.broadcast(ConsensusMsg::Prepare {
                    view,
                    block,
                    voter,
                    instance,
                });
                self.record_prepare(view, block, voter, &mut fx);
            }
            ProposalVerdict::Reject => self.pm.reject(view, View(0), &mut fx),
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
            tallies: self.votes.tallies() + self.pm.tallies(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{drive_until_quiet, EngineNet};

    fn net(n: usize) -> EngineNet<PbftEngine> {
        let config = SystemConfig::new(n);
        EngineNet::new(
            (0..n as u32)
                .map(|i| PbftEngine::new(&config, ReplicaId(i)))
                .collect(),
        )
    }

    #[test]
    fn blocks_commit_sequentially() {
        let mut net = net(4);
        net.start();
        drive_until_quiet(&mut net, 50);
        let committed = net
            .engines()
            .iter()
            .map(|e| e.committed_count())
            .min()
            .unwrap();
        assert!(
            committed >= 2,
            "sequential PBFT should commit several blocks, got {committed}"
        );
        let chains = net.committed_chains();
        let shortest = chains.iter().map(|c| c.len()).min().unwrap();
        for i in 0..shortest {
            assert!(
                chains.iter().all(|c| c[i] == chains[0][i]),
                "divergence at {i}"
            );
        }
    }

    #[test]
    fn prepare_and_commit_votes_are_all_to_all() {
        let config = SystemConfig::new(4);
        let mut leader = PbftEngine::new(&config, ReplicaId(1));
        let _ = leader.on_start(0);
        let fx = leader.on_payload(0, View(1), Payload::Empty);
        let broadcasts = fx
            .msgs
            .iter()
            .filter(|(dest, _)| matches!(dest, crate::api::CDest::AllButSelf))
            .count();
        // Pre-prepare plus the leader's own prepare are both broadcast.
        assert!(broadcasts >= 2);
    }

    #[test]
    fn view_change_restores_progress_with_silent_leader() {
        let mut net = net(4);
        net.start();
        net.silence(ReplicaId(1)); // leader of view 1
        drive_until_quiet(&mut net, 10);
        net.fire_view_timers();
        drive_until_quiet(&mut net, 30);
        net.fire_view_timers();
        drive_until_quiet(&mut net, 50);
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
            "progress should resume after the view change"
        );
    }

    #[test]
    fn proposals_from_non_leaders_are_ignored() {
        let config = SystemConfig::new(4);
        let mut e = PbftEngine::new(&config, ReplicaId(0));
        let _ = e.on_start(0);
        let bogus = Proposal::new(
            View(1),
            1,
            BlockId::GENESIS,
            ReplicaId(3),
            Payload::Empty,
            false,
        );
        let fx = e.on_message(0, ReplicaId(3), ConsensusMsg::Propose(bogus));
        assert!(fx.events.is_empty());
    }
}
