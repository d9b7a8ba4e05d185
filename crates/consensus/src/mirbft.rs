//! A MirBFT-style multi-leader engine.
//!
//! MirBFT (Stathakopoulou et al.) runs multiple PBFT instances in
//! parallel, one per leader, so that proposal dissemination is not funnelled
//! through a single replica; the paper uses it as the state-of-the-art
//! multi-leader baseline (Table II, "all replicas act as leaders in an
//! epoch").  This engine reproduces that mechanism: every replica leads
//! its own instance, proposing a batch from its local mempool at a fixed
//! cadence, and each batch is agreed with the PBFT prepare/commit pattern
//! (all-to-all votes, hence the `O(n²)` message complexity of Table I).
//! The block table and the two tallies are the shared `core.rs`, one of each
//! per instance: an instance numbers its own views, so the floor below
//! which `core.rs` lets state go is the instance's own.  There is no view
//! to change, so no pacemaker.
//!
//! Cross-instance failure handling (MirBFT's epoch changes) is out of
//! scope, as the paper's comparison runs it in the failure-free setting.

use crate::api::{CEffects, CEvent, ConsensusEngine, ConsensusMsg, ProposalVerdict, StateSize};
use crate::core::{floor_below, Chain, TwoPhase};
use smp_types::{BlockId, Payload, Proposal, ReplicaId, SimTime, SystemConfig, View};

/// Timer tag for the per-replica proposal cadence.
pub const PROPOSE_INTERVAL_TAG: u64 = 0x4d49_5242_0000_0001;

/// Interval at which each leader proposes its next batch.
pub const DEFAULT_PROPOSE_INTERVAL: SimTime = 100 * smp_types::MICROS_PER_MS;

/// One leader's PBFT instance as this replica sees it.
#[derive(Clone, Debug)]
struct Instance {
    chain: Chain,
    votes: TwoPhase,
    /// Last committed block (parent pointer for the leader's next
    /// proposal) and its sequence number.
    tip: BlockId,
    tip_seq: View,
}

impl Instance {
    /// The lowest sequence number whose votes are still tallied.
    fn floor(&self) -> View {
        floor_below(self.tip_seq)
    }
}

/// MirBFT-style multi-leader engine.
#[derive(Clone, Debug)]
pub struct MirBftEngine {
    me: ReplicaId,
    /// Next sequence number of this replica's own instance.
    next_seq: u64,
    /// The instance of every leader, by replica index.
    instances: Vec<Instance>,
    committed: u64,
    awaiting_payload: bool,
}

impl MirBftEngine {
    /// Creates the engine for replica `me`.
    pub fn new(config: &SystemConfig, me: ReplicaId) -> Self {
        MirBftEngine {
            me,
            next_seq: 1,
            instances: (0..config.n)
                .map(|_| Instance {
                    chain: Chain::default(),
                    votes: TwoPhase::new(config, me),
                    tip: BlockId::GENESIS,
                    tip_seq: View(0),
                })
                .collect(),
            committed: 0,
            awaiting_payload: false,
        }
    }

    /// The sequence number this replica will use for its next proposal.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    fn request_payload(&mut self, fx: &mut CEffects) {
        self.awaiting_payload = true;
        let view = View(self.next_seq);
        // An empty payload already skips this replica's cadence slot.
        fx.event(CEvent::NeedPayload {
            view,
            may_wait: false,
        });
    }

    /// The instance led by `leader`, if the system has such a replica.
    fn instance(&mut self, leader: ReplicaId) -> Option<&mut Instance> {
        self.instances.get_mut(leader.index())
    }

    /// Tallies a prepare for `block` of `leader`'s instance and commits it,
    /// as that instance's new tip, at the commit quorum.
    fn prepare(
        &mut self,
        leader: ReplicaId,
        view: View,
        block: BlockId,
        voter: ReplicaId,
        fx: &mut CEffects,
    ) {
        let Some(instance) = self.instance(leader) else {
            return;
        };
        let floor = instance.floor();
        if instance
            .votes
            .prepare(floor, view, block, voter, leader, fx)
        {
            self.on_commit_quorum(leader, view, block, fx);
        }
    }

    fn on_commit_quorum(
        &mut self,
        leader: ReplicaId,
        view: View,
        block: BlockId,
        fx: &mut CEffects,
    ) {
        let Some(instance) = self.instance(leader) else {
            return;
        };
        if instance.chain.commit(&block, fx) {
            instance.tip = block;
            instance.tip_seq = view;
            self.committed += 1;
        }
    }
}

impl ConsensusEngine for MirBftEngine {
    fn on_start(&mut self, _now: SimTime) -> CEffects {
        let mut fx = CEffects::none();
        fx.timer(DEFAULT_PROPOSE_INTERVAL, PROPOSE_INTERVAL_TAG);
        self.request_payload(&mut fx);
        fx
    }

    fn on_message(&mut self, _now: SimTime, _from: ReplicaId, msg: ConsensusMsg) -> CEffects {
        let mut fx = CEffects::none();
        match msg {
            ConsensusMsg::Propose(p) => {
                if self
                    .instance(p.proposer)
                    .is_some_and(|i| i.chain.insert(&p))
                {
                    fx.event(CEvent::VerifyProposal { proposal: p });
                }
            }
            ConsensusMsg::Prepare {
                view,
                block,
                voter,
                instance,
            } => self.prepare(instance, view, block, voter, &mut fx),
            ConsensusMsg::Commit {
                view,
                block,
                voter,
                instance: leader,
            } => {
                let fired = self.instance(leader).is_some_and(|i| {
                    let floor = i.floor();
                    i.votes.commit(floor, view, block, voter)
                });
                if fired {
                    self.on_commit_quorum(leader, view, block, &mut fx);
                }
            }
            ConsensusMsg::Vote { .. } | ConsensusMsg::NewView { .. } => {}
        }
        fx
    }

    fn on_timer(&mut self, _now: SimTime, tag: u64) -> CEffects {
        let mut fx = CEffects::none();
        if tag != PROPOSE_INTERVAL_TAG {
            return fx;
        }
        fx.timer(DEFAULT_PROPOSE_INTERVAL, PROPOSE_INTERVAL_TAG);
        if !self.awaiting_payload {
            self.request_payload(&mut fx);
        }
        fx
    }

    fn on_payload(&mut self, now: SimTime, view: View, payload: Payload) -> CEffects {
        let mut fx = CEffects::none();
        self.awaiting_payload = false;
        // An empty payload skips this cadence slot rather than flooding the
        // network with empty per-leader proposals.
        if view.0 != self.next_seq || payload.is_empty() {
            return fx;
        }
        let own = &mut self.instances[self.me.index()];
        let proposal = Proposal::new(view, self.next_seq, own.tip, self.me, payload, false);
        let id = proposal.id;
        self.next_seq += 1;
        own.chain.insert(&proposal);
        fx.broadcast(ConsensusMsg::Propose(proposal));
        // The leader prepares its own proposal like everyone else.
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
        // The verdict names the block only: find the instance that holds it.
        let held = self.instances.iter().find_map(|i| i.chain.get(&block));
        let Some((view, instance)) = held.map(|p| (p.view, p.proposer)) else {
            return fx;
        };
        if verdict == ProposalVerdict::Accept {
            let voter = self.me;
            fx.broadcast(ConsensusMsg::Prepare {
                view,
                block,
                voter,
                instance,
            });
            self.prepare(instance, view, block, voter, &mut fx);
        }
        fx
    }

    fn id(&self) -> ReplicaId {
        self.me
    }

    fn current_view(&self) -> View {
        View(self.next_seq)
    }

    fn committed_count(&self) -> u64 {
        self.committed
    }

    fn state_size(&self) -> StateSize {
        StateSize {
            blocks: self.instances.iter().map(|i| i.chain.len()).sum(),
            tallies: self.instances.iter().map(|i| i.votes.tallies()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{drive_until_quiet, EngineNet};

    #[test]
    fn empty_payloads_do_not_produce_proposals() {
        let config = SystemConfig::new(4);
        let mut e = MirBftEngine::new(&config, ReplicaId(0));
        let _ = e.on_start(0);
        let fx = e.on_payload(0, View(1), Payload::Empty);
        assert!(fx.msgs.is_empty());
        assert_eq!(e.next_seq(), 1);
    }

    #[test]
    fn every_replica_leads_its_own_instance() {
        let config = SystemConfig::new(4);
        // Build a network where payload requests are answered with a small
        // inline payload so proposals actually flow.
        struct Filler(MirBftEngine);
        impl ConsensusEngine for Filler {
            fn on_start(&mut self, now: SimTime) -> CEffects {
                self.0.on_start(now)
            }
            fn on_message(&mut self, now: SimTime, from: ReplicaId, msg: ConsensusMsg) -> CEffects {
                self.0.on_message(now, from, msg)
            }
            fn on_timer(&mut self, now: SimTime, tag: u64) -> CEffects {
                self.0.on_timer(now, tag)
            }
            fn on_payload(&mut self, now: SimTime, view: View, _p: Payload) -> CEffects {
                let txs = vec![smp_types::Transaction::synthetic(
                    smp_types::ClientId(self.0.id().0),
                    view.0,
                    128,
                    now,
                )];
                self.0.on_payload(now, view, Payload::inline(txs))
            }
            fn on_proposal_verdict(
                &mut self,
                now: SimTime,
                block: BlockId,
                verdict: ProposalVerdict,
            ) -> CEffects {
                self.0.on_proposal_verdict(now, block, verdict)
            }
            fn id(&self) -> ReplicaId {
                self.0.id()
            }
            fn current_view(&self) -> View {
                self.0.current_view()
            }
            fn committed_count(&self) -> u64 {
                self.0.committed_count()
            }
        }
        let mut net: EngineNet<Filler> = EngineNet::new(
            (0..4u32)
                .map(|i| Filler(MirBftEngine::new(&config, ReplicaId(i))))
                .collect(),
        );
        net.start();
        drive_until_quiet(&mut net, 50);
        // All four instances commit their first batch on every replica.
        let committed = net
            .engines()
            .iter()
            .map(|e| e.committed_count())
            .min()
            .unwrap();
        assert!(
            committed >= 4,
            "each of the 4 leaders' batches should commit, got {committed}"
        );
    }

    #[test]
    fn commit_requires_quorum_of_commit_votes() {
        let config = SystemConfig::new(4);
        let mut e = MirBftEngine::new(&config, ReplicaId(0));
        let _ = e.on_start(0);
        let p = Proposal::new(
            View(1),
            1,
            BlockId::GENESIS,
            ReplicaId(2),
            Payload::Empty,
            false,
        );
        let _ = e.on_message(0, ReplicaId(2), ConsensusMsg::Propose(p.clone()));
        for voter in [1u32, 2] {
            let fx = e.on_message(
                0,
                ReplicaId(voter),
                ConsensusMsg::Commit {
                    view: View(1),
                    block: p.id,
                    voter: ReplicaId(voter),
                    instance: ReplicaId(2),
                },
            );
            assert!(fx
                .events
                .iter()
                .all(|ev| !matches!(ev, CEvent::Committed { .. })));
        }
        let fx = e.on_message(
            0,
            ReplicaId(3),
            ConsensusMsg::Commit {
                view: View(1),
                block: p.id,
                voter: ReplicaId(3),
                instance: ReplicaId(2),
            },
        );
        assert!(fx
            .events
            .iter()
            .any(|ev| matches!(ev, CEvent::Committed { .. })));
        assert_eq!(e.committed_count(), 1);
    }
}
