//! The consensus-engine abstraction.
//!
//! Engines are event-driven state machines, exactly like the mempools: a
//! handler receives an input (message, timer, payload, verification
//! result) and returns [`CEffects`] — messages to send, timers to arm, and
//! outputs for the surrounding replica (payload requests, proposals to
//! verify, committed blocks, view changes).
//!
//! The mempool interaction follows the paper's Figure 1: when the engine
//! becomes the leader it asks for a payload (`MakeProposal`); when it
//! receives a proposal it hands it to the mempool for verification and
//! filling (`FillProposal`) and only proceeds to vote once the mempool
//! reports that consensus may continue.

use serde::{Deserialize, Serialize};
use smp_types::{BlockId, Payload, Proposal, ReplicaId, SimTime, View};
use std::collections::{BTreeMap, BTreeSet};

/// Message destination (mirrors the mempool's `Dest`; kept separate so the
/// consensus crate does not depend on the mempool crate).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CDest {
    /// A single replica.
    One(ReplicaId),
    /// Every replica except the sender.
    AllButSelf,
}

/// Consensus wire messages, shared by all engines (each engine uses the
/// subset it needs).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ConsensusMsg {
    /// A proposal (HotStuff/PBFT pre-prepare, Streamlet proposal,
    /// MirBFT per-leader proposal).
    Propose(Proposal),
    /// A HotStuff vote, sent to the leader of the next view.
    Vote {
        /// View the vote belongs to.
        view: View,
        /// Voted block.
        block: BlockId,
        /// Voting replica.
        voter: ReplicaId,
    },
    /// A PBFT prepare / Streamlet vote, broadcast to everyone.
    Prepare {
        /// View (or epoch) of the vote.
        view: View,
        /// Voted block.
        block: BlockId,
        /// Voting replica.
        voter: ReplicaId,
        /// Originating leader of the instance being voted on (used by the
        /// multi-leader engine; equal to the view leader otherwise).
        instance: ReplicaId,
    },
    /// A PBFT commit vote, broadcast to everyone.
    Commit {
        /// View of the vote.
        view: View,
        /// Voted block.
        block: BlockId,
        /// Voting replica.
        voter: ReplicaId,
        /// Originating leader of the instance being voted on.
        instance: ReplicaId,
    },
    /// A pacemaker new-view message carrying the sender's highest QC view.
    NewView {
        /// The view being entered.
        view: View,
        /// Sender.
        voter: ReplicaId,
        /// Highest quorum-certificate view the sender knows.
        high_qc_view: View,
    },
}

/// Outputs from the engine to the surrounding replica.
#[derive(Clone, Debug, PartialEq)]
pub enum CEvent {
    /// The engine is the leader of `view` and wants a payload from the
    /// mempool (`MakeProposal`).
    NeedPayload {
        /// View to propose in.
        view: View,
        /// Whether the engine would rather wait for payload than propose
        /// an empty block now: no block it holds carries a payload that
        /// later views have to commit.  The replica decides whether to
        /// wait; proposing at once is always correct.
        may_wait: bool,
    },
    /// An incoming proposal must be verified/filled by the mempool
    /// (`FillProposal`) before the engine votes on it.
    VerifyProposal {
        /// The proposal to verify.
        proposal: Proposal,
    },
    /// A proposal committed (total order decided at this replica).
    Committed {
        /// The committed proposal.
        proposal: Proposal,
    },
    /// The engine abandoned a view (pacemaker timeout or invalid leader).
    ViewChange {
        /// The view that was abandoned.
        abandoned: View,
    },
}

/// Side effects of one engine handler invocation.
#[derive(Clone, Debug, Default)]
pub struct CEffects {
    /// Messages to send.
    pub msgs: Vec<(CDest, ConsensusMsg)>,
    /// Timers to arm, as `(delay, tag)` pairs.
    pub timers: Vec<(SimTime, u64)>,
    /// Outputs for the replica.
    pub events: Vec<CEvent>,
}

impl CEffects {
    /// No effects.
    pub fn none() -> Self {
        CEffects::default()
    }

    /// Queues a unicast.
    pub fn send(&mut self, to: ReplicaId, msg: ConsensusMsg) {
        self.msgs.push((CDest::One(to), msg));
    }

    /// Queues a broadcast to every other replica.
    pub fn broadcast(&mut self, msg: ConsensusMsg) {
        self.msgs.push((CDest::AllButSelf, msg));
    }

    /// Arms a timer.
    pub fn timer(&mut self, delay: SimTime, tag: u64) {
        self.timers.push((delay, tag));
    }

    /// Emits an output event.
    pub fn event(&mut self, ev: CEvent) {
        self.events.push(ev);
    }

    /// Appends all effects of `other`.
    pub fn merge(&mut self, other: CEffects) {
        self.msgs.extend(other.msgs);
        self.timers.extend(other.timers);
        self.events.extend(other.events);
    }
}

/// Result of the mempool's verification of a proposal, reported back to
/// the engine by the replica.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProposalVerdict {
    /// Vote on it.
    Accept,
    /// Reject it and treat the leader as faulty (view change).
    Reject,
}

/// A leader-based BFT consensus engine.
pub trait ConsensusEngine {
    /// Called once at simulated time 0.
    fn on_start(&mut self, now: SimTime) -> CEffects;

    /// Handles a consensus message from another replica.
    fn on_message(&mut self, now: SimTime, from: ReplicaId, msg: ConsensusMsg) -> CEffects;

    /// Handles a timer armed by a previous handler.
    fn on_timer(&mut self, now: SimTime, tag: u64) -> CEffects;

    /// Supplies the payload requested by a previous
    /// [`CEvent::NeedPayload`].
    fn on_payload(&mut self, now: SimTime, view: View, payload: Payload) -> CEffects;

    /// Reports the mempool's verdict on a proposal previously emitted via
    /// [`CEvent::VerifyProposal`].  For Stratus this is called immediately;
    /// for best-effort mempools it may arrive much later (after missing
    /// microblocks were fetched).
    fn on_proposal_verdict(
        &mut self,
        now: SimTime,
        block: BlockId,
        verdict: ProposalVerdict,
    ) -> CEffects;

    /// The replica this engine runs on.
    fn id(&self) -> ReplicaId;

    /// The current view (or epoch).
    fn current_view(&self) -> View;

    /// Number of proposals committed so far.
    fn committed_count(&self) -> u64;

    /// Live sizes of the engine's tables, for gauges and the bounded-state
    /// tests; an engine that keeps none reports zeros.
    fn state_size(&self) -> StateSize {
        StateSize::default()
    }
}

/// What a consensus engine holds right now.  Both stay within a constant
/// of the system size however long the engine runs (see `core.rs`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StateSize {
    /// Proposals in the block table.
    pub blocks: usize,
    /// Vote tallies held (`NewView`, vote, prepare and commit), fired ones
    /// included.
    pub tallies: usize,
}

/// Who has voted for one `(view, block)`, until the quorum fires.
#[derive(Clone, Debug)]
enum Tally {
    Open(BTreeSet<ReplicaId>),
    Done,
}

/// Tracks votes per `(view, block)` until a quorum is reached, for the
/// views at or above a floor the caller moves up.
#[derive(Clone, Debug)]
pub(crate) struct VoteAggregator {
    quorum: usize,
    /// Lowest view first, so that what falls below the floor pops off.
    tallies: BTreeMap<(View, BlockId), Tally>,
    floor: View,
}

impl VoteAggregator {
    /// An empty aggregator that fires at `quorum` distinct voters.
    pub(crate) fn new(quorum: usize) -> Self {
        VoteAggregator {
            quorum,
            tallies: BTreeMap::new(),
            floor: View(0),
        }
    }

    /// Tallies held, fired ones included.
    pub(crate) fn len(&self) -> usize {
        self.tallies.len()
    }

    /// Records a vote; returns `true` exactly once, when the quorum of
    /// distinct voters has been seen for `(view, block)`.  Tallies below
    /// `floor` are dropped, and a vote for a view below it opens none: a
    /// quorum that fired and was forgotten can not form again.
    pub(crate) fn record(
        &mut self,
        floor: View,
        view: View,
        block: BlockId,
        voter: ReplicaId,
    ) -> bool {
        self.floor = self.floor.max(floor);
        while let Some(entry) = self.tallies.first_entry() {
            if entry.key().0 >= self.floor {
                break;
            }
            entry.remove();
        }
        if view < self.floor {
            return false;
        }
        let tally = self
            .tallies
            .entry((view, block))
            .or_insert_with(|| Tally::Open(BTreeSet::new()));
        let Tally::Open(voters) = tally else {
            return false;
        };
        voters.insert(voter);
        let reached = voters.len() >= self.quorum;
        if reached {
            *tally = Tally::Done;
        }
        reached
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smp_crypto::Digest;

    #[test]
    fn vote_aggregator_reaches_quorum_once() {
        let mut agg = VoteAggregator::new(3);
        let b = BlockId(Digest::of_u64(1));
        assert!(!agg.record(View(0), View(1), b, ReplicaId(0)));
        assert!(
            !agg.record(View(0), View(1), b, ReplicaId(0)),
            "duplicate voter ignored"
        );
        assert!(!agg.record(View(0), View(1), b, ReplicaId(1)));
        assert!(
            !agg.record(View(0), View(2), b, ReplicaId(2)),
            "each (view, block) has its own tally"
        );
        assert!(agg.record(View(0), View(1), b, ReplicaId(2)));
        assert!(
            !agg.record(View(0), View(1), b, ReplicaId(3)),
            "quorum reported only once"
        );
    }

    #[test]
    fn a_vote_below_the_floor_opens_no_tally_and_cannot_refire_a_quorum() {
        let mut agg = VoteAggregator::new(2);
        let block = |v: u64| BlockId(Digest::of_u64(v));
        for v in 1..=40u64 {
            let floor = View(v.saturating_sub(16));
            assert!(!agg.record(floor, View(v), block(v), ReplicaId(0)));
            assert!(agg.record(floor, View(v), block(v), ReplicaId(1)));
            assert!(agg.len() <= 17, "{} tallies at view {v}", agg.len());
        }
        // View 3 fired and was forgotten: replayed, its votes count for
        // nothing, and neither do votes for a block never tallied there.
        let floor = View(24);
        for voter in 0..4 {
            assert!(!agg.record(floor, View(3), block(3), ReplicaId(voter)));
            assert!(!agg.record(floor, View(23), block(99), ReplicaId(voter)));
        }
        assert_eq!(agg.len(), 17);
        // At the floor itself a tally is still held (and done), above it a
        // new one opens; a lower floor passed later does not bring views back.
        assert!(!agg.record(floor, View(24), block(24), ReplicaId(2)));
        assert!(!agg.record(View(0), View(23), block(23), ReplicaId(2)));
        assert!(!agg.record(View(0), View(41), block(41), ReplicaId(2)));
        assert_eq!(agg.len(), 18);
    }

    #[test]
    fn effects_builders() {
        let mut fx = CEffects::none();
        fx.send(
            ReplicaId(1),
            ConsensusMsg::NewView {
                view: View(2),
                voter: ReplicaId(0),
                high_qc_view: View(1),
            },
        );
        fx.broadcast(ConsensusMsg::NewView {
            view: View(2),
            voter: ReplicaId(0),
            high_qc_view: View(1),
        });
        fx.timer(100, 7);
        fx.event(CEvent::ViewChange { abandoned: View(1) });
        let mut other = CEffects::none();
        other.timer(200, 8);
        fx.merge(other);
        assert_eq!(fx.msgs.len(), 2);
        assert_eq!(fx.timers.len(), 2);
        assert_eq!(fx.events.len(), 1);
    }
}
