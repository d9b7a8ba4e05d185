//! The chain-and-pacemaker core under the four engines: plain structs an
//! engine owns and calls (no trait, no policy object), to which it adds its
//! vote and its commit rule.  Four known defects are *preserved here, not
//! fixed*, each marked where it lives; ROADMAP direction 1 (commit gaps →
//! block sync) owns them.

use crate::api::{CEffects, CEvent, ConsensusMsg, VoteAggregator};
use smp_types::{BlockId, Proposal, ReplicaId, SimTime, SystemConfig, View};
use std::collections::{HashMap, HashSet};

/// The block table: every proposal seen, and which of them are committed.
#[derive(Clone, Debug, Default)]
pub(crate) struct Chain {
    blocks: HashMap<BlockId, Proposal>,
    committed: HashSet<BlockId>,
}

impl Chain {
    /// Stores a copy of `p`; `false` if it was already known.
    pub(crate) fn insert(&mut self, p: &Proposal) -> bool {
        let new = !self.blocks.contains_key(&p.id);
        if new {
            self.blocks.insert(p.id, p.clone());
        }
        new
    }

    pub(crate) fn get(&self, id: &BlockId) -> Option<&Proposal> {
        self.blocks.get(id)
    }

    /// Preserved defect (ROADMAP direction 1): a block never seen answers 0,
    /// like genesis, so a proposal built on a missed parent takes a height
    /// already in use.
    pub(crate) fn height_of(&self, id: &BlockId) -> u64 {
        self.blocks.get(id).map_or(0, |p| p.height)
    }

    /// `head`, its parent and grandparent, if known and in consecutive views.
    pub(crate) fn three_chain(&self, head: &BlockId) -> Option<[BlockId; 3]> {
        let b1 = self.blocks.get(head)?;
        let b2 = self.blocks.get(&b1.parent)?;
        let b3 = self.blocks.get(&b2.parent)?;
        let consecutive = b1.view.0 == b2.view.0 + 1 && b2.view.0 == b3.view.0 + 1;
        consecutive.then_some([b1.id, b2.id, b3.id])
    }

    pub(crate) fn is_committed(&self, id: &BlockId) -> bool {
        self.committed.contains(id)
    }

    pub(crate) fn committed_count(&self) -> u64 {
        self.committed.len() as u64
    }

    /// Commits the one block `id` and returns it, unless it is unknown or
    /// already committed.  Preserved defect (ROADMAP direction 1): a PBFT /
    /// MirBFT commit quorum that fires before its block arrives never
    /// commits it.
    pub(crate) fn commit(&mut self, id: &BlockId, fx: &mut CEffects) -> Option<&Proposal> {
        let p = self.blocks.get(id)?;
        if !self.committed.insert(p.id) {
            return None;
        }
        let proposal = p.clone();
        fx.event(CEvent::Committed { proposal });
        Some(p)
    }

    /// Commits `tip` and every uncommitted ancestor, oldest first.
    /// Preserved defect (ROADMAP direction 1): the walk stops at the first
    /// missing ancestor, so whatever lies below a gap never executes here.
    pub(crate) fn commit_through(&mut self, tip: BlockId, fx: &mut CEffects) {
        let mut chain = Vec::new();
        let mut cursor = self.blocks.get(&tip);
        while let Some(p) = cursor.filter(|p| !self.committed.contains(&p.id)) {
            chain.push(p);
            cursor = self.blocks.get(&p.parent);
        }
        for p in chain.into_iter().rev() {
            self.committed.insert(p.id);
            let proposal = p.clone();
            fx.event(CEvent::Committed { proposal });
        }
    }
}

/// Round-robin leadership, the once-per-view payload and proposal gate,
/// and the view change of HotStuff and PBFT: one timer per view (`tag =
/// tag_base + view`), a `NewView` to the next leader on timeout or `Reject`,
/// a leader that proposes on a quorum of them.  The two differ in `tag_base`
/// and in the `high_qc_view` they put on the wire.  Streamlet, whose epochs
/// tick on its own clock, uses the leadership and the gate only.
#[derive(Clone, Debug)]
pub(crate) struct Pacemaker {
    pub(crate) me: ReplicaId,
    n: usize,
    pub(crate) view: View,
    timeout: SimTime,
    tag_base: u64,
    new_views: VoteAggregator,
    proposed_in: HashSet<View>,
    payload_requested_for: HashSet<View>,
    pub(crate) view_changes: u64,
}

impl Pacemaker {
    pub(crate) fn new(config: &SystemConfig, me: ReplicaId, tag_base: u64) -> Self {
        Pacemaker {
            me,
            n: config.n,
            view: View(1),
            timeout: config.view_change_timeout,
            tag_base,
            new_views: VoteAggregator::new(config.consensus_quorum()),
            proposed_in: HashSet::new(),
            payload_requested_for: HashSet::new(),
            view_changes: 0,
        }
    }

    pub(crate) fn leader_of(&self, view: View) -> ReplicaId {
        view.leader(self.n)
    }

    pub(crate) fn is_leader(&self, view: View) -> bool {
        self.leader_of(view) == self.me
    }

    /// Emits `NeedPayload`, once, if this replica leads `view`.
    pub(crate) fn request_payload_if_leader(&mut self, view: View, fx: &mut CEffects) {
        if self.is_leader(view)
            && !self.proposed_in.contains(&view)
            && self.payload_requested_for.insert(view)
        {
            fx.event(CEvent::NeedPayload { view });
        }
    }

    /// The `on_payload` gate: `true` once, for the current view, if led.
    pub(crate) fn claim_proposal(&mut self, view: View) -> bool {
        view == self.view && self.is_leader(view) && self.proposed_in.insert(view)
    }

    /// Counts and reports `view` as abandoned.
    pub(crate) fn abandon(&mut self, view: View, fx: &mut CEffects) {
        self.view_changes += 1;
        fx.event(CEvent::ViewChange { abandoned: view });
    }

    /// Arms the current view's timer.
    pub(crate) fn arm(&self, fx: &mut CEffects) {
        fx.timer(self.timeout, self.tag_base + self.view.0);
    }

    /// Moves forward to `view`, if it is ahead.  That does not entitle its
    /// leader to propose — it takes a vote or `NewView` quorum; requesting
    /// a payload here would fork the chain off a stale QC.
    pub(crate) fn enter(&mut self, view: View, fx: &mut CEffects) {
        if view > self.view {
            self.view = view;
            self.arm(fx);
        }
    }

    /// Whether `p` comes from the leader of its view and is not stale.
    /// Preserved defect (ROADMAP direction 1): a `Propose` with
    /// `view < self.view` is dropped rather than kept as an ancestor, which
    /// is where the commit gaps start.
    pub(crate) fn accepts(&self, p: &Proposal) -> bool {
        p.proposer == self.leader_of(p.view) && p.view >= self.view
    }

    fn send_new_view(&self, high_qc_view: View, fx: &mut CEffects) {
        let (view, voter) = (self.view, self.me);
        let msg = ConsensusMsg::NewView {
            view,
            voter,
            high_qc_view,
        };
        fx.send(self.leader_of(view), msg);
    }

    /// At a quorum of `NewView`s the leader of `view` enters it and proposes.
    pub(crate) fn on_new_view(&mut self, view: View, voter: ReplicaId, fx: &mut CEffects) {
        if self.is_leader(view) && self.new_views.record(view, BlockId::GENESIS, voter) {
            self.enter(view, fx);
            self.request_payload_if_leader(view, fx);
        }
    }

    /// A timer: unless it is foreign or stale (from a view already left),
    /// abandon the view and send the next leader a `NewView`, counted
    /// locally when that leader is this replica.
    pub(crate) fn on_timer(&mut self, tag: u64, high_qc_view: View, fx: &mut CEffects) {
        if tag < self.tag_base || View(tag - self.tag_base) != self.view {
            return;
        }
        self.abandon(self.view, fx);
        self.view = self.view.next();
        self.arm(fx);
        if !self.is_leader(self.view) {
            self.send_new_view(high_qc_view, fx);
        } else if self.new_views.record(self.view, BlockId::GENESIS, self.me) {
            self.request_payload_if_leader(self.view, fx);
        }
    }

    /// The mempool refused the proposal of `view`: its leader is faulty.
    pub(crate) fn reject(&mut self, view: View, high_qc_view: View, fx: &mut CEffects) {
        self.abandon(view, fx);
        self.enter(view.next(), fx);
        self.send_new_view(high_qc_view, fx);
    }
}

/// PBFT's two voting phases: a prepare quorum makes this replica broadcast
/// `Commit` and count its own; a commit quorum decides.
#[derive(Clone, Debug)]
pub(crate) struct TwoPhase {
    me: ReplicaId,
    prepares: VoteAggregator,
    commits: VoteAggregator,
}

impl TwoPhase {
    pub(crate) fn new(config: &SystemConfig, me: ReplicaId) -> Self {
        TwoPhase {
            me,
            prepares: VoteAggregator::new(config.consensus_quorum()),
            commits: VoteAggregator::new(config.consensus_quorum()),
        }
    }

    /// Tallies a prepare; `true` if it completed the prepare quorum *and*
    /// this replica's own `Commit` (sent with `instance`) the commit quorum.
    pub(crate) fn prepare(
        &mut self,
        view: View,
        block: BlockId,
        voter: ReplicaId,
        instance: ReplicaId,
        fx: &mut CEffects,
    ) -> bool {
        if !self.prepares.record(view, block, voter) {
            return false;
        }
        let voter = self.me;
        fx.broadcast(ConsensusMsg::Commit {
            view,
            block,
            voter,
            instance,
        });
        self.commit(view, block, voter)
    }

    /// Tallies a commit vote; `true` exactly once, at the quorum.
    pub(crate) fn commit(&mut self, view: View, block: BlockId, voter: ReplicaId) -> bool {
        self.commits.record(view, block, voter)
    }
}
