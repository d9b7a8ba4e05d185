//! The chain-and-pacemaker core under the four engines: plain structs an
//! engine owns and calls (no trait, no policy object), to which it adds its
//! vote and its commit rule.  Three known defects are *preserved here, not
//! fixed*, each marked where it lives and each about a block that was
//! *never held* (never seen, below a gap, or later than its quorum);
//! ROADMAP's block-sync item (the one catch-up path) owns them.
//!
//! # What is kept below the commit tip
//!
//! A short tail, [`KEPT_VIEWS`] views deep, and nothing else.  [`Chain`]
//! drops every block — committed or not — whose view is more than that
//! below the last committed block's, and refuses to take one back, so a
//! block that left can not commit a second time.  Of a committed block it
//! keeps the header only: the payload leaves with the `Committed` event.
//! Since an idle leader over a shared mempool holds its view for payload
//! (`may_wait`, [`Chain::idle`]), the tail spans more time than a chain of
//! empty views did: up to sixteen holds, four seconds of an idle cluster,
//! at the cost of sixteen headers.  The pacemaker's
//! once-per-view sets and every [`VoteAggregator`] drop what lies that far
//! below the *current* view and open nothing there, so a late or replayed
//! vote can not re-create a quorum that fired.  The floors go by view
//! because views are what every engine stamps in increasing order; heights
//! repeat under the first defect below.  The tail is there for stragglers
//! — the last votes of a quorum, a proposal a few views late — whose
//! handling must not change; what the engines themselves read (the parent
//! a new block extends, a three-chain, the last committed block a
//! `commit_through` stops at) lies within three views of the tip.  A
//! replica further behind than the tail needs block sync too.

use crate::api::{CEffects, CEvent, ConsensusMsg, VoteAggregator};
use smp_crypto::{DigestMap, DigestSet};
use smp_types::{
    BlockId, Payload, Proposal, ReplicaId, SimTime, SystemConfig, View, KEPT_VIEWS, MICROS_PER_MS,
};
use std::collections::{BTreeSet, HashSet};

/// How long a view may last before its replicas give up on it and move to
/// the next one (HotStuff and PBFT); a Streamlet epoch whose block is not
/// notarized times out after half of it.
pub const VIEW_TIMEOUT: SimTime = 1_000 * MICROS_PER_MS;

/// The lowest view kept when the tip (or the current view) is `view`.
pub(crate) fn floor_below(view: View) -> View {
    View(view.0.saturating_sub(KEPT_VIEWS))
}

/// The block table: the proposals seen at or above the floor, and which of
/// them are committed.
#[derive(Clone, Debug, Default)]
pub(crate) struct Chain {
    blocks: DigestMap<BlockId, Proposal>,
    committed: DigestSet<BlockId>,
    /// Every block of `blocks`, lowest view first.
    by_view: BTreeSet<(View, BlockId)>,
    /// The highest view committed; blocks more than [`KEPT_VIEWS`] below
    /// it are gone and are not taken back.
    top: View,
    committed_count: u64,
    /// Held blocks that carry a payload: the uncommitted ones, since a
    /// committed block keeps its header only.
    loaded: usize,
}

impl Chain {
    /// Stores a copy of `p`; `false` if it was already known, or lies below
    /// the floor.
    pub(crate) fn insert(&mut self, p: &Proposal) -> bool {
        let new = p.view >= floor_below(self.top) && !self.blocks.contains_key(&p.id);
        if new {
            self.blocks.insert(p.id, p.clone());
            self.by_view.insert((p.view, p.id));
            self.loaded += usize::from(!p.payload.is_empty());
        }
        new
    }

    /// Whether no held block carries a payload that has yet to commit:
    /// nothing proposed is waiting for later views to commit it, so the
    /// leader of the next one may wait for payload instead of proposing an
    /// empty block.
    pub(crate) fn idle(&self) -> bool {
        self.loaded == 0
    }

    /// Lets every `NeedPayload` in `fx` wait for payload if the chain is
    /// [idle](Chain::idle) as the handler that emitted it returns.
    pub(crate) fn let_wait(&self, fx: &mut CEffects) {
        let idle = self.idle();
        for ev in &mut fx.events {
            if let CEvent::NeedPayload { may_wait, .. } = ev {
                *may_wait = idle;
            }
        }
    }

    /// Blocks held.
    pub(crate) fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Marks the held block `id`, proposed in `view`, committed, and lets
    /// go of everything [`KEPT_VIEWS`] below it.
    fn mark_committed(&mut self, id: BlockId, view: View) {
        self.committed.insert(id);
        self.committed_count += 1;
        self.top = self.top.max(view);
        while let Some(&(view, old)) = self.by_view.first() {
            if view >= floor_below(self.top) {
                break;
            }
            self.by_view.pop_first();
            if let Some(p) = self.blocks.remove(&old) {
                self.loaded -= usize::from(!p.payload.is_empty());
            }
            self.committed.remove(&old);
        }
    }

    pub(crate) fn get(&self, id: &BlockId) -> Option<&Proposal> {
        self.blocks.get(id)
    }

    /// Preserved defect (ROADMAP: block sync): a block never seen answers 0,
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

    /// Blocks committed so far, whether still held or not.
    pub(crate) fn committed_count(&self) -> u64 {
        self.committed_count
    }

    /// Commits the one block `id`; `false` if it is unknown — never seen,
    /// or gone below the floor — or already committed.  Preserved defect
    /// (ROADMAP: block sync): a PBFT / MirBFT commit quorum that fires
    /// before its block arrives never commits it.
    pub(crate) fn commit(&mut self, id: &BlockId, fx: &mut CEffects) -> bool {
        match self.blocks.get(id) {
            Some(p) if !self.committed.contains(&p.id) => {
                let view = p.view;
                self.emit_committed(*id, view, fx);
                true
            }
            _ => false,
        }
    }

    /// Commits `tip` and every uncommitted ancestor, oldest first.
    /// Preserved defect (ROADMAP: block sync): the walk stops at the first
    /// missing ancestor, so whatever lies below a gap never executes here.
    pub(crate) fn commit_through(&mut self, tip: BlockId, fx: &mut CEffects) {
        let mut chain = Vec::new();
        let mut cursor = self.blocks.get(&tip);
        while let Some(p) = cursor.filter(|p| !self.committed.contains(&p.id)) {
            chain.push((p.id, p.view));
            cursor = self.blocks.get(&p.parent);
        }
        for (id, view) in chain.into_iter().rev() {
            self.emit_committed(id, view, fx);
        }
    }

    /// Moves the held block `id`'s payload out into its `Committed` event,
    /// keeping the header, and marks it committed.
    fn emit_committed(&mut self, id: BlockId, view: View, fx: &mut CEffects) {
        let held = self.blocks.get_mut(&id).expect("a held block");
        let payload = std::mem::replace(&mut held.payload, Payload::Empty);
        self.loaded -= usize::from(!payload.is_empty());
        let proposal = Proposal {
            payload,
            ..held.clone()
        };
        self.mark_committed(id, view);
        fx.event(CEvent::Committed { proposal });
    }
}

/// Round-robin leadership, proposal admission, the once-per-view payload
/// and proposal gate, and the view change of HotStuff and PBFT: one timer
/// per view (`tag = tag_base + view`), a `NewView` to the next leader on
/// timeout or `Reject`, a leader that proposes on a quorum of them; the two
/// differ in `tag_base` and the `high_qc_view` they put on the wire.
/// Streamlet uses all but the view change, and [`Pacemaker::abandon`]: an
/// epoch ends on its block's notarization or on a shorter epoch timer of
/// its own, and a timeout sends no `NewView`.
#[derive(Clone, Debug)]
pub(crate) struct Pacemaker {
    pub(crate) me: ReplicaId,
    n: usize,
    pub(crate) view: View,
    tag_base: u64,
    new_views: VoteAggregator,
    /// Views led and proposed in, and views a payload was requested for:
    /// those at or above [`Pacemaker::floor`].
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

    /// The lowest view the once-per-view sets and the vote tallies keep.
    pub(crate) fn floor(&self) -> View {
        floor_below(self.view)
    }

    /// Makes `view` the current one and forgets what fell below the floor.
    /// No timer is armed: [`Pacemaker::enter`] and the timeout do that, and
    /// Streamlet arms its own epoch timer.
    pub(crate) fn set_view(&mut self, view: View) {
        self.view = view;
        let floor = self.floor();
        self.proposed_in.retain(|v| *v >= floor);
        self.payload_requested_for.retain(|v| *v >= floor);
    }

    /// Open `NewView` tallies.
    pub(crate) fn tallies(&self) -> usize {
        self.new_views.len()
    }

    /// Emits `NeedPayload`, once, if this replica leads `view` and is in
    /// it.  A late quorum for a view already left asks for nothing: its
    /// proposal would be refused ([`Pacemaker::claim_proposal`]), and the
    /// payload drawn for it would be lost.  It may not wait for payload
    /// unless the engine says so ([`Chain::let_wait`]).
    pub(crate) fn request_payload_if_leader(&mut self, view: View, fx: &mut CEffects) {
        if self.is_leader(view)
            && view == self.view
            && !self.proposed_in.contains(&view)
            && self.payload_requested_for.insert(view)
        {
            fx.event(CEvent::NeedPayload {
                view,
                may_wait: false,
            });
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
        fx.timer(VIEW_TIMEOUT, self.tag_base + self.view.0);
    }

    /// Moves forward to `view`, if it is ahead.  That does not entitle its
    /// leader to propose — it takes a vote or `NewView` quorum; requesting
    /// a payload here would fork the chain off a stale QC.
    pub(crate) fn enter(&mut self, view: View, fx: &mut CEffects) {
        if view > self.view {
            self.set_view(view);
            self.arm(fx);
        }
    }

    /// The one admission rule: stores `p` if its view's leader proposed it
    /// and nothing of its view or a later one has committed here (it could
    /// only commit out of order), whatever the current view: a late block
    /// is an ancestor, not a hole.  `true` if new.
    pub(crate) fn admit(&self, chain: &mut Chain, p: &Proposal) -> bool {
        p.proposer == self.leader_of(p.view) && p.view > chain.top && chain.insert(p)
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
        let floor = self.floor();
        if self.is_leader(view) && self.new_views.record(floor, view, BlockId::GENESIS, voter) {
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
        self.set_view(self.view.next());
        self.arm(fx);
        let (floor, view) = (self.floor(), self.view);
        if !self.is_leader(view) {
            self.send_new_view(high_qc_view, fx);
        } else if self
            .new_views
            .record(floor, view, BlockId::GENESIS, self.me)
        {
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

    /// Open prepare and commit tallies.
    pub(crate) fn tallies(&self) -> usize {
        self.prepares.len() + self.commits.len()
    }

    /// Tallies a prepare, unless `view` is below `floor`; `true` if it
    /// completed the prepare quorum *and* this replica's own `Commit` (sent
    /// with `instance`) the commit quorum.
    pub(crate) fn prepare(
        &mut self,
        floor: View,
        view: View,
        block: BlockId,
        voter: ReplicaId,
        instance: ReplicaId,
        fx: &mut CEffects,
    ) -> bool {
        if !self.prepares.record(floor, view, block, voter) {
            return false;
        }
        let voter = self.me;
        fx.broadcast(ConsensusMsg::Commit {
            view,
            block,
            voter,
            instance,
        });
        self.commit(floor, view, block, voter)
    }

    /// Tallies a commit vote, unless `view` is below `floor`; `true`
    /// exactly once, at the quorum.
    pub(crate) fn commit(
        &mut self,
        floor: View,
        view: View,
        block: BlockId,
        voter: ReplicaId,
    ) -> bool {
        self.commits.record(floor, view, block, voter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::CDest;

    /// A chain of empty blocks, one a view from view 1 on; `parent` of the
    /// first is genesis.
    fn blocks(count: u64) -> Vec<Proposal> {
        let mut parent = BlockId::GENESIS;
        (1..=count)
            .map(|v| {
                let p = Proposal::new(View(v), v, parent, ReplicaId(0), Payload::Empty, true);
                parent = p.id;
                p
            })
            .collect()
    }

    fn committed(fx: &CEffects) -> Vec<BlockId> {
        fx.events
            .iter()
            .map(|e| match e {
                CEvent::Committed { proposal } => proposal.id,
                other => panic!("unexpected event {other:?}"),
            })
            .collect()
    }

    #[test]
    fn the_chain_keeps_a_tail_below_the_commit_tip_and_counts_everything() {
        let (mut chain, blocks) = (Chain::default(), blocks(100));
        let mut fx = CEffects::none();
        for p in &blocks {
            assert!(chain.insert(p));
            chain.commit_through(p.id, &mut fx);
            assert!(chain.len() as u64 <= KEPT_VIEWS + 1);
        }
        assert_eq!(
            committed(&fx),
            blocks.iter().map(|p| p.id).collect::<Vec<_>>()
        );
        assert_eq!(chain.committed_count(), 100);
        // Views 84 ..= 100 are held, committed; what lies below is gone.
        assert!(chain.get(&blocks[83].id).is_some() && chain.is_committed(&blocks[83].id));
        assert!(chain.get(&blocks[82].id).is_none() && !chain.is_committed(&blocks[82].id));
    }

    #[test]
    fn a_committed_block_hands_its_payload_on_and_keeps_its_header() {
        use smp_types::{ClientId, Transaction};
        let tx = Transaction::synthetic(ClientId(0), 0, 64, 0);
        let full = Payload::inline(vec![tx]);
        let p = Proposal::new(View(1), 1, BlockId::GENESIS, ReplicaId(0), full, true);
        let (mut chain, mut fx) = (Chain::default(), CEffects::none());
        chain.insert(&p);
        assert!(chain.commit(&p.id, &mut fx));
        assert!(matches!(&fx.events[..], [CEvent::Committed { proposal }] if *proposal == p));
        let held = chain.get(&p.id).unwrap();
        assert_eq!((held.id, held.view, held.parent), (p.id, p.view, p.parent));
        assert!(held.payload.is_empty());
    }

    #[test]
    fn the_chain_is_idle_while_no_held_block_has_a_payload_left_to_commit() {
        use smp_types::{ClientId, Transaction};
        let full = |seq| Payload::inline(vec![Transaction::synthetic(ClientId(0), seq, 64, 0)]);
        let block = |view: u64, parent, payload| {
            Proposal::new(View(view), view, parent, ReplicaId(0), payload, true)
        };
        let (mut chain, mut fx) = (Chain::default(), CEffects::none());
        assert!(chain.idle());
        // Empty blocks never make it busy.
        let empty = block(1, BlockId::GENESIS, Payload::Empty);
        chain.insert(&empty);
        assert!(chain.idle());
        // Two loaded blocks: busy until both commit, and a repeated insert
        // counts nothing.
        let a = block(2, empty.id, full(0));
        let b = block(3, a.id, full(1));
        for p in [&a, &b, &a] {
            chain.insert(p);
        }
        assert!(!chain.idle());
        chain.commit_through(a.id, &mut fx);
        assert!(!chain.idle());
        assert!(chain.commit(&b.id, &mut fx));
        assert!(chain.idle());
        // A loaded block that never commits stops counting once it drops
        // below the floor.
        let orphan = block(4, b.id, full(2));
        chain.insert(&orphan);
        assert!(!chain.idle());
        let mut parent = b.id;
        for v in 5..=4 + KEPT_VIEWS {
            let p = block(v, parent, Payload::Empty);
            chain.insert(&p);
            chain.commit(&p.id, &mut fx);
            parent = p.id;
        }
        assert!(chain.get(&orphan.id).is_some() && !chain.idle());
        let p = block(5 + KEPT_VIEWS, parent, Payload::Empty);
        chain.insert(&p);
        chain.commit(&p.id, &mut fx);
        assert!(chain.get(&orphan.id).is_none() && chain.idle());
    }

    #[test]
    fn a_block_that_left_the_chain_cannot_commit_again() {
        let (mut chain, blocks) = (Chain::default(), blocks(40));
        let mut fx = CEffects::none();
        for p in &blocks {
            chain.insert(p);
        }
        chain.commit_through(blocks[39].id, &mut fx);
        assert_eq!(committed(&fx).len(), 40);
        let mut fx = CEffects::none();
        // Replayed, the old blocks are refused; a commit quorum for one (PBFT,
        // MirBFT) finds nothing, and a walk from the tip (HotStuff,
        // Streamlet) stops at the held, committed tail.
        for p in &blocks[..23] {
            assert!(!chain.insert(p), "view {} is below the floor", p.view.0);
            assert!(!chain.commit(&p.id, &mut fx));
        }
        chain.commit_through(blocks[39].id, &mut fx);
        chain.commit_through(blocks[5].id, &mut fx);
        // Nor does a held, committed one commit twice.
        assert!(!chain.commit(&blocks[30].id, &mut fx));
        assert!(fx.events.is_empty());
        assert_eq!(chain.committed_count(), 40);
    }

    #[test]
    fn uncommitted_blocks_below_the_kept_tail_go_with_it() {
        let (mut chain, blocks) = (Chain::default(), blocks(60));
        // An orphan of view 3: a sibling of the main chain's third block.
        let orphan = Proposal::new(View(3), 3, blocks[1].id, ReplicaId(1), Payload::Empty, true);
        let mut fx = CEffects::none();
        chain.insert(&orphan);
        for p in &blocks[..10] {
            chain.insert(p);
        }
        chain.commit_through(blocks[9].id, &mut fx);
        assert!(
            chain.get(&orphan.id).is_some(),
            "inside the tail of view 10"
        );
        for p in &blocks[10..] {
            chain.insert(p);
        }
        chain.commit_through(blocks[59].id, &mut fx);
        assert!(chain.get(&orphan.id).is_none());
        assert_eq!(chain.len() as u64, KEPT_VIEWS + 1);
    }

    #[test]
    fn a_late_proposal_is_admitted_unless_a_block_of_a_later_view_committed() {
        let pm = {
            let mut pm = Pacemaker::new(&SystemConfig::new(4), ReplicaId(0), 0);
            pm.enter(View(10), &mut CEffects::none());
            pm
        };
        let by = |view: u64, proposer: u32| {
            let proposer = ReplicaId(proposer);
            Proposal::new(
                View(view),
                view,
                BlockId::GENESIS,
                proposer,
                Payload::Empty,
                true,
            )
        };
        let by_leader = |view: u64| by(view, View(view).leader(4).0);
        let mut chain = Chain::default();
        // Five views behind, from its leader: kept, once.
        assert!(pm.admit(&mut chain, &by_leader(5)));
        assert!(!pm.admit(&mut chain, &by_leader(5)));
        // Not from its view's leader.
        assert!(!pm.admit(&mut chain, &by(6, 0)));
        // Once view 7 committed, a block of view 7 or below could only
        // commit after it: refused.  A later one is still kept.
        assert!(pm.admit(&mut chain, &by_leader(7)));
        assert!(chain.commit(&by_leader(7).id, &mut CEffects::none()));
        assert!(!pm.admit(&mut chain, &by_leader(6)));
        assert!(pm.admit(&mut chain, &by_leader(8)));
    }

    #[test]
    fn the_pacemaker_forgets_and_refuses_views_below_its_floor() {
        let config = SystemConfig::new(4);
        // Replica 1 leads views 1, 5, 9, ...
        let mut pm = Pacemaker::new(&config, ReplicaId(1), 0);
        let mut fx = CEffects::none();
        for v in (1..=101).step_by(4) {
            pm.enter(View(v), &mut fx);
            pm.request_payload_if_leader(View(v), &mut fx);
            assert!(pm.claim_proposal(View(v)));
            assert!(pm.proposed_in.len() as u64 <= KEPT_VIEWS / 4 + 1);
            assert!(pm.payload_requested_for.len() as u64 <= KEPT_VIEWS / 4 + 1);
        }
        let asked = |fx: &CEffects| {
            let need = |e: &&CEvent| matches!(e, CEvent::NeedPayload { .. });
            fx.events.iter().filter(need).count()
        };
        assert_eq!(asked(&fx), 26);
        // A payload for a view long left is not asked for again, and a
        // `NewView` quorum there — fired once, forgotten since — does not
        // form a second time.
        pm.request_payload_if_leader(View(5), &mut fx);
        for voter in 0..4 {
            pm.on_new_view(View(9), ReplicaId(voter), &mut fx);
        }
        assert_eq!(asked(&fx), 26);
        assert_eq!(pm.tallies(), 0);
        assert_eq!(pm.view, View(101));
    }

    /// The views each `NeedPayload` in `fx` asks for.
    fn payload_views(fx: &CEffects) -> Vec<View> {
        let view = |e: &CEvent| match e {
            CEvent::NeedPayload { view, .. } => Some(*view),
            _ => None,
        };
        fx.events.iter().filter_map(view).collect()
    }

    #[test]
    fn a_late_quorum_for_a_view_already_left_asks_for_no_payload() {
        // Replica 1 leads views 1, 5, 9, 13, ...; a quorum is 3 of 4.
        let mut pm = Pacemaker::new(&SystemConfig::new(4), ReplicaId(1), 0);
        let mut fx = CEffects::none();
        pm.enter(View(10), &mut fx);
        // A vote quorum of view 8, which makes this replica the leader of
        // view 9: HotStuff enters view 9 (a no-op, it is past it) and asks.
        pm.enter(View(9), &mut fx);
        pm.request_payload_if_leader(View(9), &mut fx);
        // A `NewView` quorum for view 9.
        for voter in 0..4 {
            pm.on_new_view(View(9), ReplicaId(voter), &mut fx);
        }
        assert_eq!(payload_views(&fx), []);
        assert_eq!(pm.view, View(10));
        // The same quorum for a view ahead enters it and asks, once.
        for voter in 0..4 {
            pm.on_new_view(View(13), ReplicaId(voter), &mut fx);
        }
        pm.request_payload_if_leader(View(13), &mut fx);
        assert_eq!(payload_views(&fx), [View(13)]);
        assert_eq!(pm.view, View(13));
    }

    /// Preserved defect (ROADMAP: view synchronisation): a `NewView` goes
    /// only to the next leader and a timeout moves a replica on by one
    /// view, so when the replicas straddle two adjacent views with their
    /// timers in phase, every leader collects its quorum only once it has
    /// left the view, and nobody proposes until the timers drift apart.
    #[test]
    fn replicas_straddling_two_views_in_phase_never_form_a_new_view_quorum() {
        const N: usize = 16;
        let config = SystemConfig::new(N);
        let u = 20;
        // The ten replicas ahead, in view u + 1, lead views u + 1 ..= u + 10;
        // the six behind, in view u, lead the rest.
        let ahead = |r: usize| (1..=10).any(|k| View(u + k).leader(N).0 as usize == r);
        let mut pms: Vec<Pacemaker> = (0..N)
            .map(|r| {
                let mut pm = Pacemaker::new(&config, ReplicaId(r as u32), 0);
                pm.enter(
                    View(if ahead(r) { u + 1 } else { u }),
                    &mut CEffects::none(),
                );
                pm
            })
            .collect();
        assert_eq!((0..N).filter(|r| ahead(*r)).count(), 10);
        let mut asked = Vec::new();
        for _round in 0..3 {
            // Every view timer fires at once; then every `NewView` lands.
            let mut sent = Vec::new();
            for pm in &mut pms {
                let mut fx = CEffects::none();
                let tag = pm.view.0;
                pm.on_timer(tag, View(0), &mut fx);
                asked.extend(payload_views(&fx));
                sent.extend(fx.msgs);
            }
            for (dest, msg) in sent {
                let (CDest::One(to), ConsensusMsg::NewView { view, voter, .. }) = (dest, msg)
                else {
                    panic!("a timeout sends one `NewView` to the next leader");
                };
                let mut fx = CEffects::none();
                pms[to.0 as usize].on_new_view(view, voter, &mut fx);
                asked.extend(payload_views(&fx));
            }
        }
        assert_eq!(asked, [], "no leader proposes");
        for (r, pm) in pms.iter().enumerate() {
            let expected = if ahead(r) { u + 4 } else { u + 3 };
            assert_eq!(
                pm.view,
                View(expected),
                "replica {r} moved by its timer only"
            );
        }
    }
}
