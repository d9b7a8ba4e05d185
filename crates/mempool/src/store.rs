//! Microblock storage, the commit frontier and proposal fill tracking.
//!
//! Every shared-mempool variant needs the same pieces of bookkeeping:
//!
//! * a content-addressed store of microblocks received and not yet
//!   retired ([`MicroblockStore`]),
//! * the commit frontier ([`Retired`]): which microblocks have executed
//!   here, and
//! * a tracker of proposals whose referenced microblocks are not all
//!   locally available yet ([`FillTracker`]) — when the last missing
//!   microblock arrives, the tracker emits `ProposalReady` (if consensus
//!   was blocked on it) and/or `Executed` (if the proposal had already
//!   committed and was waiting for data before execution).
//!
//! # The retire rule
//!
//! State about a microblock ends one `δ` (the fetch retry period the core
//! already holds) after the microblock *executes* at this replica: its body
//! leaves the store, and the backend drops whatever it kept for the id.
//! Execution needs the body, so a body that arrives after its commit is
//! held for `δ` from its arrival.  What stays is the id's first 64-bit word
//! in [`Retired`], so that a late proof, reference or copy of the body is
//! recognised and dropped instead of being stored, queued or fetched anew.
//! Eight bytes are enough because ids are digests: two of the `N` ids a
//! replica ever retires share a first word with probability `≈ N² / 2⁶⁵`
//! (`10⁻⁴` after 10⁸ microblocks), and the cost of a collision is one
//! microblock this replica will not propose itself.  The words are the one
//! thing that grows with the length of a run — 8 bytes a microblock where
//! everything else was ≈ 400; a per-creator sequence watermark would make
//! them `O(n)` and is left open.

use crate::api::MempoolEvent;
use smp_crypto::{DigestMap, DigestSet};
use smp_types::{BlockId, Microblock, MicroblockId, Payload, Proposal, SimTime};
use std::collections::{BTreeSet, VecDeque};

/// Content-addressed store of the microblocks held: received, and not yet
/// retired.
#[derive(Clone, Debug, Default)]
pub struct MicroblockStore {
    mbs: DigestMap<MicroblockId, Microblock>,
}

impl MicroblockStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        MicroblockStore {
            mbs: DigestMap::default(),
        }
    }

    /// Inserts a microblock; returns `true` if it was not already present.
    pub fn insert(&mut self, mb: Microblock) -> bool {
        use std::collections::hash_map::Entry;
        match self.mbs.entry(mb.id) {
            Entry::Occupied(_) => false,
            Entry::Vacant(v) => {
                v.insert(mb);
                true
            }
        }
    }

    /// Looks up a microblock.
    pub fn get(&self, id: &MicroblockId) -> Option<&Microblock> {
        self.mbs.get(id)
    }

    /// Whether the store holds `id`.
    pub fn contains(&self, id: &MicroblockId) -> bool {
        self.mbs.contains_key(id)
    }

    /// Removes a microblock (it retired).
    pub fn remove(&mut self, id: &MicroblockId) -> Option<Microblock> {
        self.mbs.remove(id)
    }

    /// Number of stored microblocks.
    pub fn len(&self) -> usize {
        self.mbs.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.mbs.is_empty()
    }

    /// First-reception times of every transaction in the listed
    /// microblocks that is locally available.
    pub fn receive_times(&self, ids: impl IntoIterator<Item = MicroblockId>) -> Vec<SimTime> {
        let mut out = Vec::new();
        for id in ids {
            if let Some(mb) = self.get(&id) {
                out.extend_from_slice(mb.receive_times());
            }
        }
        out
    }
}

/// The commit frontier of one replica: the first id word of every
/// microblock that has executed here (see the module docs for the rule),
/// and the ids executed since the core last took them.
#[derive(Clone, Debug, Default)]
pub struct Retired {
    words: DigestSet<u64>,
    /// In execution order; the core puts their retire step `δ` ahead.
    executed: Vec<MicroblockId>,
}

impl Retired {
    /// Whether `id` has executed here.
    pub fn contains(&self, id: &MicroblockId) -> bool {
        self.words.contains(&id.digest().short())
    }

    /// Records that `id` executes; `false` if it had before.
    pub fn execute(&mut self, id: MicroblockId) -> bool {
        let first = self.words.insert(id.digest().short());
        if first {
            self.executed.push(id);
        }
        first
    }

    /// The ids that executed since the last call, in execution order.
    pub fn take_executed(&mut self) -> Vec<MicroblockId> {
        std::mem::take(&mut self.executed)
    }

    /// Number of microblocks that have executed here.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether nothing has executed here yet.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

/// A FIFO of microblock ids eligible for inclusion in a future proposal —
/// the paper's `avaQue`.
#[derive(Clone, Debug, Default)]
pub struct ProposalQueue {
    /// Ids in arrival order; one that is no longer in `members` is a
    /// tombstone, skipped by `pop` and swept by `remove`.
    queue: VecDeque<MicroblockId>,
    members: BTreeSet<MicroblockId>,
}

impl ProposalQueue {
    /// Tombstones tolerated before the first sweep.
    const SLACK: usize = 32;

    /// Creates an empty queue.
    pub fn new() -> Self {
        ProposalQueue::default()
    }

    /// Pushes an id if not already queued.
    pub fn push(&mut self, id: MicroblockId) {
        if self.members.insert(id) {
            self.queue.push_back(id);
        }
    }

    /// Pops the oldest id.
    pub fn pop(&mut self) -> Option<MicroblockId> {
        while let Some(id) = self.queue.pop_front() {
            if self.members.remove(&id) {
                return Some(id);
            }
        }
        None
    }

    /// Removes an id wherever it is in the queue (e.g. it was proposed by
    /// another leader).  It stays in the `VecDeque` as a tombstone; once
    /// tombstones outnumber members they are swept, so the slots stay within
    /// `2 × members + 32` at an amortised `O(1)` a removal.
    pub fn remove(&mut self, id: &MicroblockId) {
        if self.members.remove(id) && self.queue.len() > 2 * self.members.len() + Self::SLACK {
            let members = &self.members;
            self.queue.retain(|queued| members.contains(queued));
        }
    }

    /// Slots in use: members plus tombstones.
    pub fn slots(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue currently contains `id`.
    pub fn contains(&self, id: &MicroblockId) -> bool {
        self.members.contains(id)
    }

    /// Number of queued ids.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

#[derive(Clone, Debug)]
struct PendingProposal {
    missing: BTreeSet<MicroblockId>,
    /// Every reference of the proposal with its transaction count.
    refs: Vec<(MicroblockId, u32)>,
    /// Consensus is blocked waiting for this proposal (`MustWait`).
    awaiting_ready: bool,
    /// The proposal has committed and will be executed once full.
    committed: bool,
}

/// Tracks proposals whose referenced microblocks are not yet all local.
#[derive(Clone, Debug, Default)]
pub struct FillTracker {
    pending: DigestMap<BlockId, PendingProposal>,
    executed: u64,
}

impl FillTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        FillTracker::default()
    }

    /// Number of proposals executed through this tracker.
    pub fn executed_count(&self) -> u64 {
        self.executed
    }

    /// Registers an incoming proposal.  `missing` lists the referenced
    /// microblocks not currently in the store; `awaiting_ready` says
    /// whether consensus is blocked on them (best-effort mempools) or can
    /// proceed immediately (Stratus / Narwhal).
    pub fn track(&mut self, proposal: &Proposal, missing: Vec<MicroblockId>, awaiting_ready: bool) {
        if missing.is_empty() {
            return;
        }
        let refs = match &proposal.payload {
            Payload::Refs(refs) => refs.iter().map(|r| (r.id, r.tx_count)).collect(),
            _ => Vec::new(),
        };
        self.pending.insert(
            proposal.id,
            PendingProposal {
                missing: missing.into_iter().collect(),
                refs,
                awaiting_ready,
                committed: false,
            },
        );
    }

    /// Whether `proposal` is still waiting for data.
    pub fn is_pending(&self, proposal: &BlockId) -> bool {
        self.pending.contains_key(proposal)
    }

    /// Whether a committed proposal that still waits for data names `id`.
    pub fn commits(&self, id: &MicroblockId) -> bool {
        let names = |p: &PendingProposal| p.refs.iter().any(|(r, _)| r == id);
        self.pending.values().any(|p| p.committed && names(p))
    }

    /// Executes `refs` at `now`, each microblock once: the event counts the
    /// transactions and reception times of the references that execute for
    /// the first time at this replica, which `retired` remembers.
    fn execute(
        &mut self,
        proposal: BlockId,
        refs: impl IntoIterator<Item = (MicroblockId, u32)>,
        store: &MicroblockStore,
        retired: &mut Retired,
    ) -> MempoolEvent {
        self.executed += 1;
        let mut tx_count = 0;
        let first = refs
            .into_iter()
            .filter(|(id, _)| retired.execute(*id))
            .map(|(id, txs)| {
                tx_count += txs;
                id
            });
        let receive_times = store.receive_times(first);
        MempoolEvent::Executed {
            proposal,
            tx_count,
            receive_times,
        }
    }

    /// Records the arrival of a microblock; returns the notifications to
    /// emit (`ProposalReady` for proposals consensus was blocked on,
    /// `Executed` for committed proposals that just became full).
    pub fn on_microblock(
        &mut self,
        id: MicroblockId,
        store: &MicroblockStore,
        retired: &mut Retired,
    ) -> Vec<MempoolEvent> {
        let mut events = Vec::new();
        let mut completed = Vec::new();
        for (pid, pending) in self.pending.iter_mut() {
            if pending.missing.remove(&id) && pending.missing.is_empty() {
                completed.push(*pid);
            }
        }
        // The map iterates in a per-process random order; the events must not.
        completed.sort_unstable();
        for pid in completed {
            let pending = self
                .pending
                .remove(&pid)
                .expect("completed proposal is pending");
            if pending.awaiting_ready {
                events.push(MempoolEvent::ProposalReady { proposal: pid });
            }
            if pending.committed {
                events.push(self.execute(pid, pending.refs, store, retired));
            }
        }
        events
    }

    /// Records that `proposal` committed.  If all of its data is local the
    /// `Executed` event is returned immediately; otherwise execution is
    /// deferred until the last missing microblock arrives.
    pub fn on_commit(
        &mut self,
        proposal: &Proposal,
        store: &MicroblockStore,
        retired: &mut Retired,
    ) -> Vec<MempoolEvent> {
        match &proposal.payload {
            Payload::Refs(refs) => {
                if let Some(pending) = self.pending.get_mut(&proposal.id) {
                    pending.committed = true;
                    return Vec::new();
                }
                let refs = refs.iter().map(|r| (r.id, r.tx_count));
                vec![self.execute(proposal.id, refs, store, retired)]
            }
            Payload::Inline(txs) => {
                self.executed += 1;
                vec![MempoolEvent::Executed {
                    proposal: proposal.id,
                    tx_count: txs.len() as u32,
                    receive_times: txs.iter().filter_map(|t| t.received_at).collect(),
                }]
            }
            // Sharded payloads are split into per-shard groups before any
            // backend commits them, so a whole sharded payload carries no
            // locally attributable transactions at this layer.
            Payload::Empty | Payload::Sharded(_) => {
                self.executed += 1;
                vec![MempoolEvent::Executed {
                    proposal: proposal.id,
                    tx_count: 0,
                    receive_times: Vec::new(),
                }]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smp_types::{ClientId, MicroblockRef, ReplicaId, Transaction, View};

    fn mb(creator: u32, base: u64, n: usize) -> Microblock {
        let txs: Vec<Transaction> = (0..n)
            .map(|i| {
                let mut t = Transaction::synthetic(ClientId(creator), base + i as u64, 128, 0);
                t.mark_received(ReplicaId(creator), 10 + i as u64);
                t
            })
            .collect();
        Microblock::seal(ReplicaId(creator), txs, 0)
    }

    fn refs_proposal(mbs: &[&Microblock]) -> Proposal {
        refs_proposal_in(View(1), mbs)
    }

    fn refs_proposal_in(view: View, mbs: &[&Microblock]) -> Proposal {
        let refs = mbs
            .iter()
            .map(|m| MicroblockRef::unproven(m.id, m.creator, m.len() as u32))
            .collect();
        Proposal::new(
            view,
            1,
            BlockId::GENESIS,
            ReplicaId(0),
            Payload::Refs(refs),
            true,
        )
    }

    #[test]
    fn receive_times_are_the_stamps_of_the_held_transactions() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..50 {
            let mut store = MicroblockStore::new();
            let mut ids = Vec::new();
            for creator in 0..rng.gen_range(1..8u32) {
                let txs: Vec<Transaction> = (0..rng.gen_range(0..20u64))
                    .map(|seq| {
                        let mut t = Transaction::synthetic(ClientId(creator), seq, 128, 0);
                        if rng.gen_bool(0.7) {
                            t.mark_received(ReplicaId(creator), rng.gen_range(0..1_000));
                        }
                        t
                    })
                    .collect();
                let m = Microblock::seal(ReplicaId(creator), txs, 0);
                ids.push(m.id);
                if rng.gen_bool(0.8) {
                    store.insert(m);
                }
            }
            // Ask in a random order, with repeats and unknown ids.
            let asked: Vec<MicroblockId> = (0..rng.gen_range(0..12))
                .map(|_| match rng.gen_range(0..=ids.len()) {
                    i if i < ids.len() => ids[i],
                    _ => mb(99, 0, 1).id,
                })
                .collect();
            let expected: Vec<SimTime> = asked
                .iter()
                .filter_map(|id| store.get(id))
                .flat_map(|m| m.txs.iter().filter_map(|t| t.received_at))
                .collect();
            assert_eq!(store.receive_times(asked), expected);
        }
    }

    #[test]
    fn store_deduplicates() {
        let mut store = MicroblockStore::new();
        let m = mb(0, 0, 3);
        assert!(store.insert(m.clone()));
        assert!(!store.insert(m.clone()));
        assert_eq!(store.len(), 1);
        assert!(store.contains(&m.id));
        assert_eq!(store.receive_times([m.id]).len(), 3);
        assert!(store.remove(&m.id).is_some());
        assert!(store.is_empty());
    }

    #[test]
    fn proposal_queue_dedups_and_skips_removed() {
        let mut q = ProposalQueue::new();
        let a = mb(0, 0, 1).id;
        let b = mb(0, 10, 1).id;
        q.push(a);
        q.push(a);
        q.push(b);
        assert_eq!(q.len(), 2);
        q.remove(&a);
        assert_eq!(q.pop(), Some(b));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn tracker_emits_ready_when_last_missing_arrives() {
        let mut store = MicroblockStore::new();
        let m1 = mb(1, 0, 2);
        let m2 = mb(2, 100, 3);
        store.insert(m1.clone());
        let p = refs_proposal(&[&m1, &m2]);
        let mut tracker = FillTracker::new();
        let mut retired = Retired::default();
        tracker.track(&p, vec![m2.id], true);
        assert!(tracker.is_pending(&p.id));
        store.insert(m2.clone());
        let events = tracker.on_microblock(m2.id, &store, &mut retired);
        assert_eq!(events, vec![MempoolEvent::ProposalReady { proposal: p.id }]);
        assert!(!tracker.is_pending(&p.id));
    }

    #[test]
    fn tracker_defers_execution_until_full() {
        let mut store = MicroblockStore::new();
        let m1 = mb(1, 0, 2);
        let m2 = mb(2, 100, 3);
        store.insert(m1.clone());
        let p = refs_proposal(&[&m1, &m2]);
        let mut tracker = FillTracker::new();
        let mut retired = Retired::default();
        tracker.track(&p, vec![m2.id], false);
        // Commit arrives while data is still missing: execution deferred.
        assert!(tracker.on_commit(&p, &store, &mut retired).is_empty());
        store.insert(m2.clone());
        let events = tracker.on_microblock(m2.id, &store, &mut retired);
        assert_eq!(events.len(), 1);
        match &events[0] {
            MempoolEvent::Executed {
                tx_count,
                receive_times,
                ..
            } => {
                assert_eq!(*tx_count, 5);
                assert_eq!(receive_times.len(), 5);
            }
            other => panic!("unexpected event {other:?}"),
        }
        assert_eq!(tracker.executed_count(), 1);
    }

    #[test]
    fn commit_with_all_data_executes_immediately() {
        let mut store = MicroblockStore::new();
        let m1 = mb(1, 0, 4);
        store.insert(m1.clone());
        let p = refs_proposal(&[&m1]);
        let mut tracker = FillTracker::new();
        let mut retired = Retired::default();
        let events = tracker.on_commit(&p, &store, &mut retired);
        assert_eq!(events.len(), 1);
        match &events[0] {
            MempoolEvent::Executed { tx_count, .. } => assert_eq!(*tx_count, 4),
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn inline_and_empty_payloads_execute_directly() {
        let store = MicroblockStore::new();
        let mut tracker = FillTracker::new();
        let mut retired = Retired::default();
        let txs: Vec<Transaction> = (0..3)
            .map(|i| {
                let mut t = Transaction::synthetic(ClientId(0), i, 128, 0);
                t.mark_received(ReplicaId(0), 5);
                t
            })
            .collect();
        let inline = Proposal::new(
            View(1),
            1,
            BlockId::GENESIS,
            ReplicaId(0),
            Payload::inline(txs),
            true,
        );
        let events = tracker.on_commit(&inline, &store, &mut retired);
        match &events[0] {
            MempoolEvent::Executed {
                tx_count,
                receive_times,
                ..
            } => {
                assert_eq!(*tx_count, 3);
                assert_eq!(receive_times.len(), 3);
            }
            other => panic!("unexpected event {other:?}"),
        }
        let empty = Proposal::new(
            View(2),
            2,
            BlockId::GENESIS,
            ReplicaId(0),
            Payload::Empty,
            true,
        );
        let events = tracker.on_commit(&empty, &store, &mut retired);
        match &events[0] {
            MempoolEvent::Executed { tx_count, .. } => assert_eq!(*tx_count, 0),
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn proposals_completed_by_one_microblock_finish_in_block_id_order() {
        // Every `HashMap` hashes with its own keys, so an order taken from
        // the map's iteration differs from tracker to tracker.
        let mut store = MicroblockStore::new();
        let m = mb(1, 0, 2);
        let proposals: Vec<Proposal> = (1..=16).map(|v| refs_proposal_in(View(v), &[&m])).collect();
        let mut sorted: Vec<BlockId> = proposals.iter().map(|p| p.id).collect();
        sorted.sort_unstable();
        store.insert(m.clone());
        for _ in 0..4 {
            let mut tracker = FillTracker::new();
            let mut retired = Retired::default();
            for p in &proposals {
                tracker.track(p, vec![m.id], true);
            }
            let ready: Vec<BlockId> = tracker
                .on_microblock(m.id, &store, &mut retired)
                .into_iter()
                .map(|e| match e {
                    MempoolEvent::ProposalReady { proposal } => proposal,
                    other => panic!("unexpected event {other:?}"),
                })
                .collect();
            assert_eq!(ready, sorted);
        }
    }

    #[test]
    fn unrelated_microblock_does_not_complete_anything() {
        let mut store = MicroblockStore::new();
        let m1 = mb(1, 0, 2);
        let m2 = mb(2, 100, 3);
        let m3 = mb(3, 200, 1);
        store.insert(m1.clone());
        let p = refs_proposal(&[&m1, &m2]);
        let mut tracker = FillTracker::new();
        let mut retired = Retired::default();
        tracker.track(&p, vec![m2.id], true);
        store.insert(m3.clone());
        assert!(tracker
            .on_microblock(m3.id, &store, &mut retired)
            .is_empty());
        assert!(tracker.is_pending(&p.id));
    }

    fn executed(events: &[MempoolEvent]) -> (u32, usize) {
        match events {
            [MempoolEvent::Executed {
                tx_count,
                receive_times,
                ..
            }] => (*tx_count, receive_times.len()),
            other => panic!("unexpected events {other:?}"),
        }
    }

    #[test]
    fn a_reference_committed_twice_executes_once() {
        let mut store = MicroblockStore::new();
        let (m1, m2) = (mb(1, 0, 2), mb(2, 100, 3));
        store.insert(m1.clone());
        store.insert(m2.clone());
        let mut tracker = FillTracker::new();
        let mut retired = Retired::default();
        let first = refs_proposal_in(View(1), &[&m1]);
        let second = refs_proposal_in(View(2), &[&m1, &m2]);
        let again = refs_proposal_in(View(3), &[&m1, &m2]);
        assert_eq!(
            executed(&tracker.on_commit(&first, &store, &mut retired)),
            (2, 2)
        );
        // `m1` ran with the first proposal: the second orders `m2` only, and
        // a third that names nothing new executes with nothing to report.
        assert_eq!(
            executed(&tracker.on_commit(&second, &store, &mut retired)),
            (3, 3)
        );
        assert_eq!(
            executed(&tracker.on_commit(&again, &store, &mut retired)),
            (0, 0)
        );
        assert_eq!(tracker.executed_count(), 3);
        assert_eq!(retired.len(), 2);
    }

    #[test]
    fn executed_microblocks_are_taken_once_in_execution_order() {
        let mut retired = Retired::default();
        let (a, b) = (mb(0, 0, 1).id, mb(0, 10, 1).id);
        assert!(retired.is_empty() && !retired.contains(&a));
        assert!(retired.execute(a));
        assert!(!retired.execute(a), "once");
        assert!(retired.execute(b));
        assert!(retired.contains(&a) && retired.contains(&b));
        assert_eq!(retired.take_executed(), [a, b]);
        assert_eq!(retired.take_executed(), []);
        // Being taken does not un-retire an id.
        assert!(retired.contains(&a) && retired.len() == 2);
    }

    #[test]
    fn queue_slots_stay_within_twice_the_members_under_churn() {
        let mut q = ProposalQueue::new();
        let ids: Vec<MicroblockId> = (0..4_000).map(|i| mb(0, i * 10, 1).id).collect();
        for (i, id) in ids.iter().enumerate() {
            q.push(*id);
            // All but the ten newest are removed out of band (a proposal of
            // another leader named them): 3 990 tombstones in all.
            if i >= 10 {
                q.remove(&ids[i - 10]);
            }
            assert!(
                q.slots() <= 2 * q.len() + ProposalQueue::SLACK + 1,
                "{} slots for {} members",
                q.slots(),
                q.len()
            );
        }
        // What is left pops in push order, each id once.
        let popped: Vec<MicroblockId> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(popped, ids[ids.len() - 10..]);
        assert!(q.is_empty() && q.slots() == 0);
    }
}
