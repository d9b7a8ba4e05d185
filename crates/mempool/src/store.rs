//! Microblock storage and proposal fill tracking.
//!
//! Every shared-mempool variant needs the same two pieces of bookkeeping:
//!
//! * a content-addressed store of microblocks received so far
//!   ([`MicroblockStore`]), and
//! * a tracker of proposals whose referenced microblocks are not all
//!   locally available yet ([`FillTracker`]) — when the last missing
//!   microblock arrives, the tracker emits `ProposalReady` (if consensus
//!   was blocked on it) and/or `Executed` (if the proposal had already
//!   committed and was waiting for data before execution).

use crate::api::MempoolEvent;
use smp_types::{BlockId, Microblock, MicroblockId, Payload, Proposal, SimTime};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Content-addressed store of microblocks.
#[derive(Clone, Debug, Default)]
pub struct MicroblockStore {
    mbs: HashMap<MicroblockId, Microblock>,
}

impl MicroblockStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        MicroblockStore {
            mbs: HashMap::new(),
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

    /// Removes a microblock (garbage collection after commit).
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
                out.extend(mb.txs.iter().filter_map(|t| t.received_at));
            }
        }
        out
    }
}

/// A FIFO of microblock ids eligible for inclusion in a future proposal —
/// the paper's `avaQue`.
#[derive(Clone, Debug, Default)]
pub struct ProposalQueue {
    queue: VecDeque<MicroblockId>,
    members: BTreeSet<MicroblockId>,
}

impl ProposalQueue {
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
    /// another leader).
    pub fn remove(&mut self, id: &MicroblockId) {
        self.members.remove(id);
        // The id stays in the VecDeque but is skipped by `pop`.
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
    all_refs: Vec<MicroblockId>,
    tx_count: u32,
    /// Consensus is blocked waiting for this proposal (`MustWait`).
    awaiting_ready: bool,
    /// The proposal has committed and will be executed once full.
    committed: bool,
}

/// Tracks proposals whose referenced microblocks are not yet all local.
#[derive(Clone, Debug, Default)]
pub struct FillTracker {
    pending: HashMap<BlockId, PendingProposal>,
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

    /// Number of proposals still waiting for data.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Registers an incoming proposal.  `missing` lists the referenced
    /// microblocks not currently in the store; `awaiting_ready` says
    /// whether consensus is blocked on them (best-effort mempools) or can
    /// proceed immediately (Stratus / Narwhal).
    pub fn track(&mut self, proposal: &Proposal, missing: Vec<MicroblockId>, awaiting_ready: bool) {
        if missing.is_empty() {
            return;
        }
        let (all_refs, tx_count) = match &proposal.payload {
            Payload::Refs(refs) => (
                refs.iter().map(|r| r.id).collect::<Vec<_>>(),
                refs.iter().map(|r| r.tx_count).sum(),
            ),
            _ => (Vec::new(), 0),
        };
        self.pending.insert(
            proposal.id,
            PendingProposal {
                missing: missing.into_iter().collect(),
                all_refs,
                tx_count,
                awaiting_ready,
                committed: false,
            },
        );
    }

    /// Whether `proposal` is still waiting for data.
    pub fn is_pending(&self, proposal: &BlockId) -> bool {
        self.pending.contains_key(proposal)
    }

    /// Records the arrival of a microblock; returns the notifications to
    /// emit (`ProposalReady` for proposals consensus was blocked on,
    /// `Executed` for committed proposals that just became full).
    pub fn on_microblock(
        &mut self,
        id: MicroblockId,
        store: &MicroblockStore,
        _now: SimTime,
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
                self.executed += 1;
                events.push(MempoolEvent::Executed {
                    proposal: pid,
                    tx_count: pending.tx_count,
                    receive_times: store.receive_times(pending.all_refs.iter().copied()),
                });
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
        _now: SimTime,
    ) -> Vec<MempoolEvent> {
        match &proposal.payload {
            Payload::Refs(refs) => {
                if let Some(pending) = self.pending.get_mut(&proposal.id) {
                    pending.committed = true;
                    return Vec::new();
                }
                self.executed += 1;
                let tx_count = refs.iter().map(|r| r.tx_count).sum();
                vec![MempoolEvent::Executed {
                    proposal: proposal.id,
                    tx_count,
                    receive_times: store.receive_times(refs.iter().map(|r| r.id)),
                }]
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
        tracker.track(&p, vec![m2.id], true);
        assert!(tracker.is_pending(&p.id));
        store.insert(m2.clone());
        let events = tracker.on_microblock(m2.id, &store, 50);
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
        tracker.track(&p, vec![m2.id], false);
        // Commit arrives while data is still missing: execution deferred.
        assert!(tracker.on_commit(&p, &store, 40).is_empty());
        store.insert(m2.clone());
        let events = tracker.on_microblock(m2.id, &store, 50);
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
        let events = tracker.on_commit(&p, &store, 99);
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
        let events = tracker.on_commit(&inline, &store, 10);
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
        let events = tracker.on_commit(&empty, &store, 10);
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
            for p in &proposals {
                tracker.track(p, vec![m.id], true);
            }
            let ready: Vec<BlockId> = tracker
                .on_microblock(m.id, &store, 50)
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
        tracker.track(&p, vec![m2.id], true);
        store.insert(m3.clone());
        assert!(tracker.on_microblock(m3.id, &store, 10).is_empty());
        assert!(tracker.is_pending(&p.id));
    }
}
