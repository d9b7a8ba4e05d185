//! Retry bookkeeping for fetching missing microblocks.
//!
//! Every shared-mempool variant needs to request microblocks it does not
//! have (from the leader, the creator, or the availability-proof signers)
//! and retry if the request is not answered within a timeout (the paper's
//! `PAB-Fetch` procedure re-invokes itself after `δ`).  [`FetchRetryState`]
//! owns that bookkeeping: it assigns timer tags, remembers which ids were
//! requested from which candidates, and on timeout reports which ids are
//! still missing together with the next candidate target to try.  The
//! caller says which ids are `settled` — held, or already retired (see
//! `store.rs`): the table itself never looks at the store, so a fetch of a
//! microblock that executed and left the store completes instead of being
//! re-requested every `δ` for ever.

use smp_types::{MicroblockId, ReplicaId, SimTime, MICROS_PER_MS};
use std::collections::HashMap;

/// The fetch retry period, the paper's `δ`: a missing microblock is
/// re-requested this long after the last request, and an executed one is
/// still served for this long (see `store.rs`).
pub const FETCH_TIMEOUT: SimTime = 500 * MICROS_PER_MS;

/// Base value for fetch timer tags (so they never collide with the batch
/// timer tag).
pub const FETCH_TAG_BASE: u64 = 0x4645_5443_0000_0000; // "FETC"

/// One outstanding fetch.
#[derive(Clone, Debug)]
struct FetchEntry {
    ids: Vec<MicroblockId>,
    candidates: Vec<ReplicaId>,
    next_candidate: usize,
}

/// Bookkeeping for outstanding fetches and their retries.
#[derive(Clone, Debug)]
pub struct FetchRetryState {
    entries: HashMap<u64, FetchEntry>,
    next_tag: u64,
    /// Retry period.
    pub timeout: SimTime,
    issued: u64,
}

/// A fetch action to perform now: ask `target` for `ids` and re-arm the
/// timer identified by `tag`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FetchAction {
    /// Replica to ask.
    pub target: ReplicaId,
    /// Microblocks to request.
    pub ids: Vec<MicroblockId>,
    /// Timer tag to re-arm with the retry timeout.
    pub tag: u64,
}

impl FetchRetryState {
    /// Creates an empty retry table with the given retry `timeout`.
    pub fn new(timeout: SimTime) -> Self {
        FetchRetryState {
            entries: HashMap::new(),
            next_tag: FETCH_TAG_BASE,
            timeout,
            issued: 0,
        }
    }

    /// Number of fetch requests issued so far (including retries).
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Number of outstanding fetch entries.
    pub fn outstanding(&self) -> usize {
        self.entries.len()
    }

    /// Whether `tag` belongs to this retry table.
    pub fn owns_tag(tag: u64) -> bool {
        tag >= FETCH_TAG_BASE
    }

    /// Registers a new fetch for `ids` with an ordered candidate target
    /// list, returning the action to perform immediately.
    pub fn register(&mut self, ids: Vec<MicroblockId>, candidates: Vec<ReplicaId>) -> FetchAction {
        assert!(
            !candidates.is_empty(),
            "fetch needs at least one candidate target"
        );
        let tag = self.next_tag;
        self.next_tag += 1;
        let target = candidates[0];
        let entry = FetchEntry {
            ids: ids.clone(),
            candidates,
            next_candidate: 1,
        };
        self.entries.insert(tag, entry);
        self.issued += 1;
        FetchAction { target, ids, tag }
    }

    /// Handles a retry timer.  Returns the next action if some of the ids
    /// are not `settled` yet, or `None` if the fetch is complete (the entry
    /// is dropped when complete).
    pub fn on_timer(
        &mut self,
        tag: u64,
        settled: impl Fn(&MicroblockId) -> bool,
    ) -> Option<FetchAction> {
        let entry = self.entries.get_mut(&tag)?;
        entry.ids.retain(|id| !settled(id));
        if entry.ids.is_empty() {
            self.entries.remove(&tag);
            return None;
        }
        let target = entry.candidates[entry.next_candidate % entry.candidates.len()];
        entry.next_candidate += 1;
        self.issued += 1;
        Some(FetchAction {
            target,
            ids: entry.ids.clone(),
            tag,
        })
    }

    /// Drops entries whose ids are all `settled` (called after a batch of
    /// arrivals to keep the table small).
    pub fn prune(&mut self, settled: impl Fn(&MicroblockId) -> bool) {
        self.entries.retain(|_, e| {
            e.ids.retain(|id| !settled(id));
            !e.ids.is_empty()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MicroblockStore;
    use smp_types::{ClientId, Microblock, Transaction};

    fn mb(creator: u32, seq: u64) -> Microblock {
        let txs = vec![Transaction::synthetic(ClientId(creator), seq, 128, 0)];
        Microblock::seal(ReplicaId(creator), txs, 0)
    }

    #[test]
    fn register_targets_first_candidate() {
        let mut f = FetchRetryState::new(1000);
        let a = mb(1, 0);
        let action = f.register(vec![a.id], vec![ReplicaId(3), ReplicaId(4)]);
        assert_eq!(action.target, ReplicaId(3));
        assert_eq!(action.ids, vec![a.id]);
        assert!(FetchRetryState::owns_tag(action.tag));
        assert_eq!(f.issued(), 1);
        assert_eq!(f.outstanding(), 1);
    }

    #[test]
    fn retry_rotates_candidates_until_satisfied() {
        let mut f = FetchRetryState::new(1000);
        let a = mb(1, 0);
        let mut store = MicroblockStore::new();
        let action = f.register(vec![a.id], vec![ReplicaId(3), ReplicaId(4)]);
        let retry = f
            .on_timer(action.tag, |id| store.contains(id))
            .expect("still missing");
        assert_eq!(retry.target, ReplicaId(4));
        let retry2 = f
            .on_timer(action.tag, |id| store.contains(id))
            .expect("still missing");
        assert_eq!(retry2.target, ReplicaId(3));
        store.insert(a.clone());
        assert!(f.on_timer(action.tag, |id| store.contains(id)).is_none());
        assert_eq!(f.outstanding(), 0);
    }

    #[test]
    fn unknown_tag_is_ignored() {
        let mut f = FetchRetryState::new(1000);
        let store = MicroblockStore::new();
        assert!(f.on_timer(12345, |id| store.contains(id)).is_none());
    }

    #[test]
    fn prune_drops_satisfied_entries() {
        let mut f = FetchRetryState::new(1000);
        let a = mb(1, 0);
        let b = mb(2, 0);
        let mut store = MicroblockStore::new();
        f.register(vec![a.id], vec![ReplicaId(1)]);
        f.register(vec![b.id], vec![ReplicaId(2)]);
        store.insert(a);
        f.prune(|id| store.contains(id));
        assert_eq!(f.outstanding(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn register_requires_candidates() {
        let mut f = FetchRetryState::new(1000);
        let _ = f.register(vec![mb(0, 0).id], vec![]);
    }
}
