//! Deadlines and the fetch retry rule.
//!
//! The paper has one retry rule for the whole mempool: whatever is still
//! open `δ` later is asked for again (`PAB-Fetch` re-invokes itself after
//! `δ`, and so does the push phase).  [`Deadlines`] is the one structure
//! behind it: a table of entries ordered by due time, with one timer tag,
//! from which a mempool takes every entry that has come due when its timer
//! fires.  The dissemination core keeps one for its fetches and its retire
//! step; Stratus keeps a second for its pushes, DLB timeouts and limiter.
//!
//! A `Fetch` is one outstanding request for missing microblocks: which
//! ids are still wanted and whom to ask next.  The caller says which ids
//! are `settled` — held, or already retired (see `store.rs`): a fetch never
//! looks at the store itself, so one whose microblocks executed and left
//! the store completes instead of being re-requested every `δ` for ever.

use crate::api::{Effects, TimerTag};
use smp_types::{MicroblockId, ReplicaId, SimTime, MICROS_PER_MS};
use std::collections::BTreeMap;

/// The fetch retry period, the paper's `δ`: a missing microblock is
/// re-requested this long after the last request, and an executed one is
/// still served for this long (see `store.rs`).
pub const FETCH_TIMEOUT: SimTime = 500 * MICROS_PER_MS;

/// Entries that come due at given times, behind one timer tag.
///
/// Entries are ordered by `(due, insertion order)`.  The table arms a timer
/// only for an entry due before every timer it armed that has not fired
/// yet, so at most one timer stands for any stretch of entries; when one
/// fires, [`Deadlines::fire`] hands over every entry due by then and arms
/// the timer for the next entry if none stands for it.  An entry the owner
/// drops early ([`Deadlines::retain`]) leaves its timer to fire with
/// nothing due.
#[derive(Clone, Debug)]
pub struct Deadlines<K> {
    tag: TimerTag,
    entries: BTreeMap<(SimTime, u64), K>,
    inserted: u64,
    /// The due times of the timers armed and not fired yet, in arming
    /// order: each is earlier than the one before, so the last fires first.
    armed: Vec<SimTime>,
}

impl<K> Deadlines<K> {
    /// An empty table whose timer carries `tag`.
    pub fn new(tag: TimerTag) -> Self {
        Deadlines {
            tag,
            entries: BTreeMap::new(),
            inserted: 0,
            armed: Vec::new(),
        }
    }

    /// Adds `key`, due `delay` after `now`, arming the timer if nothing
    /// armed fires by then.
    pub fn insert<M>(&mut self, now: SimTime, delay: SimTime, key: K, effects: &mut Effects<M>) {
        let due = now + delay;
        self.entries.insert((due, self.inserted), key);
        self.inserted += 1;
        self.arm(now, due, effects);
    }

    fn arm<M>(&mut self, now: SimTime, due: SimTime, effects: &mut Effects<M>) {
        if self.armed.last().is_none_or(|first| due < *first) {
            effects.timer(due.saturating_sub(now), self.tag);
            self.armed.push(due);
        }
    }

    /// Keeps only the entries `keep` says yes to; it may update them.
    pub fn retain(&mut self, mut keep: impl FnMut(&mut K) -> bool) {
        self.entries.retain(|_, key| keep(key));
    }

    /// The entries, in due order.
    pub fn iter(&self) -> impl Iterator<Item = &K> {
        self.entries.values()
    }

    /// Handles timer `tag` firing at `now`: every entry due by `now`, in
    /// order, and the timer armed for the next one.  Another tag takes
    /// nothing.
    pub fn fire<M>(&mut self, tag: TimerTag, now: SimTime, effects: &mut Effects<M>) -> Vec<K> {
        if tag != self.tag {
            return Vec::new();
        }
        while self.armed.last().is_some_and(|due| *due <= now) {
            self.armed.pop();
        }
        let mut due = Vec::new();
        while let Some(entry) = self.entries.first_entry() {
            if entry.key().0 > now {
                let next = entry.key().0;
                self.arm(now, next, effects);
                break;
            }
            due.push(entry.remove());
        }
        due
    }
}

/// One outstanding fetch: the ids still wanted, and whom to ask, in turn.
#[derive(Clone, Debug)]
pub(crate) struct Fetch {
    ids: Vec<MicroblockId>,
    candidates: Vec<ReplicaId>,
    next_candidate: usize,
}

/// A fetch request to send now: ask `target` for `ids`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FetchAction {
    /// Replica to ask.
    pub target: ReplicaId,
    /// Microblocks to request.
    pub ids: Vec<MicroblockId>,
}

impl Fetch {
    /// A fetch of `ids` from an ordered candidate target list, and its
    /// first request, to the first candidate.
    pub fn register(ids: Vec<MicroblockId>, candidates: Vec<ReplicaId>) -> (Self, FetchAction) {
        assert!(
            !candidates.is_empty(),
            "fetch needs at least one candidate target"
        );
        let action = FetchAction {
            target: candidates[0],
            ids: ids.clone(),
        };
        let fetch = Fetch {
            ids,
            candidates,
            next_candidate: 1,
        };
        (fetch, action)
    }

    /// Whether `id` is one of the ids still wanted.
    pub fn wants(&self, id: &MicroblockId) -> bool {
        self.ids.contains(id)
    }

    /// Drops the `settled` ids; `false` once none is left.
    pub fn prune(&mut self, settled: impl Fn(&MicroblockId) -> bool) -> bool {
        self.ids.retain(|id| !settled(id));
        !self.ids.is_empty()
    }

    /// The retry, `δ` after the last request: the ids not `settled` yet
    /// from the next candidate, or `None` if the fetch is complete.
    pub fn retry(&mut self, settled: impl Fn(&MicroblockId) -> bool) -> Option<FetchAction> {
        if !self.prune(settled) {
            return None;
        }
        let target = self.candidates[self.next_candidate % self.candidates.len()];
        self.next_candidate += 1;
        Some(FetchAction {
            target,
            ids: self.ids.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MicroblockStore;
    use smp_types::{ClientId, Microblock, Transaction};

    const TAG: TimerTag = 7;

    fn mb(creator: u32, seq: u64) -> Microblock {
        let txs = vec![Transaction::synthetic(ClientId(creator), seq, 128, 0)];
        Microblock::seal(ReplicaId(creator), txs, 0)
    }

    type Table = Deadlines<&'static str>;

    /// Inserts `key` at `now`, due at `due`; the timers that armed.
    fn insert(
        table: &mut Table,
        now: SimTime,
        due: SimTime,
        key: &'static str,
    ) -> Vec<(SimTime, TimerTag)> {
        let mut fx: Effects<()> = Effects::none();
        table.insert(now, due - now, key, &mut fx);
        fx.timers
    }

    /// Fires the table's timer at `now`: the entries due, and the timers
    /// that armed.
    fn fire(table: &mut Table, now: SimTime) -> (Vec<&'static str>, Vec<(SimTime, TimerTag)>) {
        let mut fx: Effects<()> = Effects::none();
        let due = table.fire(TAG, now, &mut fx);
        (due, fx.timers)
    }

    #[test]
    fn one_timer_is_armed_for_the_earliest_entry() {
        let mut table = Deadlines::new(TAG);
        assert_eq!(insert(&mut table, 0, 100, "a"), [(100, TAG)]);
        // Due after the timer armed for `a`: it stands for them too.
        assert!(insert(&mut table, 10, 150, "b").is_empty());
        assert!(insert(&mut table, 20, 120, "c").is_empty());
        assert_eq!(fire(&mut table, 100), (vec!["a"], vec![(20, TAG)]));
        assert_eq!(fire(&mut table, 120), (vec!["c"], vec![(30, TAG)]));
        assert_eq!(fire(&mut table, 150), (vec!["b"], vec![]));
        assert_eq!(table.iter().count(), 0);
    }

    #[test]
    fn an_entry_inserted_later_but_due_earlier_arms_again() {
        let mut table = Deadlines::new(TAG);
        assert_eq!(insert(&mut table, 0, 500, "late"), [(500, TAG)]);
        assert_eq!(insert(&mut table, 10, 40, "early"), [(30, TAG)]);
        assert!(insert(&mut table, 20, 45, "between").is_empty());
        // The firing at 40 arms for `between`, which is due before the
        // timer still armed for 500; the one at 45 arms nothing more.
        assert_eq!(fire(&mut table, 40), (vec!["early"], vec![(5, TAG)]));
        assert_eq!(fire(&mut table, 45), (vec!["between"], vec![]));
        assert_eq!(fire(&mut table, 500), (vec!["late"], vec![]));
    }

    #[test]
    fn a_stale_firing_takes_nothing_and_arms_the_next_entry() {
        let mut table = Deadlines::new(TAG);
        assert_eq!(insert(&mut table, 0, 100, "done"), [(100, TAG)]);
        assert!(insert(&mut table, 0, 300, "open").is_empty());
        // The owner finished `done` before it came due.
        table.retain(|key| *key != "done");
        assert_eq!(fire(&mut table, 100), (vec![], vec![(200, TAG)]));
        assert_eq!(fire(&mut table, 300), (vec!["open"], vec![]));
    }

    #[test]
    fn entries_due_at_the_same_instant_come_out_in_insertion_order() {
        let mut table = Deadlines::new(TAG);
        assert_eq!(insert(&mut table, 0, 100, "first"), [(100, TAG)]);
        assert!(insert(&mut table, 0, 100, "second").is_empty());
        assert!(insert(&mut table, 0, 100, "third").is_empty());
        assert_eq!(insert(&mut table, 0, 99, "earlier"), [(99, TAG)]);
        // A restarted node fires its overdue timers late, all at once: the
        // first takes everything, the second nothing.
        assert_eq!(
            fire(&mut table, 1_000),
            (vec!["earlier", "first", "second", "third"], vec![])
        );
        assert_eq!(fire(&mut table, 1_000), (vec![], vec![]));
    }

    #[test]
    fn unknown_tag_is_ignored() {
        let mut table = Deadlines::new(TAG);
        insert(&mut table, 0, 100, "a");
        let mut fx: Effects<()> = Effects::none();
        assert!(table.fire(TAG + 1, 100, &mut fx).is_empty() && fx.is_empty());
        assert_eq!(fire(&mut table, 100).0, vec!["a"]);
    }

    #[test]
    fn register_targets_first_candidate() {
        let a = mb(1, 0);
        let (_, action) = Fetch::register(vec![a.id], vec![ReplicaId(3), ReplicaId(4)]);
        assert_eq!(action.target, ReplicaId(3));
        assert_eq!(action.ids, vec![a.id]);
    }

    #[test]
    fn retry_rotates_candidates_until_satisfied() {
        let a = mb(1, 0);
        let mut store = MicroblockStore::new();
        let (mut fetch, _) = Fetch::register(vec![a.id], vec![ReplicaId(3), ReplicaId(4)]);
        let retry = fetch.retry(|id| store.contains(id)).expect("still missing");
        assert_eq!(retry.target, ReplicaId(4));
        let retry2 = fetch.retry(|id| store.contains(id)).expect("still missing");
        assert_eq!(retry2.target, ReplicaId(3));
        store.insert(a.clone());
        assert!(fetch.retry(|id| store.contains(id)).is_none());
    }

    #[test]
    fn prune_drops_satisfied_entries() {
        let (a, b) = (mb(1, 0), mb(2, 0));
        let mut store = MicroblockStore::new();
        let mut table = Deadlines::new(TAG);
        let mut fx: Effects<()> = Effects::none();
        for (id, target) in [(a.id, 1), (b.id, 2)] {
            let (fetch, _) = Fetch::register(vec![id], vec![ReplicaId(target)]);
            table.insert(0, 100, fetch, &mut fx);
        }
        store.insert(a);
        table.retain(|f| f.prune(|id| store.contains(id)));
        assert_eq!(table.iter().count(), 1);
        // The pruned fetch sends nothing when the timer fires; the other is
        // retried.
        let due = table.fire(TAG, 100, &mut fx);
        let retries: Vec<_> = due
            .into_iter()
            .filter_map(|mut f| f.retry(|id| store.contains(id)))
            .collect();
        assert_eq!(retries.len(), 1);
        assert_eq!(retries[0].ids, vec![b.id]);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn register_requires_candidates() {
        let _ = Fetch::register(vec![mb(0, 0).id], vec![]);
    }
}
