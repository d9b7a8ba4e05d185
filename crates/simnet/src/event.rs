//! The event queue: a radix heap of 24-byte [`Key`]s over a slab of events.
//!
//! The scheduler only ever needs to order events, never to look inside
//! them, so what it moves is a [`Key`] — `(time, seq)` plus a handle to
//! the event — while the [`EventKind`] (and the message inside a
//! `Deliver`) sits still in a slab slot from [`EventQueue::push`] until
//! the one [`EventQueue::take`] that serves or drops it.  A delivery that
//! finds its receiver's CPU busy waits in that node's inbox as its bare
//! slot; one a delay burst puts back on the wire goes back into the queue
//! under a new `(time, seq)` through [`EventQueue::requeue`].
//!
//! A key's `slot` with its top bit set names no slot at all: the key is a
//! *CPU wake* for the node in the low bits, standing in the queue for that
//! node's whole inbox at the time its CPU frees up.  Wakes carry no data,
//! so they own no slab entry.
//!
//! # The radix heap
//!
//! Simulated time never runs backwards: every key is scheduled at or after
//! the time of the last pop.  A queue with that property can be a radix
//! heap (Ahuja, Mehlhorn, Orlin and Tarjan, "Faster algorithms for the
//! shortest path problem", JACM 1990) instead of a comparison heap.
//! Relative to the time of the last pop:
//!
//! * the *due* list holds the keys at exactly that time, in `seq` order;
//! * bucket `i` of 64 holds the later keys whose time first differs from
//!   it at bit `i`, so every key in a bucket is earlier than every key in
//!   the buckets above it.  A 64-bit occupancy mask finds the lowest
//!   non-empty bucket with one `trailing_zeros`.
//!
//! When the due list runs dry, the lowest bucket is emptied: the pop time
//! moves to its earliest key (each bucket tracks its minimum, which also
//! makes [`EventQueue::peek_time`] O(1) without moving anything), the keys
//! at that time become due and every other key drops to a bucket strictly
//! below — so no key moves more than 64 times.
//!
//! The pop order is exactly `(time, seq)`, ties included — the order of
//! the comparison heap this replaced, so every simulation is bit-identical
//! to it.  Times are exact because only the minimum is ever due.  Ties are
//! exact without a sort, because keys of one time never part or pass each
//! other: a key's place (due, or its bucket) is a function of its time and
//! the last pop, so all keys of one time share a place; a new key carries
//! the largest `seq` yet and goes to the back of its place; and a
//! redistribution moves a bucket's keys in order into the due list and
//! buckets below, all of them empty until then.  Each place thus holds the
//! keys of any one time in `seq` order, and the due list pops them in it.
//!
//! An emptied bucket keeps its buffer only if its capacity is at most
//! 1 024 keys: otherwise a burst would pin its high-water capacity in up to
//! 64 buckets for the rest of the run.

use smp_types::{ReplicaId, SimTime};
use std::cmp::Ordering;
use std::collections::VecDeque;

/// What an event does when it fires.
#[derive(Debug)]
pub enum EventKind<M> {
    /// A message arrives at `to`'s NIC (CPU queuing is applied afterwards).
    Deliver {
        /// Destination node.
        to: ReplicaId,
        /// Sending node, or `None` for external/client input.
        from: Option<ReplicaId>,
        /// The message.
        msg: M,
    },
    /// A timer set by `node` fires.
    Timer {
        /// Node that set the timer.
        node: ReplicaId,
        /// Application-defined tag.
        tag: u64,
    },
    /// The outbound link of `node` finished serializing a message and can
    /// start on the next queued one.
    LinkFree {
        /// Node whose link became free.
        node: ReplicaId,
    },
}

/// Set in [`Key::slot`] of a CPU wake; the low bits are then the node.
const WAKE_BIT: u32 = 1 << 31;

/// The largest buffer, in keys, that an emptied bucket keeps.
const KEPT_CAPACITY: usize = 1_024;

/// What the queue holds: when an event fires, and where it is.  Keys order
/// (and compare equal) by `(time, seq)` alone.
#[derive(Clone, Copy, Debug)]
pub struct Key {
    /// When the event fires.
    pub time: SimTime,
    /// Monotonic sequence number breaking ties deterministically.
    pub seq: u64,
    /// Slab slot of the event, or top bit + node for a CPU wake (see
    /// [`wake_node`](Self::wake_node)).
    pub slot: u32,
}

impl Key {
    /// The node whose inbox this key wakes, if it is a wake.
    pub fn wake_node(&self) -> Option<usize> {
        (self.slot & WAKE_BIT != 0).then_some((self.slot & !WAKE_BIT) as usize)
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A deterministic time-ordered event queue.  Every key must be scheduled
/// at or after the time of the last [`pop`](Self::pop).
#[derive(Debug)]
pub struct EventQueue<M> {
    /// The time of the last pop; no pending key is earlier.
    last: SimTime,
    /// The keys at exactly `last`, in `seq` order.
    due: VecDeque<Key>,
    /// `buckets[i]`: the keys after `last` whose time first differs from
    /// it at bit `i`.
    buckets: [Vec<Key>; 64],
    /// The earliest time in each non-empty bucket (`SimTime::MAX` in an
    /// empty one).
    mins: [SimTime; 64],
    /// Bit `i` set iff `buckets[i]` is non-empty.
    occupied: u64,
    /// The events the keys point at.  Freed slots are reused, so the slab
    /// grows to the peak number of events alive at once and no further.
    slab: Vec<Option<EventKind<M>>>,
    free: Vec<u32>,
    next_seq: u64,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

/// The bucket of a key at `time` relative to the last pop at `last`: the
/// highest bit in which the two differ.
fn bucket(last: SimTime, time: SimTime) -> usize {
    debug_assert!(time > last);
    63 - (time ^ last).leading_zeros() as usize
}

impl<M> EventQueue<M> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            last: 0,
            due: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            mins: [SimTime::MAX; 64],
            occupied: 0,
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedules `kind` to fire at `time`.
    pub fn push(&mut self, time: SimTime, kind: EventKind<M>) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(kind);
                slot
            }
            None => {
                let slot = self.slab.len() as u32;
                assert!(slot < WAKE_BIT, "event slab is full");
                self.slab.push(Some(kind));
                slot
            }
        };
        self.requeue(slot, time);
    }

    /// Schedules the event held in `slot` — fresh, or one whose key
    /// [`pop`](Self::pop) returned — to fire at `time`, after everything
    /// already scheduled for that time.  `time` must not precede the last
    /// pop.
    pub fn requeue(&mut self, slot: u32, time: SimTime) {
        debug_assert!(
            time >= self.last,
            "event scheduled at {time}, before the last pop at {}",
            self.last
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = Key { time, seq, slot };
        if time == self.last {
            self.due.push_back(key);
        } else {
            self.file(key);
        }
    }

    /// Puts a key later than `last` into its bucket.
    fn file(&mut self, key: Key) {
        let i = bucket(self.last, key.time);
        self.buckets[i].push(key);
        self.mins[i] = self.mins[i].min(key.time);
        self.occupied |= 1 << i;
    }

    /// Empties the lowest non-empty bucket, in order: `last` moves to its
    /// earliest time, whose keys become due, and the rest drop to lower
    /// buckets, which were empty.  Returns `false` if every bucket is empty.
    fn redistribute(&mut self) -> bool {
        if self.occupied == 0 {
            return false;
        }
        let i = self.occupied.trailing_zeros() as usize;
        let mut keys = std::mem::take(&mut self.buckets[i]);
        self.last = self.mins[i];
        self.mins[i] = SimTime::MAX;
        self.occupied &= !(1 << i);
        for key in keys.drain(..) {
            if key.time == self.last {
                self.due.push_back(key);
            } else {
                self.file(key);
            }
        }
        if keys.capacity() <= KEPT_CAPACITY {
            self.buckets[i] = keys;
        }
        true
    }

    /// Schedules a CPU wake for `node` at `time` and returns its `seq`.
    pub fn push_wake(&mut self, time: SimTime, node: usize) -> u64 {
        let seq = self.next_seq;
        self.requeue(WAKE_BIT | node as u32, time);
        seq
    }

    /// Pops the earliest key, if any.  Unless it is a wake, its event
    /// stays in its slot until [`take`](Self::take)n.
    pub fn pop(&mut self) -> Option<Key> {
        if self.due.is_empty() && !self.redistribute() {
            return None;
        }
        self.due.pop_front()
    }

    /// The event in `slot`.
    pub fn kind(&self, slot: u32) -> &EventKind<M> {
        self.slab[slot as usize]
            .as_ref()
            .expect("a live key points at an occupied slot")
    }

    /// Removes the event from `slot` and frees the slot for reuse.
    pub fn take(&mut self, slot: u32) -> EventKind<M> {
        let kind = self.slab[slot as usize]
            .take()
            .expect("a live key points at an occupied slot");
        self.free.push(slot);
        kind
    }

    /// Time of the earliest pending event.  Peeking moves nothing, so keys
    /// may still be scheduled before the peeked time (by a fault's
    /// handlers, which run between a peek and the next pop).
    pub fn peek_time(&self) -> Option<SimTime> {
        match self.due.front() {
            Some(key) => Some(key.time),
            None => {
                (self.occupied != 0).then(|| self.mins[self.occupied.trailing_zeros() as usize])
            }
        }
    }

    /// Number of pending keys, wakes included.
    pub fn len(&self) -> usize {
        self.due.len() + self.buckets.iter().map(Vec::len).sum::<usize>()
    }

    /// Whether no keys are pending.
    pub fn is_empty(&self) -> bool {
        self.due.is_empty() && self.occupied == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn link_free(node: u32) -> EventKind<u32> {
        EventKind::LinkFree {
            node: ReplicaId(node),
        }
    }

    fn deliver(from: Option<u32>, msg: u32) -> EventKind<u32> {
        EventKind::Deliver {
            to: ReplicaId(0),
            from: from.map(ReplicaId),
            msg,
        }
    }

    /// Pops the next key and takes its event.
    fn pop_kind(q: &mut EventQueue<u32>) -> Option<(Key, EventKind<u32>)> {
        let key = q.pop()?;
        Some((key, q.take(key.slot)))
    }

    #[test]
    fn a_key_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Key>(), 24);
    }

    /// A time at or after `now`, by `kind`: a tie, a short hop, a landing
    /// within a few microseconds of the next multiple of a random power of
    /// two (a bucket boundary, up to bit 63), or a leap anywhere up to
    /// `SimTime::MAX`.
    fn later(now: SimTime, kind: u8, x: u64) -> SimTime {
        match kind {
            0 => now,
            1 => now.saturating_add(x % 8),
            2 => {
                let bit = x % 64;
                let edge = ((now as u128 >> bit) + 1) << bit;
                let t = (edge + (x >> 61) as u128).saturating_sub(4);
                t.clamp(now as u128, SimTime::MAX as u128) as SimTime
            }
            _ => now + x % (SimTime::MAX - now).max(1),
        }
    }

    proptest! {
        #[test]
        fn pops_match_a_binary_heap_reference(
            start in prop_oneof![
                Just(0u64),
                Just((1u64 << 63) - 16),
                Just(SimTime::MAX - (1 << 20)),
                any::<u64>(),
            ],
            steps in collection::vec((0u8..6, 0u8..4, any::<u64>()), 1..400),
        ) {
            // The reference orders `(time, seq)` and carries what the key
            // must lead to: `Some(msg)` of a slab event, `None` for a wake.
            let mut reference: BinaryHeap<Reverse<(SimTime, u64, Option<u32>)>> =
                BinaryHeap::new();
            let mut q: EventQueue<u32> = EventQueue::new();
            q.push(start, link_free(0));
            let first = q.pop().unwrap();
            q.take(first.slot);
            let (mut now, mut seq) = (start, 1);
            for (i, (op, kind, x)) in steps.into_iter().enumerate() {
                let at = later(now, kind, x);
                match op {
                    0 | 1 => {
                        q.push(at, deliver(None, i as u32));
                        reference.push(Reverse((at, seq, Some(i as u32))));
                        seq += 1;
                    }
                    2 => {
                        prop_assert_eq!(q.push_wake(at, x as usize % 100), seq);
                        reference.push(Reverse((at, seq, None)));
                        seq += 1;
                    }
                    _ => {
                        let expected = reference.pop().map(|Reverse(entry)| entry);
                        let key = q.pop();
                        prop_assert_eq!(
                            key.map(|k| (k.time, k.seq)),
                            expected.map(|e| (e.0, e.1))
                        );
                        let (Some(key), Some((_, _, msg))) = (key, expected) else {
                            continue;
                        };
                        now = key.time;
                        let Some(msg) = msg else {
                            prop_assert!(key.wake_node().is_some());
                            continue;
                        };
                        prop_assert!(matches!(
                            q.kind(key.slot),
                            EventKind::Deliver { msg: m, .. } if *m == msg
                        ));
                        if op == 5 {
                            let at = later(now, kind, x.rotate_left(17));
                            q.requeue(key.slot, at);
                            reference.push(Reverse((at, seq, Some(msg))));
                            seq += 1;
                        } else {
                            q.take(key.slot);
                        }
                    }
                }
                prop_assert_eq!(q.peek_time(), reference.peek().map(|Reverse(e)| e.0));
                prop_assert_eq!(q.len(), reference.len());
            }
            while let Some(Reverse((time, seq, msg))) = reference.pop() {
                let key = q.pop().unwrap();
                prop_assert_eq!((key.time, key.seq), (time, seq));
                prop_assert_eq!(key.wake_node().is_some(), msg.is_none());
            }
            prop_assert!(q.pop().is_none() && q.is_empty());
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "before the last pop")]
    fn scheduling_before_the_last_pop_is_a_bug() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(10, link_free(0));
        q.pop().unwrap();
        q.push(9, link_free(0));
    }

    #[test]
    fn a_bucket_emptied_after_a_burst_gives_its_buffer_back() {
        // Every key lands in bucket 40, and its redistribution fills the
        // buckets below past the cap too.
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..10_000 {
            q.push((1 << 40) + i, link_free(0));
        }
        while let Some(key) = q.pop() {
            q.take(key.slot);
        }
        let caps: Vec<usize> = q.buckets.iter().map(Vec::capacity).collect();
        assert!(caps.iter().all(|&c| c <= KEPT_CAPACITY), "{caps:?}");
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(30, link_free(0));
        q.push(10, link_free(1));
        q.push(20, link_free(2));
        let order: Vec<SimTime> = std::iter::from_fn(|| q.pop().map(|k| k.time)).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(5, link_free(7));
        q.push(5, link_free(8));
        let (_, first) = pop_kind(&mut q).unwrap();
        let (_, second) = pop_kind(&mut q).unwrap();
        match (first, second) {
            (EventKind::LinkFree { node: a }, EventKind::LinkFree { node: b }) => {
                assert_eq!(a, ReplicaId(7));
                assert_eq!(b, ReplicaId(8));
            }
            _ => panic!("unexpected kinds"),
        }
    }

    #[test]
    fn ties_break_by_seq_whatever_slot_and_from_hold() {
        // Free slots are handed out last-freed-first, so after this the
        // slots run against the push order; the senders run against it
        // too.  Neither may show in the pop order.
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..8 {
            q.push(1, deliver(None, i));
        }
        while pop_kind(&mut q).is_some() {}
        for i in 0..8 {
            q.push(5, deliver(Some(7 - i), i));
        }
        let popped: Vec<_> = std::iter::from_fn(|| pop_kind(&mut q)).collect();
        let slots: Vec<u32> = popped.iter().map(|(k, _)| k.slot).collect();
        let (senders, msgs): (Vec<u32>, Vec<u32>) = popped
            .iter()
            .map(|(_, kind)| match kind {
                EventKind::Deliver {
                    from: Some(f), msg, ..
                } => (f.0, *msg),
                _ => panic!("unexpected kind"),
            })
            .unzip();
        assert_eq!(msgs, (0..8).collect::<Vec<_>>());
        assert_eq!(slots, (0..8).rev().collect::<Vec<_>>());
        assert_eq!(senders, (0..8).rev().collect::<Vec<_>>());
        // And as a bare comparison.
        let key = |seq, slot| Key { time: 5, seq, slot };
        assert!(key(1, 9) < key(2, 0));
        assert_eq!(key(1, 9), key(1, 0));
    }

    #[test]
    fn keyed_pushes_order_against_plain_ones_by_their_own_seq() {
        // A wake takes the next seq like any push: behind what is already
        // scheduled for its time, ahead of what comes later.
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(5, link_free(1));
        let seq = q.push_wake(5, 0);
        q.push(5, link_free(2));
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(popped[1].seq, seq);
        let wakes: Vec<_> = popped.iter().map(Key::wake_node).collect();
        assert_eq!(wakes, vec![None, Some(0), None]);
    }

    #[test]
    fn a_requeued_key_keeps_its_slot_and_orders_by_its_new_stamp() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(5, deliver(Some(1), 11));
        q.push(6, deliver(Some(2), 22));
        q.push(9, deliver(Some(3), 33));
        let first = q.pop().unwrap();
        q.requeue(first.slot, 9);
        let msgs: Vec<_> = std::iter::from_fn(|| pop_kind(&mut q))
            .map(|(key, kind)| match kind {
                EventKind::Deliver { msg, .. } => (key.time, key.slot, msg),
                _ => panic!("unexpected kind"),
            })
            .collect();
        assert_eq!(msgs, vec![(6, 1, 22), (9, 2, 33), (9, first.slot, 11)]);
    }

    #[test]
    fn a_wake_round_trips_its_node_and_owns_no_slot() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for node in [0usize, 1, 99, (WAKE_BIT - 1) as usize] {
            let seq = q.push_wake(7, node);
            let key = q.pop().unwrap();
            assert_eq!(key.wake_node(), Some(node));
            assert_eq!((key.time, key.seq), (7, seq));
        }
        assert!(q.slab.is_empty() && q.free.is_empty());
        q.push(8, link_free(0));
        assert_eq!(q.pop().unwrap().wake_node(), None);
    }

    #[test]
    fn slots_are_reused() {
        // 64 keys pending at every step, each pushed a pseudo-random 1 to
        // 4 096 µs after the last pop, so they spread over the low buckets.
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut gap = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            1 + x % 4_096
        };
        for _ in 0..64 {
            q.push(gap(), deliver(Some(1), 0));
        }
        for _ in 0..1_000_000 {
            let (key, _) = pop_kind(&mut q).unwrap();
            q.push(key.time + gap(), deliver(Some(1), 0));
        }
        assert_eq!(q.len(), 64);
        assert!(q.slab.len() <= 64, "slab grew to {}", q.slab.len());
        let capacity: usize = q.buckets.iter().map(Vec::capacity).sum();
        assert!(
            capacity <= 2 * KEPT_CAPACITY + 64,
            "buckets hold {capacity} slots"
        );
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(42, link_free(0));
        q.push(7, link_free(0));
        assert_eq!(q.peek_time(), Some(7));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }
}
