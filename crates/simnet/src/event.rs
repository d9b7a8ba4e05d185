//! The event queue: a heap of 24-byte [`Key`]s over a slab of events.
//!
//! The scheduler only ever needs to order events, never to look inside
//! them, so what it moves is a [`Key`] — `(time, seq)` plus a handle to
//! the event — while the [`EventKind`] (and the message inside a
//! `Deliver`) sits still in a slab slot from [`EventQueue::push`] until
//! the one [`EventQueue::take`] that serves or drops it.  A delivery that
//! finds its receiver's CPU busy waits in that node's inbox as its bare
//! slot; one a delay burst puts back on the wire goes back into the heap
//! under a new `(time, seq)` through [`EventQueue::requeue`].
//!
//! A key's `slot` with its top bit set names no slot at all: the key is a
//! *CPU wake* for the node in the low bits, standing in the heap for that
//! node's whole inbox at the time its CPU frees up.  Wakes carry no data,
//! so they own no slab entry.

use smp_types::{ReplicaId, SimTime};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

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
        /// Incarnation of the node when it set the timer.  A timer whose
        /// epoch no longer matches (the node crashed and restarted in
        /// between) is dead on arrival.
        epoch: u32,
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

/// What the heap holds: when an event fires, and where it is.  Keys order
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

/// A deterministic time-ordered event queue.
#[derive(Debug, Default)]
pub struct EventQueue<M> {
    /// `BinaryHeap` is a max-heap; `Reverse` pops the earliest key first.
    heap: BinaryHeap<Reverse<Key>>,
    /// The events the keys point at.  Freed slots are reused, so the slab
    /// grows to the peak number of events alive at once and no further.
    slab: Vec<Option<EventKind<M>>>,
    free: Vec<u32>,
    next_seq: u64,
}

impl<M> EventQueue<M> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
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
    /// already scheduled for that time.
    pub fn requeue(&mut self, slot: u32, time: SimTime) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Key { time, seq, slot }));
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
        self.heap.pop().map(|Reverse(key)| key)
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

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(key)| key.time)
    }

    /// Number of pending keys, wakes included.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no keys are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(std::mem::size_of::<Reverse<Key>>(), 24);
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
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut t = 0;
        for _ in 0..64 {
            q.push(t, deliver(Some(1), 0));
            t += 1;
        }
        for _ in 0..1_000_000 {
            pop_kind(&mut q).unwrap();
            q.push(t, deliver(Some(1), 0));
            t += 1;
        }
        assert_eq!(q.len(), 64);
        assert!(q.slab.len() <= 64, "slab grew to {}", q.slab.len());
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
