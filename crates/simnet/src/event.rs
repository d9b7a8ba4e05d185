//! The event queue.

use smp_types::{ReplicaId, SimTime};
use std::cmp::Ordering;
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
        /// Unique timer id (used for cancellation).
        timer_id: u64,
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
    /// The head of `node`'s CPU inbox is due.  Bookkeeping: it stands in
    /// the queue for the whole inbox, at the head's own `(time, seq)`.
    CpuWake {
        /// Node whose inbox is due.
        node: ReplicaId,
    },
}

/// A scheduled event.
#[derive(Debug)]
pub struct Event<M> {
    /// When the event fires.
    pub time: SimTime,
    /// Monotonic sequence number breaking ties deterministically.
    pub seq: u64,
    /// The action to perform.
    pub kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}

impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest time pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic time-ordered event queue.
#[derive(Debug, Default)]
pub struct EventQueue<M> {
    heap: BinaryHeap<Event<M>>,
    next_seq: u64,
}

impl<M> EventQueue<M> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `kind` to fire at `time`.
    pub fn push(&mut self, time: SimTime, kind: EventKind<M>) {
        let seq = self.alloc_seq();
        self.push_keyed(time, seq, kind);
    }

    /// Takes the sequence number the next [`push`](Self::push) would
    /// have used, for an event that is kept outside the heap but must
    /// order against it.
    pub fn alloc_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `kind` at a `(time, seq)` key taken earlier with
    /// [`alloc_seq`](Self::alloc_seq).
    pub fn push_keyed(&mut self, time: SimTime, seq: u64, kind: EventKind<M>) {
        self.heap.push(Event { time, seq, kind });
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<Event<M>> {
        self.heap.pop()
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// `(time, seq)` of the earliest pending event.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|e| (e.time, e.seq))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(30, EventKind::LinkFree { node: ReplicaId(0) });
        q.push(10, EventKind::LinkFree { node: ReplicaId(1) });
        q.push(20, EventKind::LinkFree { node: ReplicaId(2) });
        let order: Vec<SimTime> = std::iter::from_fn(|| q.pop().map(|e| e.time)).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(5, EventKind::LinkFree { node: ReplicaId(7) });
        q.push(5, EventKind::LinkFree { node: ReplicaId(8) });
        let first = q.pop().unwrap();
        let second = q.pop().unwrap();
        match (first.kind, second.kind) {
            (EventKind::LinkFree { node: a }, EventKind::LinkFree { node: b }) => {
                assert_eq!(a, ReplicaId(7));
                assert_eq!(b, ReplicaId(8));
            }
            _ => panic!("unexpected kinds"),
        }
    }

    #[test]
    fn keyed_pushes_order_against_plain_ones_by_their_own_seq() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let held = q.alloc_seq();
        q.push(5, EventKind::LinkFree { node: ReplicaId(1) });
        q.push_keyed(5, held, EventKind::CpuWake { node: ReplicaId(0) });
        assert_eq!(q.peek_key(), Some((5, held)));
        assert!(matches!(q.pop().unwrap().kind, EventKind::CpuWake { .. }));
        assert_eq!(q.peek_key(), Some((5, held + 1)));
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(42, EventKind::LinkFree { node: ReplicaId(0) });
        q.push(7, EventKind::LinkFree { node: ReplicaId(0) });
        assert_eq!(q.peek_time(), Some(7));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }
}
