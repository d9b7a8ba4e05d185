//! Per-node outbound link model.
//!
//! Every replica owns one outbound NIC with finite bandwidth.  Messages are
//! serialized one at a time; while the NIC is busy, further messages queue.
//! Two lanes are provided: a high-priority lane served strictly before the
//! normal lane, which models the Stratus optimization of prioritizing the
//! transmission of consensus messages over bulk microblock data
//! (Section VI, "Optimizations").

use smp_types::ReplicaId;
use std::collections::VecDeque;

/// Transmission priority of a queued message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Priority {
    /// Consensus-critical messages (proposals, votes, proofs).
    High,
    /// Bulk data (microblocks, fetch responses).
    Normal,
}

/// A message waiting on, or currently occupying, the outbound NIC.
#[derive(Clone, Debug)]
pub struct QueuedMessage<M> {
    /// Destination replica.
    pub to: ReplicaId,
    /// The message itself.
    pub msg: M,
    /// Serialized size in bytes.
    pub bytes: usize,
}

/// The outbound link of one replica.
#[derive(Debug)]
pub struct OutboundLink<M> {
    high: VecDeque<QueuedMessage<M>>,
    normal: VecDeque<QueuedMessage<M>>,
    /// Whether the NIC is currently serializing a message.
    busy: bool,
}

impl<M> Default for OutboundLink<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> OutboundLink<M> {
    /// Creates an idle link.
    pub fn new() -> Self {
        OutboundLink {
            high: VecDeque::new(),
            normal: VecDeque::new(),
            busy: false,
        }
    }

    /// Queues a message for transmission.
    pub fn enqueue(&mut self, item: QueuedMessage<M>, priority: Priority) {
        match priority {
            Priority::High => self.high.push_back(item),
            Priority::Normal => self.normal.push_back(item),
        }
    }

    /// Whether the NIC is currently serializing a message.
    pub fn is_busy(&self) -> bool {
        self.busy
    }

    /// Marks the NIC busy and returns the next message to transmit, high
    /// priority first.  Returns `None` (and stays idle) when nothing is
    /// queued.
    pub fn start_next(&mut self) -> Option<QueuedMessage<M>> {
        debug_assert!(!self.busy, "start_next called while busy");
        let next = self.high.pop_front().or_else(|| self.normal.pop_front());
        self.busy = next.is_some();
        next
    }

    /// Marks the current transmission as finished.
    pub fn finish_current(&mut self) {
        debug_assert!(self.busy, "finish_current called while idle");
        self.busy = false;
    }

    /// Discards every queued (not yet transmitting) message.  A message
    /// already serializing is untouched: it is on the wire and its
    /// `LinkFree` completion still fires.  Used by the fault plane when a
    /// node crashes.
    pub fn clear_queue(&mut self) {
        self.high.clear();
        self.normal.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qm(to: u32, bytes: usize) -> QueuedMessage<&'static str> {
        QueuedMessage {
            to: ReplicaId(to),
            msg: "m",
            bytes,
        }
    }

    #[test]
    fn fifo_within_a_lane() {
        let mut link = OutboundLink::new();
        link.enqueue(qm(1, 10), Priority::Normal);
        link.enqueue(qm(2, 20), Priority::Normal);
        let a = link.start_next().unwrap();
        assert_eq!(a.to, ReplicaId(1));
        link.finish_current();
        let b = link.start_next().unwrap();
        assert_eq!(b.to, ReplicaId(2));
    }

    #[test]
    fn high_priority_lane_is_served_first() {
        let mut link = OutboundLink::new();
        link.enqueue(qm(1, 10_000), Priority::Normal);
        link.enqueue(qm(2, 100), Priority::High);
        let first = link.start_next().unwrap();
        assert_eq!(
            first.to,
            ReplicaId(2),
            "high-priority message should jump the queue"
        );
    }

    #[test]
    fn busy_state_toggles() {
        let mut link = OutboundLink::new();
        assert!(!link.is_busy());
        link.enqueue(qm(1, 10), Priority::Normal);
        let _ = link.start_next().unwrap();
        assert!(link.is_busy());
        link.finish_current();
        assert!(!link.is_busy());
        assert!(link.start_next().is_none());
        assert!(!link.is_busy());
    }
}
