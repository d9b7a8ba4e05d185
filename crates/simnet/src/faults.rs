//! Scripted fault injection for the simulator.
//!
//! A [`FaultSchedule`] is a time-ordered script of [`FaultAction`]s that
//! the simulation applies deterministically, interleaved with ordinary
//! events: before dispatching any event at time `t`, every scheduled
//! fault with time `<= t` fires first (ties resolve fault-before-event,
//! and among faults in schedule order).  Faults therefore replay
//! identically for a given `(seed, schedule)` pair, which is what makes
//! crash-recovery testable — a chaos run can be compared byte-for-byte
//! against an unfaulted reference.
//!
//! The fault plane is **provably inert when unused**: an empty schedule
//! adds no events, draws nothing from any RNG, and leaves every delivery
//! and timer untouched.
//!
//! Supported faults:
//!
//! * [`Crash`](FaultAction::Crash) / [`Restart`](FaultAction::Restart) —
//!   a crashed node stops executing: what dies with a process is lost —
//!   the deliveries waiting for its CPU, later ones (dropped at its NIC)
//!   and its queued (not yet transmitting) outbound messages.  Its timers
//!   that come due meanwhile are parked.  Restart resumes it with the
//!   state it kept, as a replica that restarts from disk does, CPU idle
//!   and inbox empty: the per-node RNG is reseeded exactly as a freshly
//!   exec'd process would be, the node's
//!   [`on_restart`](crate::Node::on_restart) hook runs, then the parked
//!   timers fire at once, in due order; later ones fire on time.
//! * [`Partition`](FaultAction::Partition) / [`Heal`](FaultAction::Heal)
//!   — severs every link between an island of nodes and the rest of the
//!   cluster (deliveries crossing the cut are dropped); `Heal` restores
//!   full connectivity.
//! * [`DropBurst`](FaultAction::DropBurst) — every peer delivery
//!   *arriving* inside the window is dropped (client input is spared).
//! * [`DelayBurst`](FaultAction::DelayBurst) — every peer delivery
//!   arriving inside the window is deferred by a uniform extra delay
//!   drawn from the fault RNG (network turbulence).
//! * [`Fluctuation`](FaultAction::Fluctuation) — every message that
//!   *leaves* its sender inside the window takes a uniform delay in place
//!   of base delay + jitter (the paper's NetEm experiment, Figure 8).
//!
//! # One plane, two delay rules
//!
//! Every fault is a schedule entry; the [`NetConfig`](crate::NetConfig)
//! describes only the healthy network.  The two delay actions still
//! follow different rules.  A fluctuation *replaces* a message's delay
//! once, when it starts onto the wire, with one draw from the *sender's
//! node RNG* at the point where the jitter draw is otherwise taken.  A
//! delay burst *adds* delay when a delivery arrives, drawn from the
//! dedicated fault RNG, and keeps deferring it until its window ends.
//! Different moment, different stream: neither can be rewritten as the
//! other with outputs bit-identical, so merging the rules waits for the
//! re-record of every figure that uses either (ROADMAP: the consensus
//! lane of the CPU inbox).
//!
//! The other network faults act on **arrivals**, once each.  A delivery
//! that arrived before a window opened and is still waiting for the
//! receiver's CPU is past the network and is served; only a crash
//! reaches it.  A deferred delivery arrives again when its extra delay
//! is up, and is filtered again then.

use smp_types::{ReplicaId, SimTime};

/// One scripted fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Halt `0` at the scheduled time.  No-op if already crashed.
    Crash(ReplicaId),
    /// Resume a crashed node with the state it kept, firing the timers
    /// that came due while it was down.  No-op if the node is not crashed.
    Restart(ReplicaId),
    /// Sever every link between the island and the rest of the cluster.
    /// Replaces any previous partition.
    Partition(Vec<ReplicaId>),
    /// Restore full connectivity.
    Heal,
    /// Drop every peer delivery arriving within `duration` of the
    /// scheduled time.
    DropBurst {
        /// Window length in simulated microseconds.
        duration: SimTime,
    },
    /// Defer every peer delivery arriving within `duration` of the
    /// scheduled time by an extra uniform delay in `[min_us, max_us]`.
    DelayBurst {
        /// Window length in simulated microseconds.
        duration: SimTime,
        /// Minimum extra delay (clamped to at least 1 µs).
        min_us: SimTime,
        /// Maximum extra delay.
        max_us: SimTime,
    },
    /// Give every peer message that leaves its sender within `duration` of
    /// the scheduled time a uniform delay in `[min_us, max_us]` in place
    /// of base delay + jitter.
    Fluctuation {
        /// Window length in simulated microseconds.
        duration: SimTime,
        /// Minimum one-way delay.
        min_us: SimTime,
        /// Maximum one-way delay.
        max_us: SimTime,
    },
}

/// A deterministic, time-ordered script of faults.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    events: Vec<(SimTime, FaultAction)>,
}

impl FaultSchedule {
    /// An empty schedule (the inert fault plane).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `action` at simulated time `at` (builder style).  Entries
    /// may be added in any order; the schedule replays sorted by time,
    /// with same-time entries in insertion order.
    pub fn at(mut self, at: SimTime, action: FaultAction) -> Self {
        self.events.push((at, action));
        self
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled faults sorted by time (stable, so same-time entries
    /// keep insertion order).
    pub(crate) fn into_sorted(self) -> Vec<(SimTime, FaultAction)> {
        let mut events = self.events;
        events.sort_by_key(|(t, _)| *t);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_sorts_stably_by_time() {
        let s = FaultSchedule::new()
            .at(300, FaultAction::Heal)
            .at(100, FaultAction::Crash(ReplicaId(1)))
            .at(100, FaultAction::Crash(ReplicaId(2)))
            .at(200, FaultAction::Restart(ReplicaId(1)));
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        let sorted = s.into_sorted();
        assert_eq!(sorted[0], (100, FaultAction::Crash(ReplicaId(1))));
        assert_eq!(sorted[1], (100, FaultAction::Crash(ReplicaId(2))));
        assert_eq!(sorted[2], (200, FaultAction::Restart(ReplicaId(1))));
        assert_eq!(sorted[3], (300, FaultAction::Heal));
    }

    #[test]
    fn empty_schedule_is_inert_shaped() {
        let s = FaultSchedule::new();
        assert!(s.is_empty());
        assert_eq!(s.into_sorted(), vec![]);
    }
}
