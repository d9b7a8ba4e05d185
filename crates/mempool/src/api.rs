//! The shared-mempool abstraction (Section III of the paper).
//!
//! A mempool implementation is an event-driven state machine: every
//! handler receives the current simulated time plus an input (client
//! transactions, a peer message, a timer) and returns [`Effects`] —
//! messages to send, timers to arm, and notifications for the consensus
//! layer.  The replica assembly (in `smp-replica`) routes these effects
//! onto the simulated network.
//!
//! The trait mirrors the paper's four primitives:
//!
//! * `ReceiveTx(tx)` + `ShareTx(tx)` → [`Mempool::on_client_txs`] (and the
//!   dissemination messages it returns),
//! * `MakeProposal()` → [`Mempool::make_payload`],
//! * `FillProposal(p)` → [`Mempool::on_proposal`] (whose [`FillStatus`]
//!   tells consensus whether it may enter the commit phase immediately).

use rand::rngs::SmallRng;
use smp_telemetry::Telemetry;
use smp_types::{BlockId, MicroblockId, Payload, Proposal, ReplicaId, SimTime, Transaction};

/// Timer tag namespace owned by a mempool instance.
pub type TimerTag = u64;

/// Message destination.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Dest {
    /// A single replica.
    One(ReplicaId),
    /// Every replica except the sender.
    AllButSelf,
    /// An explicit set of replicas.
    Many(Vec<ReplicaId>),
}

/// Notifications from the mempool to the consensus layer / replica.
#[derive(Clone, Debug, PartialEq)]
pub enum MempoolEvent {
    /// A proposal that previously returned [`FillStatus::MustWait`] now has
    /// every referenced microblock locally available; consensus may resume.
    ProposalReady {
        /// The proposal that became ready.
        proposal: BlockId,
    },
    /// A microblock created by this replica became provably available
    /// (Stratus) or fully certified (Narwhal).  `stable_time` is the
    /// broadcast-to-stability delay used by the DLB workload estimator.
    MicroblockStable {
        /// The stable microblock.
        id: MicroblockId,
        /// Time from broadcast to stability.
        stable_time: SimTime,
    },
    /// A committed proposal has all of its transaction data locally and has
    /// been handed to the executor.  Carries everything the metrics layer
    /// needs: the number of transactions it ordered *for the first time at
    /// this replica* (a microblock referenced by two committed proposals
    /// executes with the first) and the first-reception times of those
    /// whose provenance is known.
    Executed {
        /// The executed proposal.
        proposal: BlockId,
        /// Number of transactions the proposal is the first to order.
        tx_count: u32,
        /// First-reception times of the transactions (for latency).
        receive_times: Vec<SimTime>,
    },
    /// Missing microblocks had to be fetched while filling a proposal.
    FetchIssued {
        /// How many microblocks were requested.
        count: u32,
    },
}

/// Side effects produced by a mempool handler.
#[derive(Clone, Debug, Default)]
pub struct Effects<M> {
    /// Messages to transmit.
    pub msgs: Vec<(Dest, M)>,
    /// Timers to arm, as `(delay, tag)` pairs.
    pub timers: Vec<(SimTime, TimerTag)>,
    /// Notifications for the consensus layer / replica.
    pub events: Vec<MempoolEvent>,
}

impl<M> Effects<M> {
    /// No effects.
    pub fn none() -> Self {
        Effects {
            msgs: Vec::new(),
            timers: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Queues a unicast message.
    pub fn send(&mut self, to: ReplicaId, msg: M) {
        self.msgs.push((Dest::One(to), msg));
    }

    /// Queues a broadcast to every other replica.
    pub fn broadcast(&mut self, msg: M) {
        self.msgs.push((Dest::AllButSelf, msg));
    }

    /// Queues a multicast to an explicit set of replicas.
    pub fn multicast(&mut self, targets: Vec<ReplicaId>, msg: M) {
        self.msgs.push((Dest::Many(targets), msg));
    }

    /// Arms a timer.
    pub fn timer(&mut self, delay: SimTime, tag: TimerTag) {
        self.timers.push((delay, tag));
    }

    /// Emits an event.
    pub fn event(&mut self, event: MempoolEvent) {
        self.events.push(event);
    }

    /// Appends all effects from `other`.
    pub fn merge(&mut self, other: Effects<M>) {
        self.msgs.extend(other.msgs);
        self.timers.extend(other.timers);
        self.events.extend(other.events);
    }

    /// Whether this value carries no effects at all.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty() && self.timers.is_empty() && self.events.is_empty()
    }
}

/// Load-coordination snapshot drained from one mempool instance so an
/// external coordinator (the sharded wrapper's
/// `stratus::ShardLoadCoordinator`) can merge the per-shard DLB ban
/// views into one coherent cross-shard view.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LoadSnapshot {
    /// The instance's current *own* bans (forwards in flight / timed
    /// out), sorted for determinism.
    pub own_bans: Vec<ReplicaId>,
    /// Whether the periodic banList reset fired since the last snapshot.
    pub reset: bool,
}

/// Outcome of verifying / filling an incoming proposal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FillStatus {
    /// Consensus may enter the commit phase immediately (all data present,
    /// or availability proofs guarantee it can be fetched in the
    /// background — the Stratus property).
    Ready,
    /// Consensus must wait for the listed microblocks before voting (the
    /// behaviour of a best-effort shared mempool).
    MustWait(Vec<MicroblockId>),
    /// The proposal is invalid (e.g. bad availability proof); consensus
    /// should trigger a view change.
    Invalid(&'static str),
}

impl FillStatus {
    /// Whether consensus can proceed without waiting.
    pub fn is_ready(&self) -> bool {
        matches!(self, FillStatus::Ready)
    }
}

/// Counters exposed by every mempool for reporting and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MempoolStats {
    /// Transactions buffered but not yet sealed into a microblock.
    pub unbatched_txs: usize,
    /// Microblocks available locally (disseminated or received).
    pub stored_microblocks: usize,
    /// Microblocks eligible for inclusion in a future proposal.
    pub proposable_microblocks: usize,
    /// Microblocks this replica created and disseminated itself.
    pub created_microblocks: u64,
    /// Microblocks this replica forwarded to a proxy (DLB only).
    pub forwarded_microblocks: u64,
    /// Fetch requests issued for missing microblocks.
    pub fetches_issued: u64,
    /// Microblocks that have executed here (each leaves
    /// `stored_microblocks` one fetch timeout later).
    pub retired_microblocks: usize,
}

/// The shared-mempool interface (paper Section III-C).
pub trait Mempool {
    /// Wire message type used between mempool instances.
    type Msg: Clone + std::fmt::Debug;

    /// `ReceiveTx` + `ShareTx`: ingest transactions arriving from clients.
    fn on_client_txs(
        &mut self,
        now: SimTime,
        txs: Vec<Transaction>,
        rng: &mut SmallRng,
    ) -> Effects<Self::Msg>;

    /// Handle a mempool message from another replica.
    fn on_message(
        &mut self,
        now: SimTime,
        from: ReplicaId,
        msg: Self::Msg,
        rng: &mut SmallRng,
    ) -> Effects<Self::Msg>;

    /// Handle a timer armed by a previous handler.
    fn on_timer(&mut self, now: SimTime, tag: TimerTag, rng: &mut SmallRng) -> Effects<Self::Msg>;

    /// `MakeProposal`: pull pending content into a proposal payload.
    fn make_payload(&mut self, now: SimTime) -> Payload;

    /// `FillProposal`: verify an incoming proposal and start resolving its
    /// referenced data.  Returns whether consensus may proceed plus any
    /// fetch traffic / notifications.
    fn on_proposal(
        &mut self,
        now: SimTime,
        proposal: &Proposal,
        rng: &mut SmallRng,
    ) -> (FillStatus, Effects<Self::Msg>);

    /// Consensus committed `proposal`: hand it to the executor (possibly
    /// deferred until missing data arrives) and garbage-collect.
    fn on_commit(&mut self, now: SimTime, proposal: &Proposal) -> Effects<Self::Msg>;

    /// Current counters.
    fn stats(&self) -> MempoolStats;

    /// Installs a telemetry handle (already prefixed for this replica).
    /// Implementations that instrument their hot paths store it; the
    /// default ignores it, so plain mempools need no changes.  Telemetry
    /// must never influence behavior — results have to stay byte-identical
    /// whether the handle is live or disabled.
    fn set_telemetry(&mut self, _telemetry: Telemetry) {}

    /// Drains the instance's load-coordination state for an external
    /// coordinator.  `None` (the default) means the mempool performs no
    /// distributed load balancing and needs no coordination.
    fn load_snapshot(&mut self) -> Option<LoadSnapshot> {
        None
    }

    /// Imposes a coordinator-merged ban view on this instance (replacing
    /// any previously imposed view; the instance's own bans are
    /// unaffected).  The default ignores it.
    fn apply_load_view(&mut self, _banned: &[ReplicaId]) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effects_builders_accumulate() {
        let mut e: Effects<&'static str> = Effects::none();
        assert!(e.is_empty());
        e.send(ReplicaId(1), "a");
        e.broadcast("b");
        e.multicast(vec![ReplicaId(2), ReplicaId(3)], "c");
        e.timer(100, 7);
        e.event(MempoolEvent::FetchIssued { count: 2 });
        assert_eq!(e.msgs.len(), 3);
        assert_eq!(e.timers, vec![(100, 7)]);
        assert_eq!(e.events.len(), 1);
        assert!(!e.is_empty());
    }

    #[test]
    fn effects_merge_concatenates() {
        let mut a: Effects<u8> = Effects::none();
        a.send(ReplicaId(0), 1);
        let mut b: Effects<u8> = Effects::none();
        b.send(ReplicaId(1), 2);
        b.timer(5, 5);
        a.merge(b);
        assert_eq!(a.msgs.len(), 2);
        assert_eq!(a.timers.len(), 1);
    }

    #[test]
    fn fill_status_ready_flag() {
        assert!(FillStatus::Ready.is_ready());
        assert!(!FillStatus::MustWait(vec![]).is_ready());
        assert!(!FillStatus::Invalid("x").is_ready());
    }
}
