//! The context handed to node handlers.
//!
//! Handlers never touch the event queue or the network directly: they
//! record [`NodeAction`]s (send, set timer, observe) through a
//! [`NodeCtx`], and whatever hosts the node applies them after the handler
//! returns.  This keeps protocol code free of host internals and makes
//! handlers trivially unit-testable.  The one place a `NodeCtx` is built
//! is [`NodeDriver`](crate::NodeDriver).

use crate::observation::{ObsKind, Observation};
use rand::rngs::SmallRng;
use smp_telemetry::Telemetry;
use smp_types::{ReplicaId, SimTime};

/// Application-defined timer tag delivered back in `on_timer`.
pub type TimerTag = u64;

/// An effect requested by a node handler, applied by the node's host (the
/// simulator's event queue, the socket runtime's writers and timer heap).
#[derive(Debug)]
pub enum NodeAction<M> {
    /// Send `msg` to replica `to`.
    Send {
        /// Destination replica.
        to: ReplicaId,
        /// The message.
        msg: M,
    },
    /// Arm a timer firing at absolute node-time `at`.
    SetTimer {
        /// Absolute time (same unit as the `now` passed to the handlers).
        at: SimTime,
        /// Application tag delivered back in `on_timer`.
        tag: TimerTag,
    },
    /// An observation emitted by the node (commits, view changes, …).
    Observe(Observation),
}

/// Execution context available to a node handler.
pub struct NodeCtx<'a, M> {
    pub(crate) id: ReplicaId,
    pub(crate) n: usize,
    pub(crate) now: SimTime,
    pub(crate) rng: &'a mut SmallRng,
    pub(crate) actions: &'a mut Vec<NodeAction<M>>,
    pub(crate) telemetry: &'a Telemetry,
}

impl<'a, M> NodeCtx<'a, M> {
    /// Identifier of the node running the handler.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// Number of replicas in the system.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Deterministic per-node random number generator.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// This node's telemetry handle (see
    /// [`node_telemetry`](crate::node_telemetry)).  Disabled unless the
    /// host was given a sink, e.g. through
    /// [`Simulation::with_telemetry`](crate::Simulation::with_telemetry).
    pub fn telemetry(&self) -> &Telemetry {
        self.telemetry
    }

    /// Sends `msg` to `to` over the simulated network.
    pub fn send(&mut self, to: ReplicaId, msg: M) {
        self.actions.push(NodeAction::Send { to, msg });
    }

    /// Sends `msg` to every replica except this one.
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        for i in 0..self.n as u32 {
            let to = ReplicaId(i);
            if to != self.id {
                self.send(to, msg.clone());
            }
        }
    }

    /// Sends `msg` to every replica in `targets`.
    pub fn multicast(&mut self, targets: &[ReplicaId], msg: M)
    where
        M: Clone,
    {
        for &to in targets {
            self.send(to, msg.clone());
        }
    }

    /// Schedules a timer to fire after `delay`.  It cannot be cancelled: a
    /// handler that no longer wants it ignores it, by its tag, when it fires.
    pub fn set_timer(&mut self, delay: SimTime, tag: TimerTag) {
        self.actions.push(NodeAction::SetTimer {
            at: self.now.saturating_add(delay),
            tag,
        });
    }

    /// Emits an observation into the host's observation log.
    pub fn observe(&mut self, kind: ObsKind) {
        self.actions.push(NodeAction::Observe(Observation {
            time: self.now,
            node: self.id,
            kind,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    static DISABLED: Telemetry = Telemetry::disabled();

    fn ctx_with<'a>(
        actions: &'a mut Vec<NodeAction<u32>>,
        rng: &'a mut SmallRng,
    ) -> NodeCtx<'a, u32> {
        NodeCtx {
            id: ReplicaId(1),
            n: 4,
            now: 500,
            rng,
            actions,
            telemetry: &DISABLED,
        }
    }

    #[test]
    fn broadcast_excludes_self() {
        let mut actions = Vec::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut ctx = ctx_with(&mut actions, &mut rng);
        ctx.broadcast(7u32);
        let targets: Vec<ReplicaId> = actions
            .iter()
            .map(|a| match a {
                NodeAction::Send { to, .. } => *to,
                _ => panic!("unexpected action"),
            })
            .collect();
        assert_eq!(targets, vec![ReplicaId(0), ReplicaId(2), ReplicaId(3)]);
    }

    #[test]
    fn timers_get_unique_ids_and_absolute_times() {
        let mut actions = Vec::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut ctx = ctx_with(&mut actions, &mut rng);
        ctx.set_timer(100, 1);
        ctx.set_timer(200, 2);
        match actions[..] {
            [NodeAction::SetTimer { at: 600, tag: 1 }, NodeAction::SetTimer { at: 700, tag: 2 }] => {
            }
            _ => panic!("unexpected actions {actions:?}"),
        }
    }

    #[test]
    fn multicast_targets_exactly_requested_nodes() {
        let mut actions = Vec::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut ctx = ctx_with(&mut actions, &mut rng);
        ctx.multicast(&[ReplicaId(0), ReplicaId(3)], 9u32);
        assert_eq!(actions.len(), 2);
    }

    #[test]
    fn observe_records_node_and_time() {
        let mut actions = Vec::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut ctx = ctx_with(&mut actions, &mut rng);
        ctx.observe(ObsKind::Custom {
            label: "x".into(),
            value: 1.0,
        });
        match &actions[0] {
            NodeAction::Observe(o) => {
                assert_eq!(o.node, ReplicaId(1));
                assert_eq!(o.time, 500);
            }
            _ => panic!("unexpected action"),
        }
    }
}
