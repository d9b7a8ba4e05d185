//! How every host runs a node.
//!
//! A [`Node`] is hosted twice in this workspace: [`Simulation`] owns every
//! node of a deployment and advances a virtual clock; `smp-net`'s socket
//! runtime owns one node per process and advances on wall-clock time.  The
//! byte-identical sim ↔ socket conformance suite is only sound if both
//! invoke the node's handlers through the very same [`NodeCtx`] contract,
//! with the very same deterministic per-node RNG stream — so neither
//! writes that contract.  Both hold a [`NodeDriver`] per node.
//!
//! A driver owns the node and what is the node's alone: its identity, its
//! RNG (seeded from the deployment seed and the node's index, reseeded
//! only by [`restart`](NodeDriver::restart)) and its telemetry handle.  Each
//! handler invocation takes the host's clock reading and a buffer the host
//! lends, builds the one `NodeCtx` in the workspace, and leaves the
//! handler's [`NodeAction`]s in the buffer for the host to apply however
//! it likes (event queue, sockets, a heap of real timers).  Nothing is
//! allocated per invocation.
//!
//! [`Simulation`]: crate::Simulation

use crate::context::{NodeAction, NodeCtx, TimerTag};
use crate::runner::Node;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use smp_telemetry::Telemetry;
use smp_types::{ReplicaId, SimTime};

/// The RNG seed of node `index` in a deployment seeded with `seed`: same
/// seed, same index ⇒ the same stream under every host.
fn node_rng_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9).wrapping_add(index as u64)
}

/// Replica `i`'s view of a deployment's telemetry sink: metrics prefixed
/// `replica.<i>`, spans on trace track `i`.
pub fn node_telemetry(telemetry: &Telemetry, i: usize) -> Telemetry {
    telemetry
        .with_prefix(&format!("replica.{i}"))
        .with_track(i as u32)
}

/// Runs one [`Node`] for its host.
///
/// The host supplies `now` (its own clock, in microseconds) and an action
/// buffer on every invocation, and applies what the handler left there.
pub struct NodeDriver<N: Node> {
    node: N,
    id: ReplicaId,
    n: usize,
    rng_seed: u64,
    rng: SmallRng,
    telemetry: Telemetry,
}

impl<N: Node> NodeDriver<N> {
    /// Wraps `node` as replica `id` of an `n`-replica deployment seeded
    /// with the deployment-wide `seed` (the same value for every replica,
    /// under every host).
    pub fn new(node: N, id: ReplicaId, n: usize, seed: u64, telemetry: Telemetry) -> Self {
        let rng_seed = node_rng_seed(seed, id.index());
        NodeDriver {
            node,
            id,
            n,
            rng_seed,
            rng: SmallRng::seed_from_u64(rng_seed),
            telemetry,
        }
    }

    /// The wrapped node.
    pub fn node(&self) -> &N {
        &self.node
    }

    /// Mutable access to the wrapped node (post-run metric extraction).
    pub fn node_mut(&mut self) -> &mut N {
        &mut self.node
    }

    /// Unwraps the driver, returning the node.
    pub fn into_node(self) -> N {
        self.node
    }

    /// The node's telemetry handle — what its handlers see through
    /// [`NodeCtx::telemetry`].
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    pub(crate) fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The node's RNG, lent to the simulator between invocations: the
    /// network model draws a message's propagation jitter from its
    /// sender's stream.
    pub(crate) fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// Invokes `on_start` at time `now`.
    pub fn start(&mut self, now: SimTime, out: &mut Vec<NodeAction<N::Msg>>) {
        self.invoke(now, out, |node, ctx| node.on_start(ctx))
    }

    /// Resumes the node after a crash at time `now`: the RNG restarts
    /// exactly as a re-exec'd process's would, then `on_restart` runs.
    pub fn restart(&mut self, now: SimTime, out: &mut Vec<NodeAction<N::Msg>>) {
        self.rng = SmallRng::seed_from_u64(self.rng_seed);
        self.invoke(now, out, |node, ctx| node.on_restart(ctx))
    }

    /// Delivers a peer message at time `now`.
    pub fn deliver(
        &mut self,
        now: SimTime,
        from: ReplicaId,
        msg: N::Msg,
        out: &mut Vec<NodeAction<N::Msg>>,
    ) {
        self.invoke(now, out, |node, ctx| node.on_message(ctx, from, msg))
    }

    /// Delivers external (client) input at time `now`.
    pub fn client_input(&mut self, now: SimTime, msg: N::Msg, out: &mut Vec<NodeAction<N::Msg>>) {
        self.invoke(now, out, |node, ctx| node.on_client_input(ctx, msg))
    }

    /// Fires the timer with application tag `tag` at time `now`.
    pub fn timer(&mut self, now: SimTime, tag: TimerTag, out: &mut Vec<NodeAction<N::Msg>>) {
        self.invoke(now, out, |node, ctx| node.on_timer(ctx, tag))
    }

    fn invoke(
        &mut self,
        now: SimTime,
        actions: &mut Vec<NodeAction<N::Msg>>,
        handler: impl FnOnce(&mut N, &mut NodeCtx<'_, N::Msg>),
    ) {
        let mut ctx = NodeCtx {
            id: self.id,
            n: self.n,
            now,
            rng: &mut self.rng,
            actions,
            telemetry: &self.telemetry,
        };
        handler(&mut self.node, &mut ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::SimMessage;
    use crate::netmodel::NetConfig;
    use crate::runner::Simulation;
    use rand::Rng;

    #[derive(Clone, Debug)]
    struct Tok(u64);
    impl SimMessage for Tok {
        fn wire_size(&self) -> usize {
            8
        }
        fn kind(&self) -> &'static str {
            "tok"
        }
    }

    /// Draws from the node RNG on every event so stream divergence shows.
    struct RngEcho {
        draws: Vec<u64>,
    }
    impl Node for RngEcho {
        type Msg = Tok;
        fn on_start(&mut self, ctx: &mut NodeCtx<'_, Tok>) {
            self.draws.push(ctx.rng().gen::<u64>());
            ctx.set_timer(1_000, 7);
        }
        fn on_message(&mut self, ctx: &mut NodeCtx<'_, Tok>, _from: ReplicaId, msg: Tok) {
            self.draws.push(ctx.rng().gen::<u64>().wrapping_add(msg.0));
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_, Tok>, _tag: TimerTag) {
            self.draws.push(ctx.rng().gen::<u64>());
        }
    }

    fn echo_driver() -> NodeDriver<RngEcho> {
        NodeDriver::new(
            RngEcho { draws: Vec::new() },
            ReplicaId(1),
            2,
            42,
            Telemetry::disabled(),
        )
    }

    #[test]
    fn driver_rng_stream_matches_simulation() {
        // Simulation reference: node 1 of 2, seed 42.
        let nodes = vec![RngEcho { draws: Vec::new() }, RngEcho { draws: Vec::new() }];
        let mut sim = Simulation::new(nodes, NetConfig::lan(), 42);
        sim.run_until(2_000);
        let sim_draws = sim.node(1).draws.clone();

        // Driver: same node index, same seed, same invocation sequence
        // (on_start then the armed timer).
        let mut driver = echo_driver();
        let mut actions = Vec::new();
        driver.start(0, &mut actions);
        match actions[..] {
            [NodeAction::SetTimer { at: 1_000, tag: 7 }] => {}
            _ => panic!("unexpected actions {actions:?}"),
        }
        driver.timer(1_000, 7, &mut actions);
        assert_eq!(driver.node().draws, sim_draws);
    }

    #[test]
    fn restart_reseeds_the_node_rng() {
        let mut driver = echo_driver();
        let mut actions = Vec::new();
        driver.start(0, &mut actions);
        driver.timer(1_000, 7, &mut actions);
        driver.restart(5_000, &mut actions);
        driver.timer(6_000, 7, &mut actions);
        let draws = &driver.node().draws;
        assert_eq!(draws.len(), 3, "the default on_restart draws nothing");
        assert_ne!(draws[0], draws[1]);
        assert_eq!(draws[0], draws[2], "a restarted node replays the stream");
    }

    #[test]
    fn driver_reports_timers_in_arming_order_with_absolute_times() {
        struct Timers;
        impl Node for Timers {
            type Msg = Tok;
            fn on_start(&mut self, ctx: &mut NodeCtx<'_, Tok>) {
                ctx.set_timer(10, 1);
                ctx.set_timer(20, 2);
            }
            fn on_message(&mut self, _: &mut NodeCtx<'_, Tok>, _: ReplicaId, _: Tok) {}
            fn on_timer(&mut self, _: &mut NodeCtx<'_, Tok>, _: TimerTag) {}
        }
        let mut driver = NodeDriver::new(Timers, ReplicaId(0), 1, 1, Telemetry::disabled());
        let mut actions = Vec::new();
        driver.start(5, &mut actions);
        match actions[..] {
            [NodeAction::SetTimer { at: 15, tag: 1 }, NodeAction::SetTimer { at: 25, tag: 2 }] => {}
            _ => panic!("unexpected actions {actions:?}"),
        }
    }
}
