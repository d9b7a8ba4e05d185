//! The simulation: the event loop, the link and CPU models, the fault plane.

use crate::context::{NodeAction, NodeCtx, TimerTag};
use crate::driver::{node_telemetry, NodeDriver};
use crate::event::{EventKind, EventQueue};
use crate::faults::{FaultAction, FaultSchedule};
use crate::link::{OutboundLink, Priority, QueuedMessage};
use crate::message::SimMessage;
use crate::netmodel::NetConfig;
use crate::observation::ObservationLog;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use smp_telemetry::Telemetry;
use smp_types::time::from_micros_f64;
use smp_types::{ReplicaId, SimTime};
use std::collections::{HashMap, VecDeque};

/// A protocol participant driven by the simulation.
pub trait Node {
    /// Message type exchanged between nodes.
    type Msg: SimMessage;

    /// Called once before any other handler, at simulated time 0.
    fn on_start(&mut self, ctx: &mut NodeCtx<'_, Self::Msg>);

    /// Called when a message from another replica is delivered.
    fn on_message(&mut self, ctx: &mut NodeCtx<'_, Self::Msg>, from: ReplicaId, msg: Self::Msg);

    /// Called when external (client) input is delivered.  The default
    /// treats it as a message from the node itself.
    fn on_client_input(&mut self, ctx: &mut NodeCtx<'_, Self::Msg>, msg: Self::Msg) {
        let id = ctx.id();
        self.on_message(ctx, id, msg);
    }

    /// Called when a timer set through the context fires.
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, Self::Msg>, tag: TimerTag);

    /// Called when the fault plane resurrects the node after a scripted
    /// crash (see [`FaultAction::Restart`]), before the timers that came
    /// due while it was down fire.  The node kept its state, as a process
    /// that restarts from disk does; the default resumes with it.
    fn on_restart(&mut self, _ctx: &mut NodeCtx<'_, Self::Msg>) {}
}

/// Outbound `(bytes, messages)` per (node, message kind).
#[derive(Clone, Debug, Default)]
pub struct TrafficStats {
    sent: HashMap<(u32, &'static str), (u64, u64)>,
}

impl TrafficStats {
    fn record(&mut self, node: ReplicaId, kind: &'static str, bytes: usize) {
        let (b, m) = self.sent.entry((node.0, kind)).or_default();
        *b += bytes as u64;
        *m += 1;
    }

    /// Total outbound bytes across all nodes, grouped by kind.
    pub fn total_by_kind(&self) -> HashMap<&'static str, u64> {
        let mut out: HashMap<&'static str, u64> = HashMap::new();
        for ((_, k), (bytes, _)) in &self.sent {
            *out.entry(*k).or_default() += *bytes;
        }
        out
    }

    /// Total messages of `kind` sent by all nodes.
    pub fn total_messages_of_kind(&self, kind: &'static str) -> u64 {
        self.sent
            .iter()
            .filter(|((_, k), _)| *k == kind)
            .map(|(_, (_, messages))| *messages)
            .sum()
    }
}

/// The discrete-event simulation of a replica network.
pub struct Simulation<N: Node> {
    /// Each node with its identity, RNG and telemetry handle.
    drivers: Vec<NodeDriver<N>>,
    links: Vec<OutboundLink<N::Msg>>,
    cpu_free: Vec<SimTime>,
    /// Per node, in arrival order, the slab slots of the deliveries that
    /// found its CPU busy or others already waiting.
    inbox: Vec<VecDeque<u32>>,
    /// Per node, the `seq` of the one wake that stands in the queue for
    /// its non-empty inbox, at `cpu_free`.  Any other wake was armed
    /// before a crash emptied the inbox and is ignored.
    wake_seq: Vec<u64>,
    queue: EventQueue<N::Msg>,
    net: NetConfig,
    now: SimTime,
    started: bool,
    observations: ObservationLog,
    traffic: TrafficStats,
    events_processed: u64,
    /// Lent to the driver for each invocation and drained after it.
    action_buf: Vec<NodeAction<N::Msg>>,
    telemetry: Telemetry,
    // --- fault plane (inert while `faults` is empty) ---
    faults: Vec<(SimTime, FaultAction)>,
    fault_idx: usize,
    /// Jitter source for delay bursts.  Deliberately separate from the
    /// per-node RNGs so a burst never perturbs node streams.
    fault_rng: SmallRng,
    crashed: Vec<bool>,
    /// Per crashed node, in due order, the tags of its timers that came
    /// due while it was down: they fire when it restarts.
    parked: Vec<Vec<TimerTag>>,
    /// Membership of the current partition island, by node (nobody in it
    /// = fully connected).
    island: Vec<bool>,
    drop_until: SimTime,
    delay: DelayWindow,
    fluctuation: DelayWindow,
}

/// The open delay burst or fluctuation: until when, and the bounds of its
/// uniform draw.
#[derive(Clone, Copy, Default)]
struct DelayWindow {
    until: SimTime,
    min_us: SimTime,
    max_us: SimTime,
}

impl<N: Node> Simulation<N> {
    /// Creates a simulation over `nodes` with the given network environment
    /// and RNG seed.
    pub fn new(nodes: Vec<N>, net: NetConfig, seed: u64) -> Self {
        let n = nodes.len();
        let drivers = (0u32..)
            .zip(nodes)
            .map(|(i, node)| NodeDriver::new(node, ReplicaId(i), n, seed, Telemetry::disabled()))
            .collect();
        Simulation {
            drivers,
            links: (0..n).map(|_| OutboundLink::new()).collect(),
            cpu_free: vec![0; n],
            inbox: (0..n).map(|_| VecDeque::new()).collect(),
            wake_seq: vec![0; n],
            queue: EventQueue::new(),
            net,
            now: 0,
            started: false,
            observations: ObservationLog::new(),
            traffic: TrafficStats::default(),
            events_processed: 0,
            action_buf: Vec::new(),
            telemetry: Telemetry::disabled(),
            faults: Vec::new(),
            fault_idx: 0,
            fault_rng: SmallRng::seed_from_u64(seed ^ 0xFAB1_7C0D_E5EE_D000),
            crashed: vec![false; n],
            parked: vec![Vec::new(); n],
            island: vec![false; n],
            drop_until: 0,
            delay: DelayWindow::default(),
            fluctuation: DelayWindow::default(),
        }
    }

    /// Attaches a scripted fault schedule.  An empty schedule leaves the
    /// simulation byte-identical to one built without this call: faults
    /// add no events of their own, and only an open fluctuation draws from
    /// a node's RNG, in place of that node's jitter draw.
    pub fn with_faults(mut self, schedule: FaultSchedule) -> Self {
        self.faults = schedule.into_sorted();
        self.fault_idx = 0;
        self
    }

    /// Attaches a telemetry sink.  The simulation records spans around
    /// event dispatch and per-node network counters under
    /// `replica.<i>.net.*`; node handlers reach their prefixed handle via
    /// [`NodeCtx::telemetry`].  Telemetry never touches simulation RNG or
    /// event ordering, so results are byte-identical with it on or off.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        for (i, driver) in self.drivers.iter_mut().enumerate() {
            driver.set_telemetry(node_telemetry(&telemetry, i));
        }
        self.telemetry = telemetry;
        self
    }

    /// The simulation-wide telemetry handle (disabled by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.drivers.len()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Immutable access to node `i`.
    pub fn node(&self, i: usize) -> &N {
        self.drivers[i].node()
    }

    /// Mutable access to node `i` (useful for post-run metric extraction).
    pub fn node_mut(&mut self, i: usize) -> &mut N {
        self.drivers[i].node_mut()
    }

    /// All nodes, in id order.
    pub fn nodes(&self) -> impl Iterator<Item = &N> {
        self.drivers.iter().map(NodeDriver::node)
    }

    /// The observation log accumulated so far.
    pub fn observations(&self) -> &ObservationLog {
        &self.observations
    }

    /// Outbound traffic statistics accumulated so far.
    pub fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// Total number of events processed (diagnostics): every key popped
    /// from the event queue — arrivals, CPU wakes, timers and link
    /// completions.  A delivery that waits for the CPU costs its arrival
    /// and the one wake that serves it.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The network configuration.
    pub fn net(&self) -> &NetConfig {
        &self.net
    }

    /// Schedules external (client) input to arrive at `to` at time `at`.
    /// An `at` already in the past is clamped to [`now`](Self::now): the
    /// input arrives next, and the clock does not run backwards for it.
    pub fn schedule_client_input(&mut self, at: SimTime, to: ReplicaId, msg: N::Msg) {
        self.queue.push(
            at.max(self.now),
            EventKind::Deliver {
                to,
                from: None,
                msg,
            },
        );
    }

    /// Runs the simulation until simulated time `until` (inclusive of
    /// events scheduled exactly at `until`).
    ///
    /// Scheduled faults interleave deterministically with events: every
    /// fault due at or before the next event's time fires first (and
    /// among faults, in schedule order).
    pub fn run_until(&mut self, until: SimTime) {
        if !self.started {
            self.started = true;
            for i in 0..self.drivers.len() {
                self.invoke(i, |d, now, out| d.start(now, out));
            }
        }
        loop {
            let next_event = self.queue.peek_time();
            let next_fault = self.faults.get(self.fault_idx).map(|(t, _)| *t);
            let (t, is_fault) = match (next_event, next_fault) {
                (None, None) => break,
                (Some(e), None) => (e, false),
                (None, Some(f)) => (f, true),
                (Some(e), Some(f)) => {
                    if f <= e {
                        (f, true)
                    } else {
                        (e, false)
                    }
                }
            };
            if t > until {
                break;
            }
            self.now = t;
            if is_fault {
                let action = self.faults[self.fault_idx].1.clone();
                self.fault_idx += 1;
                self.apply_fault(action);
                continue;
            }
            let key = self.queue.pop().expect("peeked event must exist");
            self.events_processed += 1;
            if let Some(idx) = key.wake_node() {
                if self.wake_seq[idx] == key.seq {
                    self.serve_next(idx);
                }
                continue;
            }
            match *self.queue.kind(key.slot) {
                EventKind::Deliver { to, from, .. } => self.arrive(key.slot, to.index(), from),
                EventKind::Timer { node, tag } => {
                    self.queue.take(key.slot);
                    let idx = node.index();
                    if self.crashed[idx] {
                        self.parked[idx].push(tag);
                        continue;
                    }
                    let _span = self.telemetry.span_at("simnet.timer", self.now);
                    self.invoke(idx, |d, now, out| d.timer(now, tag, out));
                }
                EventKind::LinkFree { node } => {
                    self.queue.take(key.slot);
                    let _span = self.telemetry.span_at("simnet.link_free", self.now);
                    self.links[node.index()].finish_current();
                    self.pump_link(node);
                }
            }
        }
        // Never backwards: handlers must not see time rewind.
        self.now = self.now.max(until);
    }

    /// Runs the simulation for `duration` more simulated time.
    pub fn run_for(&mut self, duration: SimTime) {
        let until = self.now.saturating_add(duration);
        self.run_until(until);
    }

    /// Applies one scripted fault at the current simulated time.
    fn apply_fault(&mut self, action: FaultAction) {
        match action {
            FaultAction::Crash(id) => {
                let idx = id.index();
                if !self.crashed[idx] {
                    self.crashed[idx] = true;
                    // Queued outbound messages die with the process; one
                    // already serializing is on the wire and survives.
                    self.links[idx].clear_queue();
                    // So do the deliveries waiting for its CPU; the wake
                    // that stood for them is left to pop, and finds the
                    // inbox empty or owned by a later wake.
                    for slot in self.inbox[idx].drain(..) {
                        self.queue.take(slot);
                    }
                    self.telemetry.instant_at("simnet.fault.crash", self.now);
                }
            }
            FaultAction::Restart(id) => {
                let idx = id.index();
                if self.crashed[idx] {
                    self.crashed[idx] = false;
                    // The node resumes with its state, the CPU idle and
                    // the RNG reseeded; the timers that came due while it
                    // was down fire now, in due order.
                    self.cpu_free[idx] = self.now;
                    self.telemetry.instant_at("simnet.fault.restart", self.now);
                    self.invoke(idx, |d, now, out| d.restart(now, out));
                    for tag in std::mem::take(&mut self.parked[idx]) {
                        let _span = self.telemetry.span_at("simnet.timer", self.now);
                        self.invoke(idx, |d, now, out| d.timer(now, tag, out));
                    }
                }
            }
            FaultAction::Partition(island) => {
                for (i, member) in self.island.iter_mut().enumerate() {
                    *member = island.contains(&ReplicaId(i as u32));
                }
                self.telemetry
                    .instant_at("simnet.fault.partition", self.now);
            }
            FaultAction::Heal => {
                self.island.fill(false);
                self.telemetry.instant_at("simnet.fault.heal", self.now);
            }
            FaultAction::DropBurst { duration } => {
                self.drop_until = self.now.saturating_add(duration);
                self.telemetry
                    .instant_at("simnet.fault.drop_burst", self.now);
            }
            FaultAction::DelayBurst {
                duration,
                min_us,
                max_us,
            } => {
                self.delay = DelayWindow {
                    until: self.now.saturating_add(duration),
                    min_us,
                    max_us: max_us.max(min_us),
                };
                self.telemetry
                    .instant_at("simnet.fault.delay_burst", self.now);
            }
            FaultAction::Fluctuation {
                duration,
                min_us,
                max_us,
            } => {
                self.fluctuation = DelayWindow {
                    until: self.now.saturating_add(duration),
                    min_us,
                    max_us,
                };
                self.telemetry
                    .instant_at("simnet.fault.fluctuation", self.now);
            }
        }
    }

    /// Whether node `i` is currently crashed by the fault plane.
    pub fn is_crashed(&self, i: usize) -> bool {
        self.crashed[i]
    }

    /// The arrival of the delivery in `slot` at node `idx`: through the
    /// active faults, once, then to the CPU or the back of the inbox.
    fn arrive(&mut self, slot: u32, idx: usize, from: Option<ReplicaId>) {
        // A dead NIC drops everything; client input is otherwise exempt
        // from network faults.
        let peer = from.is_some();
        let cut = from.is_some_and(|f| self.island[f.index()] != self.island[idx]);
        if self.crashed[idx] || cut || (peer && self.now < self.drop_until) {
            self.queue.take(slot);
            return;
        }
        if peer && self.now < self.delay.until {
            // Back on the wire, to arrive (and be filtered) again.
            let extra = self
                .fault_rng
                .gen_range(self.delay.min_us..=self.delay.max_us)
                .max(1);
            self.queue.requeue(slot, self.now + extra);
            return;
        }
        // CPU model: a delivery that finds the receiver still busy, or
        // others already waiting, queues behind them.
        let inbox = &mut self.inbox[idx];
        if !inbox.is_empty() {
            inbox.push_back(slot);
        } else if self.cpu_free[idx] > self.now {
            inbox.push_back(slot);
            self.wake_seq[idx] = self.queue.push_wake(self.cpu_free[idx], idx);
        } else {
            self.serve(idx, slot);
        }
    }

    /// A CPU wake: serves the head of node `idx`'s inbox and re-arms for
    /// the rest.
    fn serve_next(&mut self, idx: usize) {
        let Some(slot) = self.inbox[idx].pop_front() else {
            return;
        };
        self.serve(idx, slot);
        if !self.inbox[idx].is_empty() {
            self.wake_seq[idx] = self.queue.push_wake(self.cpu_free[idx], idx);
        }
    }

    /// Hands the delivery in `slot` to node `idx`, whose CPU it occupies
    /// for the message's cost.
    fn serve(&mut self, idx: usize, slot: u32) {
        let EventKind::Deliver { from, msg, .. } = self.queue.take(slot) else {
            unreachable!("only deliveries are served");
        };
        let _span = self.telemetry.span_at("simnet.deliver", self.now);
        self.cpu_free[idx] = self.now + from_micros_f64(msg.cpu_cost_us());
        match from {
            Some(f) => self.invoke(idx, |d, now, out| d.deliver(now, f, msg, out)),
            None => self.invoke(idx, |d, now, out| d.client_input(now, msg, out)),
        }
    }

    /// Runs one handler of node `idx` through its driver, then applies
    /// the actions it recorded.
    fn invoke(
        &mut self,
        idx: usize,
        handler: impl FnOnce(&mut NodeDriver<N>, SimTime, &mut Vec<NodeAction<N::Msg>>),
    ) {
        debug_assert!(self.action_buf.is_empty());
        let mut actions = std::mem::take(&mut self.action_buf);
        handler(&mut self.drivers[idx], self.now, &mut actions);
        let sender = ReplicaId(idx as u32);
        for action in actions.drain(..) {
            self.apply(sender, action);
        }
        self.action_buf = actions;
    }

    fn apply(&mut self, sender: ReplicaId, action: NodeAction<N::Msg>) {
        match action {
            NodeAction::Send { to, msg } => self.send_message(sender, to, msg),
            NodeAction::SetTimer { at, tag } => {
                self.queue.push(at, EventKind::Timer { node: sender, tag });
            }
            NodeAction::Observe(obs) => self.observations.push(obs),
        }
    }

    fn send_message(&mut self, from: ReplicaId, to: ReplicaId, msg: N::Msg) {
        let bytes = msg.wire_size();
        self.traffic.record(from, msg.kind(), bytes);
        let t = self.drivers[from.index()].telemetry();
        t.counter_add("net.bytes_out", bytes as u64);
        t.counter_inc("net.msgs_out");
        if from == to {
            // Loopback: no NIC serialization, negligible delay.
            self.queue.push(
                self.now + 1,
                EventKind::Deliver {
                    to,
                    from: Some(from),
                    msg,
                },
            );
            return;
        }
        let priority = if msg.high_priority() {
            Priority::High
        } else {
            Priority::Normal
        };
        let link = &mut self.links[from.index()];
        link.enqueue(QueuedMessage { to, msg, bytes }, priority);
        if !link.is_busy() {
            self.pump_link(from);
        }
    }

    /// Starts transmitting the next queued message on `node`'s link, if any.
    fn pump_link(&mut self, node: ReplicaId) {
        let idx = node.index();
        let Some(item) = self.links[idx].start_next() else {
            return;
        };
        let ser = self.net.serialization_us(item.bytes);
        let done = self.now + ser;
        self.queue.push(done, EventKind::LinkFree { node });
        // The delay comes out of the sender's own stream: base delay +
        // jitter, or in a fluctuation one draw in their place.
        let rng = self.drivers[idx].rng();
        let f = self.fluctuation;
        let prop = if self.now < f.until {
            let span = f.max_us.saturating_sub(f.min_us);
            let extra = if span == 0 {
                0
            } else {
                rng.gen_range(0..=span)
            };
            f.min_us + extra
        } else {
            self.net.propagation_us(node, item.to, rng)
        };
        self.queue.push(
            done + prop,
            EventKind::Deliver {
                to: item.to,
                from: Some(node),
                msg: item.msg,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::ObsKind;
    use smp_types::MICROS_PER_MS;

    #[derive(Clone, Debug)]
    #[allow(dead_code)]
    enum TestMsg {
        Small(u64),
        Big,
    }

    impl SimMessage for TestMsg {
        fn wire_size(&self) -> usize {
            match self {
                TestMsg::Small(_) => 100,
                TestMsg::Big => 1_250_000, // 10 Mb => 100 ms at 100 Mb/s
            }
        }
        fn kind(&self) -> &'static str {
            match self {
                TestMsg::Small(_) => "small",
                TestMsg::Big => "big",
            }
        }
        fn high_priority(&self) -> bool {
            matches!(self, TestMsg::Small(_))
        }
        fn cpu_cost_us(&self) -> f64 {
            1.0
        }
    }

    /// Records every message it receives along with the arrival time.
    struct Recorder {
        received: Vec<(SimTime, ReplicaId, &'static str)>,
        echo: bool,
        timer_fired: Vec<TimerTag>,
    }

    impl Recorder {
        fn new(echo: bool) -> Self {
            Recorder {
                received: Vec::new(),
                echo,
                timer_fired: Vec::new(),
            }
        }
    }

    impl Node for Recorder {
        type Msg = TestMsg;
        fn on_start(&mut self, ctx: &mut NodeCtx<'_, TestMsg>) {
            if ctx.id() == ReplicaId(0) && self.echo {
                ctx.send(ReplicaId(1), TestMsg::Small(1));
            }
        }
        fn on_message(&mut self, ctx: &mut NodeCtx<'_, TestMsg>, from: ReplicaId, msg: TestMsg) {
            self.received.push((ctx.now(), from, msg.kind()));
            ctx.observe(ObsKind::Custom {
                label: "recv".into(),
                value: 1.0,
            });
        }
        fn on_timer(&mut self, _ctx: &mut NodeCtx<'_, TestMsg>, tag: TimerTag) {
            self.timer_fired.push(tag);
        }
    }

    fn two_nodes(echo: bool) -> Simulation<Recorder> {
        Simulation::new(
            vec![Recorder::new(echo), Recorder::new(false)],
            NetConfig::wan(),
            7,
        )
    }

    #[test]
    fn message_arrives_after_serialization_and_propagation() {
        let mut sim = two_nodes(true);
        sim.run_until(MICROS_PER_MS * 200);
        let rec = &sim.node(1).received;
        assert_eq!(rec.len(), 1);
        let (t, from, kind) = rec[0];
        assert_eq!(from, ReplicaId(0));
        assert_eq!(kind, "small");
        // 100 B at 100 Mb/s is 8 us; one-way delay is 50 ms (+ up to 2 ms jitter).
        assert!((50_000..=53_000).contains(&t), "arrival at {t}");
    }

    #[test]
    fn client_input_is_delivered() {
        let mut sim = two_nodes(false);
        sim.schedule_client_input(10_000, ReplicaId(1), TestMsg::Small(9));
        sim.run_until(20_000);
        assert_eq!(sim.node(1).received.len(), 1);
    }

    #[test]
    fn big_messages_delay_subsequent_sends_on_same_link() {
        // Node 0 sends Big then Small to node 1; the Big is already
        // serializing when the Small is queued, so the Small arrives
        // ~100 ms later than it would on an idle link.
        struct Mixed {
            sender: bool,
            received: Vec<(SimTime, &'static str)>,
        }
        impl Node for Mixed {
            type Msg = TestMsg;
            fn on_start(&mut self, ctx: &mut NodeCtx<'_, TestMsg>) {
                if self.sender {
                    ctx.send(ReplicaId(1), TestMsg::Big);
                    ctx.send(ReplicaId(1), TestMsg::Small(1));
                }
            }
            fn on_message(&mut self, ctx: &mut NodeCtx<'_, TestMsg>, _: ReplicaId, msg: TestMsg) {
                self.received.push((ctx.now(), msg.kind()));
            }
            fn on_timer(&mut self, _: &mut NodeCtx<'_, TestMsg>, _: TimerTag) {}
        }
        let nodes = vec![
            Mixed {
                sender: true,
                received: Vec::new(),
            },
            Mixed {
                sender: false,
                received: Vec::new(),
            },
        ];
        let mut sim = Simulation::new(nodes, NetConfig::wan(), 7);
        sim.run_until(MICROS_PER_MS * 400);
        let rec = &sim.node(1).received;
        assert_eq!(rec.len(), 2);
        // The big message serializes for 100 ms; the small one starts after.
        let small_arrival = rec.iter().find(|(_, k)| *k == "small").unwrap().0;
        assert!(
            small_arrival >= 100_000 + 50_000,
            "small arrived at {small_arrival}"
        );
    }

    #[test]
    fn traffic_stats_account_outbound_bytes_by_kind() {
        let mut sim = two_nodes(true);
        sim.run_until(MICROS_PER_MS * 200);
        let by_kind = sim.traffic().total_by_kind();
        assert_eq!(by_kind.get("small"), Some(&100));
        assert_eq!(by_kind.len(), 1);
        assert_eq!(sim.traffic().total_messages_of_kind("small"), 1);
        assert_eq!(sim.traffic().total_messages_of_kind("big"), 0);
    }

    #[test]
    fn observations_are_collected() {
        let mut sim = two_nodes(true);
        sim.run_until(MICROS_PER_MS * 200);
        assert_eq!(sim.observations().len(), 1);
    }

    #[test]
    fn timers_fire_and_cancel() {
        struct TimerNode {
            fired: Vec<(SimTime, TimerTag)>,
        }
        impl Node for TimerNode {
            type Msg = TestMsg;
            fn on_start(&mut self, ctx: &mut NodeCtx<'_, TestMsg>) {
                ctx.set_timer(3_000, 3);
                ctx.set_timer(1_000, 1);
                ctx.set_timer(3_000, 4);
            }
            fn on_message(&mut self, _: &mut NodeCtx<'_, TestMsg>, _: ReplicaId, _: TestMsg) {}
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_, TestMsg>, tag: TimerTag) {
                self.fired.push((ctx.now(), tag));
            }
        }
        let mut sim = Simulation::new(vec![TimerNode { fired: Vec::new() }], NetConfig::lan(), 1);
        sim.run_until(10_000);
        assert_eq!(sim.node(0).fired, vec![(1_000, 1), (3_000, 3), (3_000, 4)]);
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = |seed: u64| {
            let nodes = vec![Recorder::new(true), Recorder::new(false)];
            let mut sim = Simulation::new(nodes, NetConfig::wan(), seed);
            sim.run_until(MICROS_PER_MS * 200);
            sim.node(1).received.clone()
        };
        assert_eq!(run(7), run(7));
        // The WAN's jitter is drawn from the seed, so the echo lands at a
        // different microsecond under another one.
        assert_ne!(run(7)[0].0, run(8)[0].0);
    }

    #[test]
    fn telemetry_records_dispatch_spans_and_net_counters() {
        // Besides the echo, three client inputs land on node 1 in the
        // same microsecond, so two of them wait for its CPU.
        let build = || {
            let mut sim = two_nodes(true);
            for i in 0..3 {
                sim.schedule_client_input(10_000, ReplicaId(1), TestMsg::Small(i));
            }
            sim
        };
        let telemetry = Telemetry::new();
        let mut sim = build().with_telemetry(telemetry.clone());
        sim.run_until(MICROS_PER_MS * 200);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("replica.0.net.bytes_out"), Some(100));
        assert_eq!(snap.counter("replica.0.net.msgs_out"), Some(1));
        assert_eq!(snap.counter("replica.1.net.msgs_out"), None);
        let profile = telemetry.profile();
        assert_eq!(profile["simnet.link_free"].count, 1);
        // A span per delivery served.  Events: the link completion, four
        // arrivals and the two wakes that served the waiting inputs.
        assert_eq!(sim.node(1).received.len(), 4);
        assert_eq!(profile["simnet.deliver"].count, 4);
        assert_eq!(sim.events_processed(), 1 + 4 + 2);
        // Node handlers see their prefixed handle; results stay identical
        // to an uninstrumented run.
        let mut plain = build();
        plain.run_until(MICROS_PER_MS * 200);
        assert_eq!(plain.node(1).received, sim.node(1).received);
        assert_eq!(plain.observations(), sim.observations());
    }

    #[test]
    fn run_until_advances_clock_even_without_events() {
        let mut sim = two_nodes(false);
        sim.run_until(123_456);
        assert_eq!(sim.now(), 123_456);
    }

    #[test]
    fn run_until_an_earlier_time_does_not_rewind_the_clock() {
        let mut sim = two_nodes(false);
        sim.run_until(100);
        sim.run_until(50);
        assert_eq!(sim.now(), 100);
    }

    #[test]
    fn client_input_scheduled_in_the_past_arrives_now() {
        let mut sim = two_nodes(true);
        sim.run_until(MICROS_PER_MS * 100);
        assert_eq!(sim.node(1).received.len(), 1, "the echo has been served");
        sim.schedule_client_input(10, ReplicaId(1), TestMsg::Small(9));
        sim.run_until(MICROS_PER_MS * 200);
        let times: Vec<SimTime> = sim.node(1).received.iter().map(|r| r.0).collect();
        assert_eq!(times.len(), 2);
        assert!(times[0] < MICROS_PER_MS * 100);
        assert_eq!(times[1], MICROS_PER_MS * 100);
        assert_eq!(sim.now(), MICROS_PER_MS * 200);
    }

    #[test]
    fn empty_fault_schedule_is_byte_identical() {
        let run = |faulted: bool| {
            let mut sim = two_nodes(true);
            if faulted {
                sim = sim.with_faults(FaultSchedule::new());
            }
            sim.run_until(MICROS_PER_MS * 200);
            sim.node(1).received.clone()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn deliveries_to_a_crashed_node_are_dropped() {
        let mut sim = two_nodes(true)
            .with_faults(FaultSchedule::new().at(1, FaultAction::Crash(ReplicaId(1))));
        sim.run_until(MICROS_PER_MS * 200);
        assert!(sim.is_crashed(1));
        assert!(sim.node(1).received.is_empty());
    }

    #[test]
    fn partition_severs_cross_island_links_until_heal() {
        // The echo at t=0 crosses the cut and dies; after Heal a second
        // client-injected round trip would flow again — here we assert
        // the cut itself plus that client input is exempt.
        let mut sim = two_nodes(true).with_faults(
            FaultSchedule::new()
                .at(1, FaultAction::Partition(vec![ReplicaId(1)]))
                .at(MICROS_PER_MS * 100, FaultAction::Heal),
        );
        sim.schedule_client_input(10_000, ReplicaId(1), TestMsg::Small(9));
        sim.run_until(MICROS_PER_MS * 200);
        let kinds: Vec<_> = sim.node(1).received.iter().map(|(_, _, k)| *k).collect();
        assert_eq!(kinds, vec!["small"], "only the client input survives");
    }

    #[test]
    fn drop_burst_swallows_peer_deliveries_in_window() {
        let mut sim = two_nodes(true).with_faults(FaultSchedule::new().at(
            1,
            FaultAction::DropBurst {
                duration: MICROS_PER_MS * 100,
            },
        ));
        sim.run_until(MICROS_PER_MS * 200);
        assert!(sim.node(1).received.is_empty());
    }

    #[test]
    fn delay_burst_defers_deliveries_deterministically() {
        let run = || {
            let mut sim = two_nodes(true).with_faults(FaultSchedule::new().at(
                1,
                FaultAction::DelayBurst {
                    duration: MICROS_PER_MS * 100,
                    min_us: 10_000,
                    max_us: 10_000,
                },
            ));
            sim.run_until(MICROS_PER_MS * 200);
            sim.node(1).received.clone()
        };
        let rec = run();
        assert_eq!(rec.len(), 1);
        // Normal arrival is 50-52 ms, well inside the 100 ms window; the
        // burst keeps deferring the delivery in 10 ms hops until it
        // lands past the window's end.
        assert!(
            (100_000..=115_000).contains(&rec[0].0),
            "arrival at {}",
            rec[0].0
        );
        assert_eq!(rec, run(), "burst jitter must replay identically");
    }

    /// The one-way delay of a message node 0 sends to node 1 at each of
    /// `sends` (WAN, seed 7) under `faults`, in arrival order: arrival −
    /// departure − the 8 µs a 100-byte message takes to serialize at
    /// 100 Mb/s.
    fn delays(faults: FaultSchedule, sends: &[SimTime]) -> Vec<SimTime> {
        /// Node 0 forwards each client input, stamped with its departure
        /// time, to node 1 at once.
        struct Forwarder {
            delays: Vec<SimTime>,
        }
        impl Node for Forwarder {
            type Msg = TestMsg;
            fn on_start(&mut self, _: &mut NodeCtx<'_, TestMsg>) {}
            fn on_message(&mut self, ctx: &mut NodeCtx<'_, TestMsg>, _: ReplicaId, msg: TestMsg) {
                let TestMsg::Small(sent) = msg else {
                    unreachable!("only small messages are sent")
                };
                self.delays.push(ctx.now() - sent - 8);
            }
            fn on_client_input(&mut self, ctx: &mut NodeCtx<'_, TestMsg>, msg: TestMsg) {
                ctx.send(ReplicaId(1), msg);
            }
            fn on_timer(&mut self, _: &mut NodeCtx<'_, TestMsg>, _: TimerTag) {}
        }
        let nodes = (0..2).map(|_| Forwarder { delays: vec![] }).collect();
        let mut sim = Simulation::new(nodes, NetConfig::wan(), 7).with_faults(faults);
        for &at in sends {
            sim.schedule_client_input(at, ReplicaId(0), TestMsg::Small(at));
        }
        sim.run_until(MICROS_PER_MS * 1_000);
        let delays = sim.node(1).delays.clone();
        assert_eq!(delays.len(), sends.len());
        delays
    }

    fn fluctuation(min_us: SimTime, max_us: SimTime) -> FaultSchedule {
        FaultSchedule::new().at(
            10_000,
            FaultAction::Fluctuation {
                duration: 1_000,
                min_us,
                max_us,
            },
        )
    }

    #[test]
    fn a_message_leaving_inside_a_fluctuation_takes_its_delay() {
        let sends: Vec<SimTime> = (10_000..11_000).step_by(50).collect();
        for d in delays(fluctuation(100_000, 300_000), &sends) {
            assert!((100_000..=300_000).contains(&d), "delay {d}");
        }
    }

    #[test]
    fn a_message_leaving_as_a_fluctuation_ends_takes_base_delay_and_jitter() {
        let wan = NetConfig::wan();
        let base = wan.one_way_delay_us..=wan.one_way_delay_us + wan.jitter_us;
        for d in delays(fluctuation(100_000, 300_000), &[9_999, 11_000, 11_001]) {
            assert!(base.contains(&d), "delay {d}");
        }
    }

    #[test]
    fn a_fluctuation_with_one_bound_delays_by_exactly_it() {
        let sends = [10_000, 10_300, 10_999];
        assert_eq!(delays(fluctuation(150_000, 150_000), &sends), [150_000; 3]);
    }

    #[test]
    fn restart_fires_the_timers_due_while_down_and_resumes_the_node() {
        /// Arms three timers at boot, out of due order, and counts boots.
        struct Phoenix {
            starts: u64,
            fired: Vec<(SimTime, TimerTag)>,
        }
        impl Node for Phoenix {
            type Msg = TestMsg;
            fn on_start(&mut self, ctx: &mut NodeCtx<'_, TestMsg>) {
                ctx.set_timer(7_000, 2);
                ctx.set_timer(5_000, 1);
                ctx.set_timer(12_000, 3);
                self.starts += 1;
            }
            fn on_message(&mut self, _: &mut NodeCtx<'_, TestMsg>, _: ReplicaId, _: TestMsg) {}
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_, TestMsg>, tag: TimerTag) {
                self.fired.push((ctx.now(), tag));
            }
        }
        let nodes = vec![Phoenix {
            starts: 0,
            fired: Vec::new(),
        }];
        let mut sim = Simulation::new(nodes, NetConfig::lan(), 1).with_faults(
            FaultSchedule::new()
                .at(2_000, FaultAction::Crash(ReplicaId(0)))
                .at(10_000, FaultAction::Restart(ReplicaId(0))),
        );
        sim.run_until(9_000);
        assert!(sim.node(0).fired.is_empty(), "a crashed node runs nothing");
        sim.run_until(30_000);
        // The timers due at 5 and 7 ms, while the node was down, fire at
        // the restart in due order; the one due at 12 ms fires on time.
        // The default `on_restart` does not boot the node again.
        assert_eq!(sim.node(0).starts, 1);
        assert_eq!(
            sim.node(0).fired,
            vec![(10_000, 1), (10_000, 2), (12_000, 3)]
        );
        assert!(!sim.is_crashed(0));
        assert_eq!(sim.queue.len(), 0);
    }

    #[test]
    fn restart_reseeds_the_node_rng() {
        /// Records its first RNG draw at boot and at every restart.
        struct Dice(Vec<u64>);
        impl Node for Dice {
            type Msg = TestMsg;
            fn on_start(&mut self, ctx: &mut NodeCtx<'_, TestMsg>) {
                self.0.push(ctx.rng().gen());
                // Jitter on the way out advances the stream past that draw.
                ctx.send(ReplicaId(1 - ctx.id().0), TestMsg::Small(0));
            }
            fn on_restart(&mut self, ctx: &mut NodeCtx<'_, TestMsg>) {
                self.on_start(ctx);
            }
            fn on_message(&mut self, _: &mut NodeCtx<'_, TestMsg>, _: ReplicaId, _: TestMsg) {}
            fn on_timer(&mut self, _: &mut NodeCtx<'_, TestMsg>, _: TimerTag) {}
        }
        let nodes = vec![Dice(Vec::new()), Dice(Vec::new())];
        let mut sim = Simulation::new(nodes, NetConfig::wan(), 7).with_faults(
            FaultSchedule::new()
                .at(2_000, FaultAction::Crash(ReplicaId(1)))
                .at(10_000, FaultAction::Restart(ReplicaId(1))),
        );
        sim.run_until(30_000);
        let draws = &sim.node(1).0;
        assert_eq!(draws.len(), 2);
        assert_eq!(draws[0], draws[1]);
        assert_ne!(draws[0], sim.node(0).0[0], "each node has its own stream");
    }

    #[test]
    fn crash_loses_queued_outbound_but_not_in_flight() {
        // Node 0 queues Big then Small at start: Big starts serializing
        // immediately (on the wire, ~100 ms), Small sits in the link
        // queue behind it.  A crash at 1 ms clears the queue, so only
        // the in-flight Big arrives.
        struct Sender {
            received: Vec<&'static str>,
        }
        impl Node for Sender {
            type Msg = TestMsg;
            fn on_start(&mut self, ctx: &mut NodeCtx<'_, TestMsg>) {
                if ctx.id() == ReplicaId(0) {
                    ctx.send(ReplicaId(1), TestMsg::Big);
                    ctx.send(ReplicaId(1), TestMsg::Small(1));
                }
            }
            fn on_message(&mut self, _: &mut NodeCtx<'_, TestMsg>, _: ReplicaId, msg: TestMsg) {
                self.received.push(msg.kind());
            }
            fn on_timer(&mut self, _: &mut NodeCtx<'_, TestMsg>, _: TimerTag) {}
        }
        let nodes = (0..2)
            .map(|_| Sender {
                received: Vec::new(),
            })
            .collect();
        let mut sim = Simulation::new(nodes, NetConfig::wan(), 7)
            .with_faults(FaultSchedule::new().at(MICROS_PER_MS, FaultAction::Crash(ReplicaId(0))));
        sim.run_until(MICROS_PER_MS * 400);
        assert_eq!(sim.node(1).received, vec!["big"]);
    }

    // ----- the CPU inbox: the FIFO rules, by name -----

    #[derive(Clone, Debug)]
    struct Job {
        id: u64,
        cost: u32,
    }

    impl SimMessage for Job {
        fn wire_size(&self) -> usize {
            100
        }
        fn kind(&self) -> &'static str {
            "job"
        }
        fn cpu_cost_us(&self) -> f64 {
            self.cost as f64
        }
    }

    /// Sends its `outbox` at boot and records every job it serves.
    #[derive(Default)]
    struct Worker {
        outbox: Vec<(ReplicaId, Job)>,
        served: Vec<(SimTime, u64)>,
    }

    impl Node for Worker {
        type Msg = Job;
        fn on_start(&mut self, ctx: &mut NodeCtx<'_, Job>) {
            for (to, job) in self.outbox.drain(..) {
                ctx.send(to, job);
            }
        }
        fn on_message(&mut self, ctx: &mut NodeCtx<'_, Job>, _: ReplicaId, job: Job) {
            self.served.push((ctx.now(), job.id));
        }
        fn on_timer(&mut self, _: &mut NodeCtx<'_, Job>, _: TimerTag) {}
    }

    /// Node 0 sends `costs.len()` jobs (ids 1, 2, …) to node 1.  With no
    /// jitter and 1 µs of serialization each they land at 2 001, 2 002, …
    fn pipeline(costs: &[u32]) -> Simulation<Worker> {
        let outbox = costs
            .iter()
            .zip(1..)
            .map(|(&cost, id)| (ReplicaId(1), Job { id, cost }))
            .collect();
        let sender = Worker {
            outbox,
            ..Worker::default()
        };
        let mut net = NetConfig::lan();
        net.jitter_us = 0;
        Simulation::new(vec![sender, Worker::default()], net, 7)
    }

    fn client_job(sim: &mut Simulation<Worker>, at: SimTime, id: u64, cost: u32) {
        sim.schedule_client_input(at, ReplicaId(0), Job { id, cost });
    }

    #[test]
    fn fresh_arrival_at_cpu_free_joins_the_back_of_the_backlog() {
        let mut sim = Simulation::new(vec![Worker::default()], NetConfig::lan(), 7);
        client_job(&mut sim, 10, 1, 50); // served at 10, CPU busy until 60
        client_job(&mut sim, 20, 2, 5); // waits; arms the wake at 60
        client_job(&mut sim, 30, 3, 5); // waits

        // Due at exactly `cpu_free`, and scheduled before the wake was
        // armed: it still queues behind jobs 2 and 3, which came first.
        client_job(&mut sim, 60, 4, 5);
        sim.run_until(1_000);
        assert_eq!(sim.node(0).served, vec![(10, 1), (60, 2), (65, 3), (70, 4)]);
        // Four arrivals and one wake per waiting job.
        assert_eq!(sim.events_processed(), 4 + 3);
        assert_eq!(sim.queue.len(), 0);
    }

    #[test]
    fn a_delivery_that_arrived_before_a_fault_window_is_still_served() {
        // Jobs 2 and 3 land at 2 002 and 2 003 and wait for job 1 to
        // finish at 3 001.  A window opening at 2 500 no longer reaches
        // them: they passed the fault plane when they arrived.
        let windows = [
            FaultSchedule::new().at(2_500, FaultAction::DropBurst { duration: 1_000 }),
            FaultSchedule::new()
                .at(2_500, FaultAction::Partition(vec![ReplicaId(1)]))
                .at(3_500, FaultAction::Heal),
            FaultSchedule::new().at(
                2_500,
                FaultAction::DelayBurst {
                    duration: 1_000,
                    min_us: 5_000,
                    max_us: 5_000,
                },
            ),
        ];
        for faults in windows {
            let mut sim = pipeline(&[1_000, 10, 10]).with_faults(faults.clone());
            sim.run_until(20_000);
            assert_eq!(
                sim.node(1).served,
                vec![(2_001, 1), (3_001, 2), (3_011, 3)],
                "{faults:?}"
            );
        }
    }

    #[test]
    fn backlogged_delivery_inside_a_drop_burst_is_dropped() {
        // Job 1 lands at 2 001 and keeps the CPU until 3 001.  Jobs 2 and
        // 3 land at 2 002 and 2 003, inside the burst: dropped as they
        // arrive, they never join the inbox.
        let mut sim = pipeline(&[1_000, 10, 10]).with_faults(
            FaultSchedule::new().at(2_002, FaultAction::DropBurst { duration: 1_000 }),
        );
        sim.run_until(2_010);
        assert!(sim.inbox[1].is_empty());
        sim.run_until(20_000);
        assert_eq!(sim.node(1).served, vec![(2_001, 1)]);
        assert_eq!(sim.queue.len(), 0);
    }

    #[test]
    fn backlogged_delivery_inside_a_delay_burst_is_re_delayed() {
        let mut sim = pipeline(&[1_000, 10, 10]).with_faults(FaultSchedule::new().at(
            2_002,
            FaultAction::DelayBurst {
                duration: 1_000,
                min_us: 5_000,
                max_us: 5_000,
            },
        ));
        // Jobs 2 and 3 land inside the burst, CPU busy: back on the wire
        // for 5 ms rather than into the inbox, then one after the other.
        sim.run_until(2_010);
        assert!(sim.inbox[1].is_empty());
        sim.run_until(20_000);
        assert_eq!(sim.node(1).served, vec![(2_001, 1), (7_002, 2), (7_012, 3)]);
    }

    #[test]
    fn crash_empties_the_inbox_and_an_early_restart_starts_empty() {
        // Jobs 2–4 wait for the CPU until 3 001.  The node dies at 2 100
        // and is back at 2 200, CPU idle.
        let mut sim = pipeline(&[1_000, 100, 100, 100]).with_faults(
            FaultSchedule::new()
                .at(2_100, FaultAction::Crash(ReplicaId(1)))
                .at(2_200, FaultAction::Restart(ReplicaId(1))),
        );
        sim.run_until(2_150);
        // The backlog died with the process; only the wake armed for it
        // remains.
        assert!(sim.inbox[1].is_empty());
        assert_eq!(sim.queue.len(), 1);
        sim.run_until(20_000);
        assert_eq!(sim.node(1).served, vec![(2_001, 1)]);
        assert_eq!(sim.queue.len(), 0);
    }

    #[test]
    fn crash_with_backlog_then_early_restart_delivers_in_order_and_once() {
        let mut sim = pipeline(&[1_000, 100, 100, 100]).with_faults(
            FaultSchedule::new()
                .at(2_100, FaultAction::Crash(ReplicaId(1)))
                .at(2_200, FaultAction::Restart(ReplicaId(1))),
        );
        let input = |id, cost| Job { id, cost };
        sim.schedule_client_input(2_500, ReplicaId(1), input(9, 1_000));
        sim.schedule_client_input(2_600, ReplicaId(1), input(10, 10));
        sim.schedule_client_input(2_700, ReplicaId(1), input(11, 10));
        sim.run_until(20_000);
        // Job 9 finds the restarted node idle; jobs 10 and 11 wait for
        // it, in arrival order, and the old wake at 3 001 serves neither
        // early nor twice.
        assert_eq!(
            sim.node(1).served,
            vec![(2_001, 1), (2_500, 9), (3_500, 10), (3_510, 11)]
        );
        assert_eq!(sim.queue.len(), 0);
    }

    #[test]
    fn crash_with_backlog_and_late_restart_drops_it_at_the_dead_nic() {
        // Job 2 waits for the CPU when the node dies at 2 003; jobs 3 and
        // 4, still on the wire, land at the dead NIC.  The restart comes
        // after the CPU would have freed up: none of them is served.
        let mut sim = pipeline(&[1_000, 100, 100, 100]).with_faults(
            FaultSchedule::new()
                .at(2_003, FaultAction::Crash(ReplicaId(1)))
                .at(3_002, FaultAction::Restart(ReplicaId(1))),
        );
        sim.run_until(2_010);
        assert!(sim.inbox[1].is_empty());
        sim.run_until(20_000);
        assert_eq!(sim.node(1).served, vec![(2_001, 1)]);
        assert_eq!(sim.queue.len(), 0);
    }

    #[test]
    fn one_heap_entry_per_backlogged_node() {
        // 64 senders, one job each to node 0, all landing at 2 001.
        let mut nodes = vec![Worker::default()];
        nodes.extend((1..=64).map(|id| Worker {
            outbox: vec![(ReplicaId(0), Job { id, cost: 50 })],
            ..Worker::default()
        }));
        let mut net = NetConfig::lan();
        net.jitter_us = 0;
        let mut sim = Simulation::new(nodes, net, 7);
        for step in 0..64 {
            sim.run_until(2_001 + 50 * step + 25);
            // Nothing is in flight any more: the whole backlog stands
            // behind one wake.
            let waiting = 63 - step as usize;
            assert_eq!(sim.inbox[0].len(), waiting);
            assert_eq!(sim.queue.len(), waiting.min(1));
        }
        let served: Vec<_> = (0..64).map(|i| (2_001 + 50 * i, i + 1)).collect();
        assert_eq!(sim.node(0).served, served);
        // Linear in the backlog: 64 link completions, 64 arrivals and a
        // wake for each of the 63 that waited — not a retry of every
        // waiting job at every service, 64 · 65 / 2 in all.
        assert_eq!(sim.events_processed(), 64 + 64 + 63);
    }
}
