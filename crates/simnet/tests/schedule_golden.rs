//! Golden schedules: the simulator's exact event order, pinned.
//!
//! A toy node with 1–60 µs message costs, fan-out to 3..n peers
//! (loopback included) and zero-delay / 1 µs timers runs overloaded on a
//! network with a 20–23 µs one-way delay, so receivers are backlogged
//! throughout and same-microsecond ties — backlog against fresh arrivals,
//! timers and link completions — are the norm.  Each case digests every
//! handler invocation `(now, node, kind, from, cost)` in emission order
//! together with `events_processed()`, plain and under a fault schedule
//! whose crashes land on backlogs, whose restarts come before the crashed
//! node's CPU would have freed and fire the timers that came due while it
//! was down, and whose delay burst, drop burst and partition each cover a
//! backlog.
//!
//! The constants were recorded when CPU inboxes became arrival-order
//! FIFOs, the faulted ones again when a restarted node began to resume
//! with its timers instead of booting afresh; a change to how `simnet`
//! stores or orders events is proven schedule-preserving by this file
//! passing untouched.
//!
//! To re-record: `GOLDEN_PRINT=1 cargo test -p simnet --test
//! schedule_golden -- --nocapture` prints the table rows.

use rand::Rng;
use simnet::{
    FaultAction, FaultSchedule, NetConfig, Node, NodeCtx, ObsKind, SimMessage, Simulation, TimerTag,
};
use smp_types::{ReplicaId, SimTime};

#[derive(Clone, Debug)]
struct Toy {
    kind: &'static str,
    cost: u8,
    hops: u8,
}

impl SimMessage for Toy {
    fn wire_size(&self) -> usize {
        64 + 8 * self.cost as usize
    }
    fn kind(&self) -> &'static str {
        self.kind
    }
    fn cpu_cost_us(&self) -> f64 {
        self.cost as f64
    }
    fn high_priority(&self) -> bool {
        self.kind == "ack"
    }
}

struct Chatter {
    /// Timer rounds the node runs.
    rounds: u64,
}

impl Chatter {
    fn note(ctx: &mut NodeCtx<'_, Toy>, label: &'static str, value: u64) {
        ctx.observe(ObsKind::Custom {
            label: label.into(),
            value: value as f64,
        });
    }

    /// Sends `kind` to 3..n targets drawn with replacement from all
    /// nodes, this one included (loopback lands 1 µs later).
    fn fan_out(ctx: &mut NodeCtx<'_, Toy>, kind: &'static str, hops: u8) {
        let n = ctx.n() as u32;
        let k = ctx.rng().gen_range(3..n);
        for _ in 0..k {
            let to = ReplicaId(ctx.rng().gen_range(0..n));
            let cost = ctx.rng().gen_range(1..=60);
            ctx.send(to, Toy { kind, cost, hops });
        }
    }
}

impl Node for Chatter {
    type Msg = Toy;

    fn on_start(&mut self, ctx: &mut NodeCtx<'_, Toy>) {
        Self::note(ctx, "start", 0);
        ctx.set_timer(0, self.rounds);
        ctx.set_timer(1, 0);
        Self::fan_out(ctx, "data", 1);
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_, Toy>, from: ReplicaId, msg: Toy) {
        Self::note(ctx, msg.kind, from.0 as u64 * 100 + msg.cost as u64);
        if msg.hops == 0 {
            return;
        }
        let cost = ctx.rng().gen_range(1..=20);
        ctx.send(
            from,
            Toy {
                kind: "ack",
                cost,
                hops: 0,
            },
        );
        match ctx.rng().gen_range(0..8) {
            0 => Self::fan_out(ctx, "fwd", msg.hops - 1),
            1 => {
                ctx.set_timer(0, 0);
            }
            _ => {}
        }
    }

    fn on_client_input(&mut self, ctx: &mut NodeCtx<'_, Toy>, msg: Toy) {
        Self::note(ctx, "client", msg.cost as u64);
        Self::fan_out(ctx, "data", 1);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, Toy>, tag: TimerTag) {
        Self::note(ctx, "timer", tag);
        if tag == 0 {
            return;
        }
        Self::fan_out(ctx, "data", 1);
        let delay = match ctx.rng().gen_range(0..4) {
            0 => 0,
            1 => 1,
            _ => ctx.rng().gen_range(100..500),
        };
        ctx.set_timer(delay, tag - 1);
    }
}

/// Every fault kind, each over a standing backlog.  Crash → restart gaps
/// of 2–7 µs are far below the mean message cost, so the node resumes
/// before its CPU would have freed, with the wake armed for the backlog it
/// lost still in the queue.
fn faults(n: u32) -> FaultSchedule {
    let r = ReplicaId;
    FaultSchedule::new()
        .at(400, FaultAction::Crash(r(1)))
        .at(402, FaultAction::Restart(r(1)))
        .at(700, FaultAction::Crash(r(n - 1)))
        .at(707, FaultAction::Restart(r(n - 1)))
        .at(900, FaultAction::Crash(r(2)))
        .at(
            1_400,
            FaultAction::DelayBurst {
                duration: 300,
                min_us: 0,
                max_us: 90,
            },
        )
        .at(1_500, FaultAction::Crash(r(0)))
        .at(1_505, FaultAction::Restart(r(0)))
        .at(
            2_000,
            FaultAction::Partition((0..n / 2).map(ReplicaId).collect()),
        )
        .at(2_050, FaultAction::Crash(r(3)))
        .at(2_053, FaultAction::Restart(r(3)))
        .at(2_600, FaultAction::Heal)
        .at(2_900, FaultAction::Restart(r(2)))
        .at(3_200, FaultAction::DropBurst { duration: 25 })
        .at(
            3_220,
            FaultAction::DelayBurst {
                duration: 60,
                min_us: 1,
                max_us: 1,
            },
        )
        .at(3_600, FaultAction::Crash(r(4)))
        .at(3_604, FaultAction::Restart(r(4)))
        .at(4_000, FaultAction::DropBurst { duration: 150 })
}

/// FNV-1a over little-endian words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// Runs the case and returns `(digest, handler invocations, events)`,
/// and how many deliveries a backlog held.
fn run(n: u32, faulted: bool) -> ((String, usize, u64), usize) {
    let mut net = NetConfig::lan();
    net.bandwidth_bps = 1_000_000_000;
    net.one_way_delay_us = 20;
    net.jitter_us = 3;
    // The same offered load per node at either size.
    let rounds = 128 / n as u64;
    let nodes = (0..n).map(|_| Chatter { rounds }).collect();
    let mut sim = Simulation::new(nodes, net, 42);
    if faulted {
        sim = sim.with_faults(faults(n));
    }
    for i in 0..160 {
        let at: SimTime = 50 + 31 * i;
        let msg = Toy {
            kind: "client",
            cost: (1 + i % 60) as u8,
            hops: 0,
        };
        sim.schedule_client_input(at, ReplicaId((i * 5 % n as u64) as u32), msg);
    }
    sim.run_until(60_000);
    let mut d = Digest::new();
    // Per node, when its CPU frees from the last delivery it served.
    let mut cpu_free = vec![0; n as usize];
    let mut held = 0;
    for o in sim.observations().entries() {
        d.word(o.time);
        d.word(o.node.0 as u64);
        let ObsKind::Custom { label, value } = &o.kind else {
            panic!("unexpected observation {:?}", o.kind);
        };
        d.bytes(label.as_bytes());
        d.word(value.to_bits());
        if !matches!(label.as_ref(), "start" | "timer") {
            // A delivery served the microsecond the CPU freed waited for it.
            let free = &mut cpu_free[o.node.index()];
            held += usize::from(o.time == *free);
            *free = o.time + *value as u64 % 100;
        }
    }
    let got = (
        format!("{:016x}", d.0),
        sim.observations().len(),
        sim.events_processed(),
    );
    (got, held)
}

/// `(n, faulted, digest, handler invocations, events_processed)`.
type Case = (u32, bool, &'static str, usize, u64);

#[rustfmt::skip]
const CASES: [Case; 4] = [
    (8, false, "4be6f385adf45861", 4246, 11409),
    (8, true, "b8457321e82fbcbf", 2870, 9703),
    (32, false, "0dd5b9e389992270", 22659, 65270),
    (32, true, "590cc5dc9aee5586", 19119, 63047),
];

#[test]
fn schedules_match_the_recorded_goldens() {
    let print = std::env::var_os("GOLDEN_PRINT").is_some();
    let mut mismatches = Vec::new();
    for (n, faulted, digest, served, events) in CASES {
        let (got, held) = run(n, faulted);
        // Most handlers run off a backlog, or the case pins nothing.
        assert!(
            2 * held > got.1,
            "n={n} faulted={faulted}: {held} held, {got:?}"
        );
        if print {
            println!("    ({n}, {faulted}, \"{}\", {}, {}),", got.0, got.1, got.2);
        } else if (got.0.as_str(), got.1, got.2) != (digest, served, events) {
            mismatches.push(format!(
                "n={n} faulted={faulted}: got {got:?}, golden {:?}",
                (digest, served, events)
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
