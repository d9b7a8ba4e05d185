//! Criterion micro-benchmarks of the discrete-event simulator itself:
//! event throughput for broadcast-heavy workloads, the cost of a standing
//! CPU backlog, and the event heap on its own at depth.
//!
//! `simnet_flood/nodes/<n>` scales its hop budget with n so an iteration
//! stays under a second: 3 rebroadcast rounds at n = 16 (n + n² + n³ + n⁴
//! = 69 904 deliveries, as always), 2 at n = 64 (266 304).  Up to PR 14
//! `nodes/64` ran 3 rounds too — 64⁴ deliveries, 60 s per iteration — so
//! its numbers before and after PR 15 are not comparable.

use criterion::{criterion_group, BenchmarkId, Criterion};
use simnet::{NetConfig, Node, NodeCtx, SimMessage, Simulation, TimerTag};
use smp_bench::{BenchRecorder, Scale};
use smp_types::ReplicaId;

#[derive(Clone, Debug)]
struct Ping(u64);
impl SimMessage for Ping {
    fn wire_size(&self) -> usize {
        256
    }
    fn kind(&self) -> &'static str {
        "ping"
    }
    fn cpu_cost_us(&self) -> f64 {
        1.0
    }
}

/// Every node rebroadcasts each ping it receives, up to a hop budget.
struct Flooder {
    hops: u64,
}
impl Node for Flooder {
    type Msg = Ping;
    fn on_start(&mut self, ctx: &mut NodeCtx<'_, Ping>) {
        if ctx.id() == ReplicaId(0) {
            ctx.broadcast(Ping(self.hops));
        }
    }
    fn on_message(&mut self, ctx: &mut NodeCtx<'_, Ping>, _from: ReplicaId, msg: Ping) {
        if msg.0 > 0 {
            ctx.broadcast(Ping(msg.0 - 1));
        }
    }
    fn on_timer(&mut self, _ctx: &mut NodeCtx<'_, Ping>, _tag: TimerTag) {}
}

fn bench_event_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("simnet_flood");
    group.sample_size(10);
    for &(n, hops) in &[(16usize, 3), (64, 2)] {
        group.bench_with_input(BenchmarkId::new("nodes", n), &n, |b, &n| {
            b.iter(|| {
                let nodes = (0..n).map(|_| Flooder { hops }).collect();
                let mut sim = Simulation::new(nodes, NetConfig::lan(), 1);
                sim.run_until(10_000_000);
                sim.events_processed()
            })
        });
    }
    group.finish();
}

#[derive(Clone, Debug)]
struct Job;
impl SimMessage for Job {
    fn wire_size(&self) -> usize {
        256
    }
    fn kind(&self) -> &'static str {
        "job"
    }
    fn cpu_cost_us(&self) -> f64 {
        50.0
    }
}

/// Every node but the first sends node 0 one job at boot.
struct FanIn;
impl Node for FanIn {
    type Msg = Job;
    fn on_start(&mut self, ctx: &mut NodeCtx<'_, Job>) {
        if ctx.id() != ReplicaId(0) {
            ctx.send(ReplicaId(0), Job);
        }
    }
    fn on_message(&mut self, _ctx: &mut NodeCtx<'_, Job>, _from: ReplicaId, _msg: Job) {}
    fn on_timer(&mut self, _ctx: &mut NodeCtx<'_, Job>, _tag: TimerTag) {}
}

/// 64 senders into one receiver that spends 50 µs on each job: the jobs
/// land within the LAN's 300 µs of jitter, so about 60 of them wait for
/// its CPU and every one is re-presented each time it frees up.
fn bench_backlog(c: &mut Criterion) {
    let mut group = c.benchmark_group("simnet_backlog");
    group.bench_function("fan_in_64", |b| {
        b.iter(|| {
            let nodes = (0..65).map(|_| FanIn).collect();
            let mut sim = Simulation::new(nodes, NetConfig::lan(), 1);
            sim.run_until(10_000_000);
            sim.events_processed()
        })
    });
    group.finish();
}

/// Keeps 200 timers outstanding, each re-armed as it fires.
struct Ticker;
impl Node for Ticker {
    type Msg = Job;
    fn on_start(&mut self, ctx: &mut NodeCtx<'_, Job>) {
        for i in 0..200 {
            ctx.set_timer(1 + 50 * i + ctx.id().0 as u64 % 50, i);
        }
    }
    fn on_message(&mut self, _ctx: &mut NodeCtx<'_, Job>, _from: ReplicaId, _msg: Job) {}
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, Job>, tag: TimerTag) {
        ctx.set_timer(10_000, tag);
    }
}

/// 100 nodes × 200 timers: the heap stays 20 000 deep — the depth
/// `sim_shs_n100` reaches — with no messages and no backlog, so what is
/// timed is push + pop: 200 000 of each per iteration (ten rounds).
fn bench_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("simnet_queue");
    group.bench_function("timers_20k", |b| {
        b.iter(|| {
            let nodes = (0..100).map(|_| Ticker).collect();
            let mut sim = Simulation::new(nodes, NetConfig::lan(), 1);
            sim.run_until(100_000);
            sim.events_processed()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_event_throughput, bench_backlog, bench_queue);

// Custom main, as in `micro_shard`: exports the measurements as a
// `BENCH_micro_simnet.json` artifact when `--bench-out <path>` is passed.
fn main() {
    let mut rec = BenchRecorder::from_args("micro_simnet", Scale::from_args());
    benches();
    for r in criterion::take_reports() {
        rec.metric(&r.id, "ns_per_iter", r.ns_per_iter);
    }
    rec.finish();
}
