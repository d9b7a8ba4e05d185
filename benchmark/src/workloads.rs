//! The five workloads and how each is executed.
//!
//! All: 128-byte transactions, even load, open loop — the replica's own
//! 5 ms tick is the generator — made finite with `limit_client_txs`, then
//! a drain with no new load.  `--seed` feeds the deployment seed; the
//! program receives only generated inputs.
//!
//! `--seconds` scales how much is measured.  At the nominal
//! [`NOMINAL_SECONDS`] each workload takes about that long on the host
//! at the seed commit; the *work* is fixed by `--seconds` alone, never by
//! how fast the program happens to run.

use crate::assemble::Scenario;
use crate::net::{net_setup, run_net};
use crate::outcome::RunOutcome;
use crate::sim::{run_sim, sim_setup_s};
use crate::stats::median;
use simnet::FaultAction;
use smp_replica::Protocol;
use smp_types::{ReplicaId, MICROS_PER_MS, MICROS_PER_SEC};

/// `run_seconds` of `BENCHMARK.json`: the `--seconds` the sizes below
/// are quoted for.
pub const NOMINAL_SECONDS: u64 = 10;

/// How many times set-up is measured in one run.
const SIM_SETUP_SAMPLES: usize = 15;
/// Socket set-up is sampled on clusters that are formed and shut down at
/// once: in a measured cluster the replicas that form first start
/// spinning views and slow the others' formation, which would make the
/// sample depend on what is being measured.
const NET_SETUP_SAMPLES: usize = 7;
/// How long a socket cluster runs on after its generators stop.
const NET_DRAIN_US: u64 = 3 * MICROS_PER_SEC / 2;
/// A socket run whose last commit is closer to the horizon than this,
/// with operations outstanding, was cut short.
const NET_QUIET_US: u64 = 250 * MICROS_PER_MS;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Runtime {
    Simulator,
    Sockets,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub runtime: Runtime,
    /// Whether `BENCHMARK.json` lists the workload, that is, whether the
    /// driver gates changes on it: the simulator workloads, whose outputs
    /// and CPU time do not depend on the scheduler.  `run` and `compare`
    /// cover all five.
    pub gated: bool,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "sim_matrix_n16",
        why: "simulator, n=16, every protocol row plus S-HS with 4 shards: what one figure row costs; the only place all five mempools and four engines run",
        runtime: Runtime::Simulator,
        gated: true,
    },
    Workload {
        name: "sim_shs_n100",
        why: "simulator, S-HS at n=100: tens of millions of small events, so the event queue, traffic stats and timers dominate and unbounded state shows in RSS",
        runtime: Runtime::Simulator,
        gated: true,
    },
    Workload {
        name: "sim_faults_n16",
        why: "simulator, S-HS/SMP-HS/N-HS under crash, restart, delay burst and partition with Byzantine senders: drop, crash, timer-epoch and view-timeout paths",
        runtime: Runtime::Simulator,
        gated: true,
    },
    Workload {
        name: "net_shs_paced",
        why: "4 replicas on loopback TCP, S-HS at 40k tx/s: many small PAB and vote frames beside bulk microblocks; mempool, codec and per-frame cost all matter",
        runtime: Runtime::Sockets,
        // Not gated, for the reason given below for `net_nhs_paced`, and
        // measured: over two sets of ten seeds `peak_rss_mb` spread 29 %
        // (a cluster's footprint steps up by a quarter near 29 000 views,
        // a count the scheduler decides) and `wire_bytes_per_tx` 15 %; with
        // other processes on the host every number but goodput moves by
        // 15-70 % (see README, *On a busy host*).
        gated: false,
    },
    Workload {
        name: "net_nhs_paced",
        why: "same cluster and rate, N-HS: few large inline proposals and a trivial mempool, so a mempool change must leave it flat and a bulk-copy change must show",
        runtime: Runtime::Sockets,
        // Every number of a socket workload but its goodput follows the
        // view rate (this one's median latency is 5.8 views whatever the
        // host does), and on a 2-core host the view rate drifts 20-40 %
        // with the scheduler: spreads up to 26 %, medians 40 % apart ten
        // minutes later.  It cannot hold any bound the contract allows.
        gated: false,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn scaled(nominal_us: u64, seconds: f64) -> u64 {
    (nominal_us as f64 * seconds / NOMINAL_SECONDS as f64) as u64
}

/// The scenarios (rows) of a workload at `seconds` and `seed`, and how
/// many times the set is repeated.
pub fn scenarios(name: &str, seconds: f64, seed: u64) -> (Vec<Scenario>, usize) {
    let sec = MICROS_PER_SEC;
    let mut rows: Vec<Scenario> = Vec::new();
    let mut reps = 1usize;
    match name {
        "sim_matrix_n16" => {
            for protocol in Protocol::all() {
                rows.push(Scenario::new(protocol, 16, 60_000.0, 128 * 1024));
            }
            let mut sharded = Scenario::new(Protocol::StratusHotStuff, 16, 60_000.0, 128 * 1024);
            sharded.shards = 4;
            sharded.label = "S-HS.k4".to_string();
            rows.push(sharded);
            for row in &mut rows {
                row.offered_us = scaled(3 * sec / 2, seconds);
                row.drain_us = scaled(sec / 2, seconds);
            }
        }
        "sim_shs_n100" => {
            // 20 000 tx/s, not the 60 000 of `sim_matrix_n16`: at n = 100 the
            // higher rates put the median latency on a cliff between two
            // modes (half the transactions commit in ~0.3 s, the rest in
            // ~1 s), and it moves 28 % from seed to seed.  Batches seal on
            // the 200 ms timeout at either rate, so the event volume —
            // what this workload is for — is the same.
            let mut row = Scenario::new(Protocol::StratusHotStuff, 100, 20_000.0, 128 * 1024);
            row.offered_us = scaled(2 * sec, seconds);
            row.drain_us = scaled(sec / 2, seconds);
            rows.push(row);
        }
        "sim_faults_n16" => {
            // Byzantine senders as in fig9: S-HS attackers must still
            // reach f + 1 replicas to obtain proofs, SMP-HS attackers
            // serve the leader alone.  N-HS disseminates nothing.
            for (protocol, byzantine, extra) in [
                (Protocol::StratusHotStuff, 2, 6),
                (Protocol::SmpHotStuff, 2, 0),
                (Protocol::NativeHotStuff, 0, 0),
            ] {
                let mut row = Scenario::new(protocol, 16, 20_000.0, 128 * 1024);
                row.byzantine = byzantine;
                row.byzantine_extra = extra;
                // The script runs on the protocol's own clock (1 s view
                // timeout), so its length is fixed: more `--seconds`
                // repeat it, fewer shorten the drain only.
                row.offered_us = 9 * sec;
                row.drain_us = 3 * sec;
                row.faults = vec![
                    (2 * sec, FaultAction::Crash(ReplicaId(3))),
                    (4 * sec, FaultAction::Restart(ReplicaId(3))),
                    (
                        5 * sec,
                        FaultAction::DelayBurst {
                            duration: sec,
                            min_us: 100 * MICROS_PER_MS,
                            max_us: 300 * MICROS_PER_MS,
                        },
                    ),
                    (
                        7 * sec,
                        FaultAction::Partition(vec![ReplicaId(1), ReplicaId(2)]),
                    ),
                    (15 * sec / 2, FaultAction::Heal),
                ];
                rows.push(row);
            }
            reps = ((16.0 * seconds / NOMINAL_SECONDS as f64).round() as usize).max(1);
        }
        "net_shs_paced" | "net_nhs_paced" => {
            let protocol = if name == "net_shs_paced" {
                Protocol::StratusHotStuff
            } else {
                Protocol::NativeHotStuff
            };
            // Three clusters of a third of the time each: the run-to-run
            // spread of a socket cluster on a small host is mostly
            // between formations, and the median of three sheds it.
            reps = 3;
            let mut row = Scenario::new(protocol, 4, 40_000.0, 16 * 1024);
            row.offered_us = scaled(3 * sec, seconds);
            // The drain does not scale with `--seconds`: the last batch
            // seals on the 200 ms timeout whatever the window, and on a
            // busy host the commits behind it arrive late.  1.5 s leaves
            // the horizon check (`NET_QUIET_US`) a second of margin.
            row.drain_us = NET_DRAIN_US;
            rows.push(row);
        }
        other => panic!("unknown workload {other}"),
    }
    for row in &mut rows {
        row.seed = seed;
    }
    (rows, reps)
}

/// One execution of a workload: every row's outcome (CPU time is the
/// fastest repetition's; everything else comes from the first),
/// the set-up samples, and what went wrong.
pub struct Execution {
    pub runtime: Runtime,
    /// Simulator: one outcome per row.  Sockets: one per cluster.
    pub parts: Vec<RunOutcome>,
    pub setup_samples: Vec<f64>,
    pub errors: Vec<String>,
}

impl Execution {
    pub fn setup_s(&self) -> f64 {
        median(&self.setup_samples).unwrap_or(0.0)
    }

    /// `num ÷ den`: the ratio of sums over the rows of a simulator
    /// workload, the median ratio over the clusters of a socket one.
    pub fn ratio(&self, num: impl Fn(&RunOutcome) -> f64, den: impl Fn(&RunOutcome) -> f64) -> f64 {
        let safe = |n: f64, d: f64| if d == 0.0 { 0.0 } else { n / d };
        match self.runtime {
            Runtime::Simulator => safe(
                self.parts.iter().map(&num).sum(),
                self.parts.iter().map(&den).sum(),
            ),
            Runtime::Sockets => {
                let each: Vec<f64> = self.parts.iter().map(|p| safe(num(p), den(p))).collect();
                median(&each).unwrap_or(0.0)
            }
        }
    }

    /// A percentile of commit latency in ms: of the pooled rows in the
    /// simulator, the median over clusters on sockets.
    pub fn latency_ms(
        &self,
        of: impl Fn(&RunOutcome) -> &smp_metrics::LatencyHistogram,
        p: f64,
    ) -> f64 {
        match self.runtime {
            Runtime::Simulator => {
                let mut pooled = smp_metrics::LatencyHistogram::new();
                for part in &self.parts {
                    pooled.merge(of(part));
                }
                pooled.percentile_ms(p).unwrap_or(0.0)
            }
            Runtime::Sockets => {
                let each: Vec<f64> = self
                    .parts
                    .iter()
                    .filter_map(|part| of(part).clone().percentile_ms(p))
                    .collect();
                median(&each).unwrap_or(0.0)
            }
        }
    }

    pub fn sum(&self, of: impl Fn(&RunOutcome) -> f64) -> f64 {
        self.parts.iter().map(of).sum()
    }

    pub fn max(&self, of: impl Fn(&RunOutcome) -> f64) -> f64 {
        self.parts.iter().map(of).fold(0.0, f64::max)
    }

    pub fn attempted(&self) -> u64 {
        self.parts.iter().map(|p| p.ledger.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.parts.iter().map(RunOutcome::failed).sum()
    }
}

/// Runs workload `name` once.
pub fn execute(name: &str, seconds: f64, seed: u64, traced: bool) -> Execution {
    let workload = find(name).unwrap_or_else(|| panic!("unknown workload {name}"));
    let (rows, reps) = scenarios(name, seconds, seed);
    let mut exec = Execution {
        runtime: workload.runtime,
        parts: Vec::new(),
        setup_samples: Vec::new(),
        errors: Vec::new(),
    };
    match workload.runtime {
        Runtime::Simulator => execute_sim(&mut exec, &rows, reps, traced),
        Runtime::Sockets => execute_net(&mut exec, &rows[0], reps, traced),
    }
    for part in &exec.parts {
        for v in &part.violations {
            exec.errors.push(format!("{}: safety: {v}", part.label));
        }
        for e in part.peer_errors.iter().chain(&part.frame_errors) {
            exec.errors.push(format!("{}: wire: {e}", part.label));
        }
    }
    exec
}

fn execute_sim(exec: &mut Execution, rows: &[Scenario], reps: usize, traced: bool) {
    let mut cpus: Vec<Vec<f64>> = vec![Vec::new(); rows.len()];
    for rep in 0..reps {
        let mut setup = 0.0;
        for (i, row) in rows.iter().enumerate() {
            let out = run_sim(row, traced);
            setup += out.setup_s;
            cpus[i].push(out.cpu_s);
            if rep == 0 {
                exec.parts.push(out);
            } else if let Some(e) = exec.parts[i].divergence_from(&out) {
                exec.errors.push(format!("repetition {rep}: {e}"));
            }
        }
        exec.setup_samples.push(setup);
    }
    // The repetitions do identical work, so the fastest one is the
    // closest to what the work costs: everything above it is the host.
    // (Wall time stays the first repetition's, beside its probe times.)
    for (part, cpu) in exec.parts.iter_mut().zip(&cpus) {
        part.cpu_s = cpu.iter().copied().fold(f64::INFINITY, f64::min);
    }
    while exec.setup_samples.len() < SIM_SETUP_SAMPLES {
        exec.setup_samples.push(rows.iter().map(sim_setup_s).sum());
    }
}

fn execute_net(exec: &mut Execution, row: &Scenario, clusters: usize, traced: bool) {
    for _ in 0..NET_SETUP_SAMPLES {
        match net_setup(row) {
            Ok(out) => exec.setup_samples.push(out.setup_s),
            Err(e) => exec.errors.push(format!("{}: set-up: {e}", row.label)),
        }
    }
    for cluster in 0..clusters {
        match run_net(row, traced) {
            Ok(out) => {
                // A run must end because the work is done.  Commits still
                // arriving at the horizon with operations outstanding mean
                // the horizon cut the drain short: an error, not a
                // smaller number.
                let quiet_us = row.horizon_us().saturating_sub(out.ledger.last_commit_us);
                if out.failed() > 0 && quiet_us < NET_QUIET_US {
                    exec.errors.push(format!(
                        "{}: cluster {cluster}: the horizon ended {} ms after the last commit with {} operations outstanding",
                        row.label,
                        quiet_us / MICROS_PER_MS,
                        out.failed()
                    ));
                }
                exec.parts.push(out);
            }
            Err(e) => exec
                .errors
                .push(format!("{}: cluster {cluster}: {e}", row.label)),
        }
    }
}
