//! Running one scenario in the simulator, measured as a program.

use crate::assemble::{probed_replica, with_stack, ProbedReplica, Scenario, StackVisitor};
use crate::calib::{SpeedMeter, REFERENCE_KERNEL_S};
use crate::outcome::{collect_probes, RunOutcome};
use crate::probe::{take_trace, Hub};
use crate::stats::{thread_cpu_s, ThreadStopwatch};
use simnet::{NetConfig, ObsKind, ObservationLog, Simulation};
use smp_consensus::ConsensusEngine;
use smp_crypto::Hasher;
use smp_mempool::Mempool;
use smp_replica::{MempoolWire, WireCodec};
use smp_types::{mb_id_derivations, NetworkPreset, ReplicaId, SimTime, SystemConfig};
use std::sync::Arc;
use std::time::Instant;

/// The replica's workload tick: the first transactions are offered here.
const FIRST_OFFER_US: u64 = 5 * smp_types::MICROS_PER_MS;

/// Slices the measured run is advanced in.
const SLICES: u64 = 32;

/// What the simulator visitor does with the assembled deployment.
enum Mode {
    /// Build the deployment, run it to the first offer and drop it;
    /// report how long that took.
    SetupOnly,
    /// Build it, run it to the horizon, collect everything.
    Run { traced: bool },
}

struct SimVisitor<'a> {
    scn: &'a Scenario,
    mode: Mode,
    /// Cap each generator at the scenario's limit (the benchmark) or
    /// leave it unbounded (the equivalence check against `smp_replica::run`).
    limit_txs: bool,
}

fn build<E, M>(
    scn: &Scenario,
    hub: &Arc<Hub>,
    limit_txs: bool,
    make_engine: &impl Fn(&SystemConfig, ReplicaId) -> E,
    make_mempool: &impl Fn(&SystemConfig, ReplicaId) -> M,
) -> Simulation<ProbedReplica<E, M>>
where
    E: ConsensusEngine,
    M: Mempool,
    M::Msg: MempoolWire,
{
    let sys = scn.system();
    let rates = scn.experiment().workload.rates(scn.n);
    let limit = limit_txs.then(|| scn.tx_limit());
    let nodes: Vec<ProbedReplica<E, M>> = (0..scn.n)
        .map(|i| {
            let id = ReplicaId(i as u32);
            probed_replica(
                scn,
                &sys,
                hub,
                i,
                make_engine(&sys, id),
                make_mempool(&sys, id),
                rates[i],
                limit,
            )
        })
        .collect();
    Simulation::new(nodes, NetConfig::from_preset(NetworkPreset::Lan), scn.seed)
        .with_faults(scn.fault_schedule())
}

/// Runs the simulation to `until`, adding the wall time to `wall_s` and
/// the CPU time — the simulator runs on this thread alone — to `meter`.
fn advance<N: simnet::Node>(
    sim: &mut Simulation<N>,
    until: SimTime,
    meter: &mut SpeedMeter,
    wall_s: &mut f64,
) {
    let (cpu0, started) = (thread_cpu_s(), Instant::now());
    sim.run_until(until);
    *wall_s += started.elapsed().as_secs_f64();
    meter.lap(thread_cpu_s() - cpu0);
}

impl StackVisitor for SimVisitor<'_> {
    type Out = RunOutcome;

    fn visit<E, M, FE, FM>(self, make_engine: FE, make_mempool: FM) -> RunOutcome
    where
        E: ConsensusEngine + Send + 'static,
        M: Mempool + Send + 'static,
        M::Msg: MempoolWire + WireCodec + Send + 'static,
        FE: Fn(&SystemConfig, ReplicaId) -> E + Sync,
        FM: Fn(&SystemConfig, ReplicaId) -> M + Sync,
    {
        let scn = self.scn;
        let traced = matches!(self.mode, Mode::Run { traced: true });
        let hub = Hub::new(traced, scn.ledger());
        let mut out = RunOutcome::new(scn);

        // Set-up ends when the first transaction is offered: construction,
        // every `on_start`, and the first generator tick, timed on this
        // thread's CPU clock (the simulator runs on it alone).  The measured
        // run is everything after construction, advanced in slices with
        // the reference kernel timed between them (see `calib`); slicing
        // `run_until` changes nothing the simulation can see.
        take_trace(); // spans of an earlier run on this thread
        let derivations0 = mb_id_derivations();
        let mut meter = SpeedMeter::start();
        let t_setup = ThreadStopwatch::start();
        let mut sim = build(scn, &hub, self.limit_txs, &make_engine, &make_mempool);
        let mut wall_s = 0.0;
        advance(&mut sim, FIRST_OFFER_US, &mut meter, &mut wall_s);
        let setup_s = t_setup.elapsed_s();
        out.setup_s = setup_s * REFERENCE_KERNEL_S / meter.sample();
        if matches!(self.mode, Mode::SetupOnly) {
            return out;
        }
        let span = scn.horizon_us().saturating_sub(FIRST_OFFER_US);
        for k in 1..=SLICES {
            let until = FIRST_OFFER_US + span * k / SLICES;
            advance(&mut sim, until, &mut meter, &mut wall_s);
        }
        meter.sample();
        out.wall_s = wall_s;
        out.cpu_s = meter.cpu().reference_s;
        out.cpu_raw_s = meter.cpu().raw_s;
        out.mb_derivations = mb_id_derivations() - derivations0;
        let ns_per_tick = hub.ns_per_tick();
        out.spans = take_trace().into_spans(ns_per_tick);

        out.events = sim.events_processed();
        out.fingerprint = fingerprint(sim.observations());
        if !self.limit_txs {
            // Only the equivalence check compares whole logs.
            out.observations = Some(sim.observations().clone());
        }
        let traffic = sim.traffic();
        for (kind, bytes) in traffic.total_by_kind() {
            out.wire_bytes += bytes;
            out.wire_msgs += traffic.total_messages_of_kind(kind);
        }
        // The paper's latency: first reception to commit, at the observer.
        out.latency = sim.node(0).inner().metrics().latency.clone();
        for i in 0..scn.n {
            collect_probes(&mut out, sim.node(i), ns_per_tick);
        }
        out.take_ledger(&hub);
        out
    }
}

/// Runs `scn` in the simulator.
pub fn run_sim(scn: &Scenario, traced: bool) -> RunOutcome {
    with_stack(
        scn,
        SimVisitor {
            scn,
            mode: Mode::Run { traced },
            limit_txs: true,
        },
    )
}

/// Runs `scn` with unbounded generators, as `smp_replica::run` does.
pub fn run_sim_unbounded(scn: &Scenario) -> RunOutcome {
    with_stack(
        scn,
        SimVisitor {
            scn,
            mode: Mode::Run { traced: false },
            limit_txs: false,
        },
    )
}

/// Sets the deployment up once (construction to first offer) and drops
/// it; seconds it took.
pub fn sim_setup_s(scn: &Scenario) -> f64 {
    with_stack(
        scn,
        SimVisitor {
            scn,
            mode: Mode::SetupOnly,
            limit_txs: true,
        },
    )
    .setup_s
}

/// A digest of the observation log: every entry's time, node and kind in
/// emission order.  Two runs with one seed must agree on it bit for bit.
pub fn fingerprint(log: &ObservationLog) -> String {
    let mut h = Hasher::with_domain(0x4f42_534c); // "OBSL"
    for o in log.entries() {
        h.update_u64(o.time);
        h.update_u64(o.node.0 as u64);
        match &o.kind {
            ObsKind::Committed {
                txs,
                latency_sum_us,
                latency_count,
            } => {
                h.update_u64(1);
                h.update_u64(*txs as u64);
                h.update_u64(*latency_sum_us);
                h.update_u64(*latency_count as u64);
            }
            ObsKind::ViewChange { view } => {
                h.update_u64(2);
                h.update_u64(*view);
            }
            ObsKind::MicroblockStable { stable_time_us } => {
                h.update_u64(3);
                h.update_u64(*stable_time_us);
            }
            ObsKind::MissingFetch { count } => {
                h.update_u64(4);
                h.update_u64(*count as u64);
            }
            ObsKind::Custom { label, value } => {
                h.update_u64(5);
                h.update(label.as_bytes());
                h.update_u64(value.to_bits());
            }
        }
    }
    let d = h.finalize();
    format!("{:016x}{:016x}-{}", d.0[0], d.0[1], log.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::Observation;
    use smp_replica::Protocol;
    use smp_types::MICROS_PER_SEC;

    fn log(latency_sum_us: u64) -> ObservationLog {
        let mut log = ObservationLog::new();
        for (time, node) in [(10, 0), (12, 1)] {
            log.push(Observation {
                time,
                node: ReplicaId(node),
                kind: ObsKind::Committed {
                    txs: 100,
                    latency_sum_us,
                    latency_count: 100,
                },
            });
        }
        log
    }

    #[test]
    fn determinism_check_tells_two_simulations_apart() {
        assert_eq!(fingerprint(&log(5_000)), fingerprint(&log(5_000)));
        assert_ne!(fingerprint(&log(5_000)), fingerprint(&log(5_001)));
        let outcome = |fp: String, events: u64| RunOutcome {
            fingerprint: fp,
            events,
            ..RunOutcome::default()
        };
        let first = outcome(fingerprint(&log(5_000)), 1_000);
        assert_eq!(first.divergence_from(&first.clone()), None);
        // A different log, or the same log from a different event count.
        assert!(first
            .divergence_from(&outcome(fingerprint(&log(5_001)), 1_000))
            .is_some());
        assert!(first
            .divergence_from(&outcome(fingerprint(&log(5_000)), 1_001))
            .is_some());
    }

    #[test]
    fn two_runs_with_one_seed_match_bit_for_bit_and_seeds_differ() {
        let mut scn = Scenario::new(Protocol::StratusHotStuff, 4, 2_000.0, 16 * 1024);
        scn.offered_us = MICROS_PER_SEC / 2;
        scn.drain_us = MICROS_PER_SEC / 2;
        let first = run_sim(&scn, false);
        assert!(first.events > 0 && first.ledger.succeeded > 0);
        assert_eq!(first.divergence_from(&run_sim(&scn, false)), None);
        // Reading clocks changes nothing the simulation can see.
        assert_eq!(first.divergence_from(&run_sim(&scn, true)), None);
        scn.seed += 1;
        assert!(first.divergence_from(&run_sim(&scn, false)).is_some());
    }
}
