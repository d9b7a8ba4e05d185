//! A leader with nothing to propose holds its view for payload.
//!
//! HotStuff and PBFT leaders over a shared mempool wait up to
//! `PAYLOAD_HOLD` for payload once no block in flight has one left to
//! commit, instead of chaining empty views.  Both tests run the full S-HS
//! stack in the simulator and are deterministic per seed: an idle cluster
//! moves through about one view per hold, and a trickle of transactions is
//! proposed as soon as it is proposable, not when the hold ends.

use simnet::{NetConfig, Simulation};
use smp_consensus::{ConsensusEngine, HotStuffEngine};
use smp_mempool::BATCH_TIMEOUT;
use smp_replica::{run, Behavior, ExperimentConfig, Protocol, Replica, PAYLOAD_HOLD};
use smp_types::{ReplicaId, MICROS_PER_SEC};
use smp_workload::LoadDistribution;
use stratus::{StratusConfig, StratusMempool};

#[test]
fn an_idle_cluster_moves_one_view_per_hold() {
    const T: u64 = 5 * MICROS_PER_SEC;
    let config = ExperimentConfig::new(Protocol::StratusHotStuff, 4, 0.0);
    let system = config.system();
    let nodes = (0..4)
        .map(|i| {
            let me = ReplicaId(i);
            Replica::new(
                &system,
                me,
                HotStuffEngine::new(&system, me),
                StratusMempool::new(&system, StratusConfig::default(), me),
                Behavior::Honest,
                0.0,
                true,
                false,
            )
        })
        .collect();
    let mut sim = Simulation::new(nodes, NetConfig::from_preset(config.network), config.seed);
    sim.run_until(T);
    let views = sim.nodes().map(|r| r.engine().current_view().0).max();
    let bound = T / PAYLOAD_HOLD + 4;
    assert!(
        views.is_some_and(|v| v <= bound),
        "{views:?} views in {T} µs, at most {bound} expected"
    );
    // Nobody timed a held view out.
    assert_eq!(
        sim.nodes().map(|r| r.engine().view_changes()).sum::<u64>(),
        0
    );
}

#[test]
fn a_held_leader_proposes_when_the_payload_arrives_not_when_the_hold_ends() {
    let config = ExperimentConfig::new(Protocol::StratusHotStuff, 4, 50.0)
        .with_distribution(LoadDistribution::SingleReplica(0))
        .with_duration(MICROS_PER_SEC, 5 * MICROS_PER_SEC);
    let result = run(&config);
    assert!(result.committed_txs > 0);
    let (p95_ms, mean_ms) = (
        result.summary.p95_latency_ms,
        result.summary.mean_latency_ms,
    );
    // A microblock seals at the batch timeout at the latest; a leader that
    // proposed only when its hold ended would add up to a whole hold.
    let bound_ms = (BATCH_TIMEOUT / 1_000 + 100) as f64;
    assert!(
        p95_ms < bound_ms,
        "p95 {p95_ms} ms (mean {mean_ms} ms), under {bound_ms} ms expected"
    );
}
