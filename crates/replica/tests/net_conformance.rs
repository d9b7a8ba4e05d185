//! Cross-runtime conformance: the same `ExperimentConfig` and seed must
//! commit a byte-identical transaction sequence under the deterministic
//! simulator and under the real-socket `smp-net` runtime.
//!
//! The multi-process variant of this check is the `localcluster` binary
//! (one OS process per replica); this test runs the four socket
//! runtimes as threads of one process, which exercises the same codec,
//! connection formation, two-lane writers, and wall-clock timers.  Each
//! cluster ends once every replica has committed every offered
//! transaction.

use smp_net::probe;
use smp_replica::{
    run_cluster_over_net, sim_commit_logs, ExperimentConfig, NetRunOptions, NetRunSummary, Protocol,
};
use smp_types::TxId;
use smp_workload::LoadDistribution;
use std::collections::HashSet;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// The longest a cluster may run: one that needs it has failed.
const LIMIT_US: u64 = 10_000_000;

/// Single-source workload: only replica 0 offers transactions, so the
/// committed sequence is fully determined by the protocol (FIFO from one
/// queue), not by cross-replica timing.
fn single_source_nhs() -> ExperimentConfig {
    ExperimentConfig::new(Protocol::NativeHotStuff, 4, 4_000.0)
        .with_distribution(LoadDistribution::SingleReplica(0))
        .with_batch_size(16 * 1024)
}

fn loaded(tx_limit: u64, horizon_us: u64) -> NetRunOptions {
    NetRunOptions {
        tx_limit: Some(tx_limit),
        horizon_us,
        ..NetRunOptions::default()
    }
}

/// Holds every replica's commit log to the simulator's, entry by entry.
fn assert_replays(reports: &[NetRunSummary], sim_logs: &[Vec<TxId>]) {
    for (i, (r, sim)) in reports.iter().zip(sim_logs).enumerate() {
        if let Some(at) =
            (0..r.commit_log.len().max(sim.len())).find(|&k| r.commit_log.get(k) != sim.get(k))
        {
            panic!(
                "replica {i}: socket commit log diverges from simulator at index {at} \
                 ({:?} vs {:?})",
                r.commit_log.get(at),
                sim.get(at)
            );
        }
        assert!(
            r.peer_errors.is_empty(),
            "replica {i} peer errors: {:?}",
            r.peer_errors
        );
    }
}

#[test]
fn socket_cluster_commits_the_simulator_sequence() {
    let config = single_source_nhs();
    let sim_logs = sim_commit_logs(&config, Some(60), 3_000_000);
    assert_eq!(sim_logs[0].len(), 60);

    let reports =
        run_cluster_over_net(&config, &loaded(60, LIMIT_US), |_| {}).expect("socket cluster");
    assert_replays(&reports, &sim_logs);
    assert!(reports[0].frames_out > 0, "replica 0 sent no frames");
    assert!(reports[1].bytes_in > 0, "replica 1 received no bytes");
}

/// Telemetry must be a pure observer: a cluster running with the full
/// observability plane on (live sink, the admin endpoint sampling the
/// flight recorder, and an operator polling it mid-run) commits the same
/// byte-identical sequence as the reference simulation — and therefore
/// as the uninstrumented cluster checked above.
#[test]
fn instrumented_cluster_commits_identical_sequence() {
    let config = single_source_nhs();
    let sim_logs = sim_commit_logs(&config, Some(60), 3_000_000);
    assert_eq!(sim_logs[0].len(), 60);

    let opts = NetRunOptions {
        admin_addr: Some("127.0.0.1:0".parse().unwrap()),
        ..loaded(60, LIMIT_US)
    };
    // The cluster is not told to stop before every endpoint has answered
    // HEALTH, METRICS and SERIES (retried while the cluster forms).
    let poll = |admin_addrs: &[SocketAddr]| {
        assert_eq!(admin_addrs.len(), config.n);
        let deadline = Instant::now() + Duration::from_secs(10);
        for (i, &addr) in admin_addrs.iter().enumerate() {
            if let Err(e) = probe(addr, i as u32, deadline) {
                panic!("replica {i} admin endpoint: {e}");
            }
        }
    };
    let reports = run_cluster_over_net(&config, &opts, poll).expect("socket cluster");
    assert_replays(&reports, &sim_logs);
    for (i, r) in reports.iter().enumerate() {
        assert!(
            r.frame_errors.is_empty(),
            "replica {i} frame errors: {:?}",
            r.frame_errors
        );
        // The observability plane actually observed: windows sampled,
        // per-peer socket counters mirrored into the registry.
        let series = r.flight_series.as_ref().expect("flight series recorded");
        let windows = series.get("windows").and_then(|w| w.as_array()).unwrap();
        assert!(!windows.is_empty(), "replica {i} recorded no windows");
        assert_eq!(r.epoch_unix_us.map(|us| us > 0), Some(true));
        let snap = r.telemetry.snapshot();
        let frames_in: u64 = (0..config.n)
            .filter_map(|p| snap.counter(&format!("replica.{i}.net.peer.{p}.frames_in")))
            .sum();
        // Readers count at decode time; the main loop stops draining when
        // the run ends, so the socket-level count can only run ahead.
        assert!(
            frames_in >= r.frames_in && r.frames_in > 0,
            "replica {i} counters diverge: socket {frames_in} < main loop {}",
            r.frames_in
        );
    }
}

#[test]
fn socket_cluster_runs_stratus_end_to_end() {
    // The full PAB/DLB stack over real sockets: microblocks, acks, proofs
    // and LbInfo all cross the codec.  Stratus commits referenced
    // payloads, so the commit log holds microblock ids.  At 2 000 tx/s a
    // replica's 400 offers span several batch timeouts; a timer fires at
    // its due time, as in the simulator, so each batch timeout still
    // seals the simulator's transactions: every replica commits exactly
    // the simulator's set of microblocks, in whatever order.
    let config =
        ExperimentConfig::new(Protocol::StratusHotStuff, 4, 2_000.0).with_batch_size(16 * 1024);
    let sim_logs = sim_commit_logs(&config, Some(400), 3_000_000);
    let reference: HashSet<&TxId> = sim_logs[0].iter().collect();
    assert!(!reference.is_empty());

    let reports =
        run_cluster_over_net(&config, &loaded(400, LIMIT_US), |_| {}).expect("socket cluster");
    for (i, r) in reports.iter().enumerate() {
        assert!(
            r.peer_errors.is_empty(),
            "replica {i} peer errors: {:?}",
            r.peer_errors
        );
        assert_eq!(r.committed_txs, 1_600, "replica {i} commits another count");
        let held: HashSet<&TxId> = r.commit_log.iter().collect();
        assert_eq!(held, reference, "replica {i} commits other microblocks");
    }
    // Safety, as the benchmark's ledger checks it: a replica may commit
    // around a proposal it missed, so the logs need not be prefixes of one
    // another, but what two of them both hold they hold in one order.  An
    // id a replica committed twice has no one position and is left out.
    let logs: Vec<Vec<TxId>> = reports
        .iter()
        .map(|r| {
            let log = &r.commit_log;
            let once = |id: &&TxId| log.iter().filter(|other| other == id).count() == 1;
            log.iter().filter(once).copied().collect()
        })
        .collect();
    let shared = |log: &[TxId], with: &[TxId]| -> Vec<TxId> {
        log.iter().copied().filter(|id| with.contains(id)).collect()
    };
    for (i, a) in logs.iter().enumerate() {
        for (j, b) in logs.iter().enumerate().skip(i + 1) {
            assert_eq!(
                shared(a, b),
                shared(b, a),
                "replicas {i} and {j} order their common commits differently"
            );
        }
    }
}

/// A horizon too short to offer the workload ends the cluster short of
/// it, and the failure names every replica and what it lacks: 60
/// transactions at 4 000 tx/s take about 15 ms to offer.
#[test]
fn cluster_short_of_its_transactions_fails_at_its_horizon() {
    let config = single_source_nhs();
    let err = run_cluster_over_net(&config, &loaded(60, 1_000), |_| {})
        .expect_err("a cluster cannot offer 60 transactions in 1 ms");
    let message = err.to_string();
    for i in 0..config.n {
        let lacks = message
            .split(&format!("replica {i} lacks "))
            .nth(1)
            .and_then(|rest| rest.split(" of 60").next())
            .and_then(|k| k.parse::<u64>().ok());
        assert!(matches!(lacks, Some(1..=60)), "{message}");
    }
}
