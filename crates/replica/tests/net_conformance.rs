//! Cross-runtime conformance: the same `ExperimentConfig` and seed must
//! commit a byte-identical transaction sequence under the deterministic
//! simulator and under the real-socket `smp-net` runtime.
//!
//! The multi-process variant of this check is the `localcluster` binary
//! (one OS process per replica); this test runs the four socket
//! runtimes as threads of one process, which exercises the same codec,
//! connection formation, two-lane writers, and wall-clock timers.

use smp_replica::{
    run_replica_over_net, sim_commit_logs, ExperimentConfig, NetRunOptions, NetRunSummary, Protocol,
};
use smp_types::{ReplicaId, TxId};
use smp_workload::LoadDistribution;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// The socket tests run one at a time: each spawns a four-replica
/// cluster whose wall-clock timers assume it has the cores to itself,
/// and the test harness would otherwise run them side by side.
fn serial() -> MutexGuard<'static, ()> {
    static SOCKET_TESTS: Mutex<()> = Mutex::new(());
    // The lock guards no data, so a test that panicked while holding it
    // left nothing half-updated.
    SOCKET_TESTS.lock().unwrap_or_else(|e| e.into_inner())
}

fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect()
}

fn run_cluster(config: &ExperimentConfig, opts: &NetRunOptions) -> Vec<NetRunSummary> {
    let addrs = free_addrs(config.n);
    let handles: Vec<_> = (0..config.n)
        .map(|i| {
            let config = config.clone();
            let opts = opts.clone();
            let addrs = addrs.clone();
            thread::spawn(move || {
                run_replica_over_net(&config, ReplicaId(i as u32), addrs, &opts)
                    .expect("net replica run")
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("replica thread"))
        .collect()
}

/// Runs `cluster(horizon_us)` and holds every replica's commit log to the
/// simulator's.  A log that differs from the simulator's at some index
/// fails at once.  A log that is a *strict prefix* means the wall-clock
/// horizon fired before the workload was through (a loaded host): the
/// cluster is run once more, on fresh ports, with the horizon doubled.
fn conformant_reports(
    sim_logs: &[Vec<TxId>],
    horizon_us: u64,
    cluster: impl Fn(u64) -> Vec<NetRunSummary>,
) -> Vec<NetRunSummary> {
    for horizon_us in [horizon_us, 2 * horizon_us] {
        let reports = cluster(horizon_us);
        let mut truncated = false;
        for (i, (r, sim)) in reports.iter().zip(sim_logs).enumerate() {
            if let Some(at) = r.commit_log.iter().zip(sim).position(|(a, b)| a != b) {
                panic!(
                    "replica {i}: socket commit log diverges from simulator at index {at} \
                     ({:?} vs {:?})",
                    r.commit_log[at], sim[at]
                );
            }
            assert!(
                r.commit_log.len() <= sim.len(),
                "replica {i}: socket committed {} txs, simulator only {}",
                r.commit_log.len(),
                sim.len()
            );
            if r.commit_log.len() < sim.len() {
                eprintln!(
                    "replica {i}: {} of {} txs committed when the {horizon_us} us horizon fired",
                    r.commit_log.len(),
                    sim.len()
                );
                truncated = true;
            }
        }
        if !truncated {
            return reports;
        }
    }
    panic!("socket commit logs are still a strict prefix of the simulator's at twice the horizon");
}

#[test]
fn socket_cluster_commits_the_simulator_sequence() {
    let _serial = serial();
    // Single-source workload: only replica 0 offers transactions, so the
    // committed sequence is fully determined by the protocol (FIFO from
    // one queue), not by cross-replica timing.
    let config = ExperimentConfig::new(Protocol::NativeHotStuff, 4, 4_000.0)
        .with_distribution(LoadDistribution::SingleReplica(0))
        .with_batch_size(16 * 1024);
    let tx_limit = 60u64;

    let sim_logs = sim_commit_logs(&config, Some(tx_limit), 3_000_000);
    assert_eq!(sim_logs[0].len(), tx_limit as usize);

    let reports = conformant_reports(&sim_logs, 2_500_000, |horizon_us| {
        run_cluster(
            &config,
            &NetRunOptions {
                tx_limit: Some(tx_limit),
                horizon_us,
                ..NetRunOptions::default()
            },
        )
    });
    for (i, r) in reports.iter().enumerate() {
        assert!(
            r.peer_errors.is_empty(),
            "replica {i} peer errors: {:?}",
            r.peer_errors
        );
    }
    assert!(reports[0].frames_out > 0, "replica 0 sent no frames");
    assert!(reports[1].bytes_in > 0, "replica 1 received no bytes");
}

fn admin_ask(addr: SocketAddr, cmd: &str) -> Option<String> {
    let stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    let mut writer = stream.try_clone().ok()?;
    writer.write_all(format!("{cmd}\n").as_bytes()).ok()?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).ok()?;
    Some(reply.trim_end().to_string())
}

/// Telemetry must be a pure observer: a cluster running with the full
/// observability plane on (live sink, flight-recorder sampler, admin
/// endpoint, and an operator polling it mid-run) commits the same
/// byte-identical sequence as the reference simulation — and therefore
/// as the uninstrumented cluster checked above.
#[test]
fn instrumented_cluster_commits_identical_sequence() {
    let _serial = serial();
    let config = ExperimentConfig::new(Protocol::NativeHotStuff, 4, 4_000.0)
        .with_distribution(LoadDistribution::SingleReplica(0))
        .with_batch_size(16 * 1024);
    let tx_limit = 60u64;
    let sim_logs = sim_commit_logs(&config, Some(tx_limit), 3_000_000);
    assert_eq!(sim_logs[0].len(), tx_limit as usize);

    let run_observed_cluster = |horizon_us: u64| {
        let addrs = free_addrs(config.n);
        let admin_addrs = free_addrs(config.n);
        let handles: Vec<_> = (0..config.n)
            .map(|i| {
                let config = config.clone();
                let addrs = addrs.clone();
                let opts = NetRunOptions {
                    tx_limit: Some(tx_limit),
                    horizon_us,
                    admin_addr: Some(admin_addrs[i]),
                    flight_cadence_us: Some(100_000),
                    ..NetRunOptions::default()
                };
                thread::spawn(move || {
                    run_replica_over_net(&config, ReplicaId(i as u32), addrs, &opts)
                        .expect("net replica run")
                })
            })
            .collect();

        // Mid-run, every replica's admin endpoint must answer HEALTH and
        // METRICS (retry while the cluster forms).
        for (i, addr) in admin_addrs.iter().enumerate() {
            let deadline = Instant::now() + Duration::from_secs(10);
            let health = loop {
                match admin_ask(*addr, "HEALTH") {
                    Some(reply) => break reply,
                    None if Instant::now() < deadline => {
                        thread::sleep(Duration::from_millis(50));
                    }
                    None => panic!("replica {i} admin endpoint never answered HEALTH"),
                }
            };
            assert!(
                health.starts_with(&format!("ok replica={i} ")),
                "replica {i} HEALTH: {health}"
            );
            let metrics = admin_ask(*addr, "METRICS").expect("METRICS reply");
            assert!(
                metrics.starts_with('{'),
                "replica {i} METRICS not JSON: {metrics}"
            );
            let series = admin_ask(*addr, "SERIES").expect("SERIES reply");
            assert!(
                series.contains("smp-flightrec-v1"),
                "replica {i} SERIES not schema-versioned: {series}"
            );
        }

        handles
            .into_iter()
            .map(|h| h.join().expect("replica thread"))
            .collect()
    };
    let reports = conformant_reports(&sim_logs, 2_500_000, run_observed_cluster);
    for (i, r) in reports.iter().enumerate() {
        assert!(
            r.peer_errors.is_empty(),
            "replica {i} peer errors: {:?}",
            r.peer_errors
        );
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
        // Readers count at decode time; the main loop stops draining at
        // the horizon, so the socket-level count can only run ahead.
        assert!(
            frames_in >= r.frames_in && r.frames_in > 0,
            "replica {i} counters diverge: socket {frames_in} < main loop {}",
            r.frames_in
        );
    }
}

#[test]
fn socket_cluster_runs_stratus_end_to_end() {
    let _serial = serial();
    // The full PAB/DLB stack over real sockets: microblocks, acks, proofs
    // and LbInfo all cross the codec.  Stratus commits referenced
    // payloads, so the commit log holds microblock ids.
    let config =
        ExperimentConfig::new(Protocol::StratusHotStuff, 4, 2_000.0).with_batch_size(16 * 1024);
    let reports = run_cluster(
        &config,
        &NetRunOptions {
            tx_limit: Some(400),
            horizon_us: 2_500_000,
            ..NetRunOptions::default()
        },
    );
    for (i, r) in reports.iter().enumerate() {
        assert!(
            r.peer_errors.is_empty(),
            "replica {i} peer errors: {:?}",
            r.peer_errors
        );
        assert!(
            !r.commit_log.is_empty(),
            "replica {i} committed nothing over sockets"
        );
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
