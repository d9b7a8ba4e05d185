//! Deterministic chaos suite: scripted crash/restart, partitions, and
//! burst faults against the full replica stack inside the simulator.
//!
//! The contract under test is the crash-recovery story of the `Sync`
//! wire family: a replica that loses its state mid-run re-syncs the
//! committed sequence from live peers and ends the run with a log
//! byte-identical to theirs — and, when the faults land after the
//! workload settles, byte-identical to an entirely unfaulted reference
//! run.  Every schedule replays deterministically, so each scenario is
//! also run twice and compared.

use simnet::{FaultAction, FaultSchedule};
use smp_replica::{sim_commit_logs, ExperimentConfig, Protocol};
use smp_types::ReplicaId;
use smp_workload::LoadDistribution;

/// Single-source workload: replica 0 offers every transaction, so the
/// committed sequence is protocol-determined FIFO and survives fault
/// timing as long as faults never touch replica 0's in-flight blocks.
fn single_source(n: usize) -> ExperimentConfig {
    ExperimentConfig::new(Protocol::NativeHotStuff, n, 4_000.0)
        .with_distribution(LoadDistribution::SingleReplica(0))
        .with_batch_size(16 * 1024)
}

const TX_LIMIT: u64 = 60;
/// All 60 txs at 4k tx/s are offered within ~15 ms and committed well
/// inside the first second; faults scheduled at 2 s and later can no
/// longer orphan a transaction-carrying proposal.
const SETTLED_US: u64 = 2_000_000;
const HORIZON_US: u64 = 6_000_000;

#[test]
fn killed_replica_resyncs_to_byte_identical_log() {
    let config = single_source(4);
    let reference = sim_commit_logs(&config, Some(TX_LIMIT), HORIZON_US);
    assert_eq!(reference[0].len(), TX_LIMIT as usize);

    // Crash replica 3 after the workload settles, restart it 500 ms
    // later: `on_restart` drains its state and it rejoins as a passive
    // sync observer, replaying the committed sequence from its peers.
    let schedule = FaultSchedule::new()
        .at(SETTLED_US, FaultAction::Crash(ReplicaId(3)))
        .at(SETTLED_US + 500_000, FaultAction::Restart(ReplicaId(3)));
    let config = config.with_faults(schedule);
    let faulted = sim_commit_logs(&config, Some(TX_LIMIT), HORIZON_US);
    for (i, log) in faulted.iter().enumerate() {
        assert_eq!(
            log, &reference[i],
            "replica {i} diverged from the unfaulted reference"
        );
    }

    // Same seed, same schedule: the chaos run itself must replay
    // byte-identically.
    let replay = sim_commit_logs(&config, Some(TX_LIMIT), HORIZON_US);
    assert_eq!(replay, faulted);
}

#[test]
fn empty_fault_schedule_is_provably_inert() {
    let config = single_source(4);
    let plain = sim_commit_logs(&config, Some(TX_LIMIT), 3_000_000);
    let with_empty = sim_commit_logs(
        &config.with_faults(FaultSchedule::new()),
        Some(TX_LIMIT),
        3_000_000,
    );
    assert_eq!(plain, with_empty);
}

#[test]
fn partitioned_replica_catches_up_after_crash_recovery() {
    // Partition replica 3 away while consensus keeps running, heal, then
    // crash-and-restart it.  Whatever blocks it missed behind the cut,
    // recovery rebuilds its log from the live peers' committed
    // sequences, so all four logs end identical.
    let config = single_source(4);
    let schedule = FaultSchedule::new()
        .at(SETTLED_US, FaultAction::Partition(vec![ReplicaId(3)]))
        .at(SETTLED_US + 800_000, FaultAction::Heal)
        .at(SETTLED_US + 1_200_000, FaultAction::Crash(ReplicaId(3)))
        .at(SETTLED_US + 1_700_000, FaultAction::Restart(ReplicaId(3)));
    let logs = sim_commit_logs(&config.with_faults(schedule), Some(TX_LIMIT), HORIZON_US);
    assert_eq!(logs[0].len(), TX_LIMIT as usize);
    for (i, log) in logs.iter().enumerate() {
        assert_eq!(log, &logs[0], "replica {i} diverged after recovery");
    }
}

#[test]
fn dag_mempool_stays_consistent_under_crash_and_heal() {
    // The DAG backend keeps per-creator rounds, a parent frontier, and
    // piggybacked ack state — all of it lost in a crash.  Block dedup is
    // digest-based (not (creator, round)-based) precisely so a restarted
    // replica's re-emitted low rounds are re-accepted by its peers; this
    // scenario proves the whole plane survives the PR 6 crash/heal
    // script with byte-identical logs, in both commit-derivation modes.
    for protocol in [Protocol::DagHotStuff, Protocol::DagHotStuffFast] {
        // Four transactions per batch: the 60-tx workload spans 15 DAG
        // blocks (the commit log records one entry per referenced batch),
        // so the run exercises many emission rounds, not one.
        let mut config = single_source(4).with_batch_size(4 * 168);
        config.protocol = protocol;
        let reference = sim_commit_logs(&config, Some(TX_LIMIT), HORIZON_US);
        assert_eq!(
            reference[0].len(),
            TX_LIMIT as usize / 4,
            "{}: unfaulted reference did not commit the full workload",
            protocol.label()
        );
        let schedule = FaultSchedule::new()
            .at(SETTLED_US, FaultAction::Partition(vec![ReplicaId(3)]))
            .at(SETTLED_US + 600_000, FaultAction::Heal)
            .at(SETTLED_US + 1_000_000, FaultAction::Crash(ReplicaId(3)))
            .at(SETTLED_US + 1_500_000, FaultAction::Restart(ReplicaId(3)));
        let config = config.with_faults(schedule);
        let faulted = sim_commit_logs(&config, Some(TX_LIMIT), HORIZON_US);
        for (i, log) in faulted.iter().enumerate() {
            assert_eq!(
                log,
                &reference[i],
                "{}: replica {i} diverged from the unfaulted reference",
                protocol.label()
            );
        }
        let replay = sim_commit_logs(&config, Some(TX_LIMIT), HORIZON_US);
        assert_eq!(
            replay,
            faulted,
            "{}: chaos run did not replay deterministically",
            protocol.label()
        );
    }
}

#[test]
fn network_bursts_replay_deterministically() {
    // Drop and delay bursts land mid-workload, so transactions may be
    // lost to orphaned proposals — the guarantee here is not liveness
    // but determinism (same seed + schedule => same logs) and safety
    // (every log is a consistent subsequence of the reference order).
    let config = single_source(4);
    let schedule = FaultSchedule::new()
        .at(
            5_000,
            FaultAction::DelayBurst {
                duration: 200_000,
                min_us: 1_000,
                max_us: 20_000,
            },
        )
        .at(400_000, FaultAction::DropBurst { duration: 50_000 });
    let faulted = config.clone().with_faults(schedule);
    let run = || sim_commit_logs(&faulted, Some(TX_LIMIT), HORIZON_US);
    let first = run();
    assert_eq!(first, run(), "burst chaos must replay identically");

    // Safety: committed logs never reorder relative to the reference.
    let reference = sim_commit_logs(&config, Some(TX_LIMIT), HORIZON_US);
    for (i, log) in first.iter().enumerate() {
        let mut cursor = reference[0].iter();
        for tx in log {
            assert!(
                cursor.any(|r| r == tx),
                "replica {i} committed {tx:?} out of reference order"
            );
        }
    }
}

/// A fluctuation reorders proposals, the way TCP does across connections
/// in the socket conformance failure: replica 0 sends view 4's proposal
/// (transactions 0..=39, two 5 ms ticks of offers) inside the window, and
/// it reaches replica 2 only after view 5's.  Replica 2 has left view 4 by
/// then, so the pacemaker drops the late proposal, and its commits stop at
/// the hole: it never executes views 1 to 4.  Preserved defect (ROADMAP:
/// block sync): block sync turns this into "every log equals the
/// reference".
#[test]
fn a_late_proposal_costs_one_replica_a_whole_block() {
    // `net_conformance.rs`'s configuration: N-HS, n = 4, load on replica 0.
    let config = single_source(4);
    let horizon_us = 3_000_000;
    let reference = sim_commit_logs(&config, Some(TX_LIMIT), horizon_us);
    assert_eq!(reference[0].len(), TX_LIMIT as usize);
    let faulted = config.with_faults(FaultSchedule::new().at(
        12_000,
        FaultAction::Fluctuation {
            duration: 5_000,
            min_us: 5_000,
            max_us: 60_000,
        },
    ));
    let logs = sim_commit_logs(&faulted, Some(TX_LIMIT), horizon_us);
    for i in [0, 1, 3] {
        assert_eq!(logs[i], reference[0], "replica {i} diverged");
    }
    assert_eq!(
        logs[2],
        reference[0][40..],
        "replica 2 should lack exactly the first 40 transactions"
    );
}

/// A replica cut off for 10 simulated seconds under load — far more than
/// the 16 views `Chain` keeps and than δ, after which a peer stops serving
/// a body — rejoins the chain after the heal but never executes what the
/// others committed without it: nothing fetches a missing block, and
/// `Sync` serves only a restarted replica.  n = 7, because a commit needs
/// four live leaders in a row (three consecutive views, and the next
/// leader to collect the third view's votes): with one of four replicas
/// cut off, nobody commits until the heal.  Preserved defect (ROADMAP:
/// block sync): direction 2's catch-up path turns this into "replica 3
/// executes every committed transaction".
#[test]
fn a_replica_partitioned_for_ten_seconds_never_executes_what_it_missed() {
    let (cut_us, heal_us, horizon_us) = (1_000_000, 11_000_000, 13_000_000);
    let config = single_source(7).with_rate(400.0).with_faults(
        FaultSchedule::new()
            .at(cut_us, FaultAction::Partition(vec![ReplicaId(3)]))
            .at(heal_us, FaultAction::Heal),
    );
    // The same run stopped just before the heal: what replica 3 executed
    // before the cut, and what the others committed while it was away.
    let at_heal = sim_commit_logs(&config, None, heal_us - 1);
    let before = &at_heal[3];
    assert_eq!(before[..], at_heal[0][..before.len()]);
    let missed = &at_heal[0][before.len()..];
    assert!(
        missed.len() > 3_000,
        "the others commit through the partition ({} txs)",
        missed.len()
    );

    let logs = sim_commit_logs(&config, None, horizon_us);
    for i in [1, 2, 4, 5, 6] {
        assert_eq!(logs[i], logs[0], "replica {i} diverged");
    }
    assert_eq!(logs[0][..at_heal[0].len()], at_heal[0][..]);
    assert_eq!(logs[3][..before.len()], before[..]);
    let rejoined = &logs[3][before.len()..];
    assert!(
        !rejoined.is_empty(),
        "replica 3 commits new blocks after the heal"
    );
    assert!(
        rejoined.iter().all(|tx| !missed.contains(tx)),
        "replica 3 never executes a transaction committed while it was cut off"
    );
}
