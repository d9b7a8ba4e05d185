//! Deterministic chaos suite: scripted crash/restart, partitions, and
//! burst faults against the full replica stack inside the simulator.
//!
//! A crash loses what dies with a process; a restarted replica resumes
//! with the state it kept, as one that restarts from disk does, and takes
//! part again at once: it votes, proposes and offers.  When the faults
//! land after the workload settles, every log ends byte-identical to an
//! entirely unfaulted reference run.  Under load, no offer is lost to a
//! view change: through a crash, a restart, a delay burst and a partition,
//! replica 0 commits every transaction S-HS and N-HS are offered, and no
//! replica lists one twice.
//!
//! What is still lost is what a replica never received: the restarted
//! replica never executes what committed while it was down, and one cut
//! off for long never executes what committed without it (preserved
//! defects: nothing fetches a missing block).  The `Sync` wire family
//! serves only a process that comes back with no state (`--recover` on
//! sockets).  Every schedule replays deterministically, so each scenario
//! is also run twice and compared.

use simnet::{FaultAction, FaultSchedule};
use smp_replica::{sim_commit_logs, ExperimentConfig, Protocol};
use smp_types::{ClientId, ReplicaId, TxId};
use smp_workload::LoadDistribution;
use std::collections::HashSet;

/// Single-source workload: replica 0 offers every transaction, so the
/// committed sequence is protocol-determined FIFO and survives fault
/// timing as long as faults never touch replica 0's in-flight blocks.
fn single_source(n: usize) -> ExperimentConfig {
    ExperimentConfig::new(Protocol::NativeHotStuff, n, 4_000.0)
        .with_distribution(LoadDistribution::SingleReplica(0))
        .with_batch_size(16 * 1024)
}

/// Every replica's commit log of `config`'s run, checked to list no id
/// twice: a transaction, or a microblock standing in for its transactions,
/// executes once however many committed proposals name it.
fn commit_logs(
    config: &ExperimentConfig,
    tx_limit: Option<u64>,
    horizon_us: u64,
) -> Vec<Vec<TxId>> {
    let logs = sim_commit_logs(config, tx_limit, horizon_us);
    for (i, log) in logs.iter().enumerate() {
        let mut seen = HashSet::new();
        let twice: Vec<_> = log.iter().filter(|id| !seen.insert(**id)).collect();
        assert!(
            twice.is_empty(),
            "{} seed {}: replica {i} lists {twice:?} twice",
            config.protocol.label(),
            config.seed
        );
    }
    logs
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
    let reference = commit_logs(&config, Some(TX_LIMIT), HORIZON_US);
    assert_eq!(reference[0].len(), TX_LIMIT as usize);

    // Crash replica 3 after the workload settles, restart it 500 ms
    // later: it resumes with the log it kept, and nothing committed
    // meanwhile.
    let schedule = FaultSchedule::new()
        .at(SETTLED_US, FaultAction::Crash(ReplicaId(3)))
        .at(SETTLED_US + 500_000, FaultAction::Restart(ReplicaId(3)));
    let config = config.with_faults(schedule);
    let faulted = commit_logs(&config, Some(TX_LIMIT), HORIZON_US);
    for (i, log) in faulted.iter().enumerate() {
        assert_eq!(
            log, &reference[i],
            "replica {i} diverged from the unfaulted reference"
        );
    }

    // Same seed, same schedule: the chaos run itself must replay
    // byte-identically.
    let replay = commit_logs(&config, Some(TX_LIMIT), HORIZON_US);
    assert_eq!(replay, faulted);
}

#[test]
fn empty_fault_schedule_is_provably_inert() {
    let config = single_source(4);
    let plain = commit_logs(&config, Some(TX_LIMIT), 3_000_000);
    let with_empty = commit_logs(
        &config.with_faults(FaultSchedule::new()),
        Some(TX_LIMIT),
        3_000_000,
    );
    assert_eq!(plain, with_empty);
}

#[test]
fn partitioned_replica_catches_up_after_crash_recovery() {
    // Partition replica 3 away while consensus keeps running, heal, then
    // crash-and-restart it.  The workload committed before the cut, so
    // the views it missed carried nothing, and all four logs end
    // identical.
    let config = single_source(4);
    let schedule = FaultSchedule::new()
        .at(SETTLED_US, FaultAction::Partition(vec![ReplicaId(3)]))
        .at(SETTLED_US + 800_000, FaultAction::Heal)
        .at(SETTLED_US + 1_200_000, FaultAction::Crash(ReplicaId(3)))
        .at(SETTLED_US + 1_700_000, FaultAction::Restart(ReplicaId(3)));
    let logs = commit_logs(&config.with_faults(schedule), Some(TX_LIMIT), HORIZON_US);
    assert_eq!(logs[0].len(), TX_LIMIT as usize);
    for (i, log) in logs.iter().enumerate() {
        assert_eq!(log, &logs[0], "replica {i} diverged after recovery");
    }
}

#[test]
fn dag_mempool_stays_consistent_under_crash_and_heal() {
    // The DAG backend keeps per-creator rounds, a parent frontier, and
    // piggybacked ack state, which a restarted replica resumes with; this
    // scenario proves the whole plane survives a partition/heal then
    // crash/restart script with byte-identical logs, in both
    // commit-derivation modes.
    for protocol in [Protocol::DagHotStuff, Protocol::DagHotStuffFast] {
        // Four transactions per batch: the 60-tx workload spans 15 DAG
        // blocks (the commit log records one entry per referenced batch),
        // so the run exercises many emission rounds, not one.
        let mut config = single_source(4).with_batch_size(4 * 168);
        config.protocol = protocol;
        let reference = commit_logs(&config, Some(TX_LIMIT), HORIZON_US);
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
        let faulted = commit_logs(&config, Some(TX_LIMIT), HORIZON_US);
        for (i, log) in faulted.iter().enumerate() {
            assert_eq!(
                log,
                &reference[i],
                "{}: replica {i} diverged from the unfaulted reference",
                protocol.label()
            );
        }
        let replay = commit_logs(&config, Some(TX_LIMIT), HORIZON_US);
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
    let run = || commit_logs(&faulted, Some(TX_LIMIT), HORIZON_US);
    let first = run();
    assert_eq!(first, run(), "burst chaos must replay identically");

    // Safety: committed logs never reorder relative to the reference.
    let reference = commit_logs(&config, Some(TX_LIMIT), HORIZON_US);
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

/// A fluctuation that reorders proposals the way TCP does across
/// connections in the socket conformance failure: opened at 12 ms for 5 ms,
/// each message sent inside it takes 5 to 60 ms.
fn reordering() -> FaultSchedule {
    FaultSchedule::new().at(
        12_000,
        FaultAction::Fluctuation {
            duration: 5_000,
            min_us: 5_000,
            max_us: 60_000,
        },
    )
}

/// At seed 42 replica 0 sends view 4's proposal (transactions 0..=39, two
/// 5 ms ticks of offers) inside the fluctuation, and it reaches replica 2
/// only after view 5's; at seed 41 another replica is split off the same
/// way.  The late block is kept as an ancestor and committed through, so
/// every replica executes the whole workload in the reference order.
///
/// Preserved defect (ROADMAP: block sync): at seed 44 view 4's proposal
/// reaches replica 1 some 50 ms late, in view 10.  By then replica 1 has
/// committed views 5 and 6 on a missing parent, `commit_through` stopping
/// at the gap, and a block below a committed one is never committed: it
/// lacks the first 40 transactions.
#[test]
fn a_late_proposal_is_committed_through_on_every_replica() {
    // `net_conformance.rs`'s configuration: N-HS, n = 4, load on replica 0.
    let horizon_us = 3_000_000;
    for seed in 40..=45 {
        let mut config = single_source(4);
        config.seed = seed;
        let reference = commit_logs(&config, Some(TX_LIMIT), horizon_us);
        assert_eq!(reference[0].len(), TX_LIMIT as usize);
        let logs = commit_logs(
            &config.with_faults(reordering()),
            Some(TX_LIMIT),
            horizon_us,
        );
        for (i, log) in logs.iter().enumerate() {
            let want = if (seed, i) == (44, 1) {
                &reference[0][40..]
            } else {
                &reference[0][..]
            };
            assert_eq!(log, want, "seed {seed}: replica {i} diverged");
        }
    }
}

/// A microblock two committed proposals name executes, and is listed, once.
/// N-HS commits inline transactions.  S-HS, with load on every replica,
/// commits references to four-transaction microblocks, and at seeds 41 to
/// 44 two committed proposals name three of them on three replicas.
#[test]
fn no_replica_executes_an_id_twice_under_reordering() {
    let shs = ExperimentConfig::new(Protocol::StratusHotStuff, 4, 4_000.0).with_batch_size(4 * 168);
    for seed in 40..=45 {
        for mut config in [single_source(4), shs.clone()] {
            config.seed = seed;
            let logs = commit_logs(&config.with_faults(reordering()), Some(TX_LIMIT), 3_000_000);
            assert!(logs.iter().all(|log| !log.is_empty()));
        }
    }
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
    let at_heal = commit_logs(&config, None, heal_us - 1);
    let before = &at_heal[3];
    assert_eq!(before[..], at_heal[0][..before.len()]);
    let missed = &at_heal[0][before.len()..];
    assert!(
        missed.len() > 3_000,
        "the others commit through the partition ({} txs)",
        missed.len()
    );

    let logs = commit_logs(&config, None, horizon_us);
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

const SEC: u64 = 1_000_000;

/// The honest S-HS row of the benchmark's `sim_faults_n16` at `seed`:
/// n = 16, 20 000 tx/s, 128 KiB batches; 9 s of offers (11 250 per
/// replica) then 3 s to drain.
fn shs_row(seed: u64) -> ExperimentConfig {
    let mut config =
        ExperimentConfig::new(Protocol::StratusHotStuff, 16, 20_000.0).with_batch_size(128 * 1024);
    config.seed = seed;
    config
}

/// Each replica's offers in the `sim_faults_n16` rows.
const SHS_OFFERS: Option<u64> = Some(11_250);

/// Replica 3 crashes at 2 s and restarts at 4 s.
fn crash_and_restart() -> FaultSchedule {
    FaultSchedule::new()
        .at(2 * SEC, FaultAction::Crash(ReplicaId(3)))
        .at(4 * SEC, FaultAction::Restart(ReplicaId(3)))
}

/// A crash and restart, then a partition and heal, on the S-HS row:
/// replica 3 is down from 2 s to 4 s, and replicas 1 and 2 are cut off
/// from 7 s to 7.5 s.  Replica 0 commits exactly what it commits without
/// faults: 720 microblocks (250 transactions each, sealed on the batch
/// timer) at seeds 40 to 45.  Three things used to lose offers here.  An
/// orphaned proposal kept its references: at seed 42 replica 2 proposed a
/// view inside the partition whose late proposal every replica saw, and
/// the 60 references no other block carried were never proposed again;
/// the first commit over it now releases them.  A restarted replica stayed
/// a passive observer and offered nothing more; it resumes with its state
/// now, and offers.  And the microblocks that replicas 1 and 2 sealed
/// inside the partition lost their PAB broadcast, so no proof formed; a
/// push still open `δ` after it began is now sent again.
///
/// Only replica 0's log is read.  A replica on the other branch of a
/// HotStuff fork (ROADMAP: HotStuff lock) lists the ids of the views it
/// never committed later, when they come back and commit again.
#[test]
fn stratus_keeps_its_offers_through_a_crash_then_a_partition() {
    let composed = crash_and_restart()
        .at(
            7 * SEC,
            FaultAction::Partition(vec![ReplicaId(1), ReplicaId(2)]),
        )
        .at(15 * SEC / 2, FaultAction::Heal);
    for seed in 40..=45 {
        let committed = |faults: &FaultSchedule| {
            let config = shs_row(seed).with_faults(faults.clone());
            sim_commit_logs(&config, SHS_OFFERS, 12 * SEC)[0].len()
        };
        let (baseline, faulted) = (committed(&FaultSchedule::new()), committed(&composed));
        assert_eq!(baseline, 720, "seed {seed}");
        assert_eq!(
            faulted, baseline,
            "seed {seed}: S-HS commits {faulted} microblocks, {baseline} without faults"
        );
    }
}

/// The N-HS row of the benchmark's `sim_faults_n16` under its whole fault
/// script — replica 3 down from 2 s to 4 s, every message delayed by 100 to
/// 300 ms from 5 s to 6 s, replicas 1 and 2 cut off from 7 s to 7.5 s — at
/// a fifth of its rate, so that six seeds run in about 12 s of a debug
/// build.  Replica 0 commits every one of the 36 000 transactions offered
/// (2 250 per replica over 9 s; replica 3, which offers nothing while it
/// is down, makes its last near 11 s), and no replica lists one twice.
/// Before, 358 to 361 were lost at each seed (1 742 to 4 317 of 180 000 at
/// the row's rate), to two things: a leader drew a payload for a view it had
/// already left (a late vote or `NewView` quorum) and threw it away, and a
/// native proposal that never committed took its transactions with it.
/// Giving those back must not give back one that committed elsewhere below
/// a restarted replica's gap, or it would commit twice.
#[test]
fn native_hotstuff_commits_every_offer_through_the_composed_faults() {
    const OFFERS: u64 = 2_250;
    let composed = crash_and_restart()
        .at(
            5 * SEC,
            FaultAction::DelayBurst {
                duration: SEC,
                min_us: 100_000,
                max_us: 300_000,
            },
        )
        .at(
            7 * SEC,
            FaultAction::Partition(vec![ReplicaId(1), ReplicaId(2)]),
        )
        .at(15 * SEC / 2, FaultAction::Heal);
    for seed in 40..=45 {
        let mut config = ExperimentConfig::new(Protocol::NativeHotStuff, 16, 4_000.0)
            .with_batch_size(128 * 1024)
            .with_faults(composed.clone());
        config.seed = seed;
        let logs = commit_logs(&config, Some(OFFERS), 12 * SEC);
        let committed: HashSet<TxId> = logs[0].iter().copied().collect();
        let lost = (0..16)
            .flat_map(|r| (0..OFFERS).map(move |seq| TxId::derive(ClientId(r), seq)))
            .filter(|id| !committed.contains(id))
            .count();
        assert_eq!(lost, 0, "seed {seed}: replica 0 lacks {lost} transactions");
        assert_eq!(logs[0].len(), 16 * OFFERS as usize, "seed {seed}");
    }
}

/// The crash alone, on the S-HS row at seed 42: the restarted replica 3
/// commits what comes after its restart, but never executes what the
/// others committed while it was down — 120 of replica 0's 720
/// microblocks.  Its chain tip is a block from before the crash, and
/// `commit_through` stops at the first block it never received.
/// Preserved defect (ROADMAP: block sync): fetching a missing block turns
/// this into "replica 3's log equals replica 0's".
#[test]
fn a_restarted_replica_never_executes_what_committed_while_it_was_down() {
    let config = shs_row(42).with_faults(crash_and_restart());
    let logs = |horizon_us| sim_commit_logs(&config, SHS_OFFERS, horizon_us);
    // Replica 0's log as replica 3 crashes and as it restarts.
    let (at_crash, at_restart) = (logs(2 * SEC - 1), logs(4 * SEC));
    let (crashed, restarted) = (at_crash[0].len(), at_restart[0].len());
    assert_eq!(
        at_crash[3], at_crash[0],
        "replica 3 was level when it crashed"
    );
    let end = logs(12 * SEC);
    assert_eq!(end[0].len(), 720);
    assert_eq!(end[0][..restarted], at_restart[0][..]);
    let missed = &end[0][crashed..restarted];
    assert_eq!(missed.len(), 120);
    let without_missed = [&end[0][..crashed], &end[0][restarted..]].concat();
    assert_eq!(
        end[3], without_missed,
        "replica 3 executes everything else, in replica 0's order"
    );
}

/// N-HS, n = 4, 1 000 tx/s offered at each replica; replica 3 is down from
/// 2 s to 4 s.  A native mempool proposes a transaction only at the replica
/// that received it, so replica 3's transactions commit at replica 0 only
/// in blocks replica 3 proposed.  Every one it offers before the crash or
/// up to 3 s after the restart commits there: sequence numbers below
/// 5 000, of which 1 995 were offered before the crash.
#[test]
fn a_restarted_native_replica_proposes_blocks_that_commit() {
    for seed in 40..=45 {
        let mut config = ExperimentConfig::new(Protocol::NativeHotStuff, 4, 4_000.0)
            .with_batch_size(16 * 1024)
            .with_faults(crash_and_restart());
        config.seed = seed;
        let logs = commit_logs(&config, None, 8 * SEC);
        let committed: HashSet<TxId> = logs[0].iter().copied().collect();
        let lost: Vec<u64> = (0..5_000)
            .filter(|&seq| !committed.contains(&TxId::derive(ClientId(3), seq)))
            .collect();
        assert!(
            lost.is_empty(),
            "seed {seed}: replica 0 lacks {} of replica 3's transactions, from seq {}",
            lost.len(),
            lost[0]
        );
    }
}
