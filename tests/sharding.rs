//! End-to-end tests of the sharded shared mempool (`smp-shard`): full
//! protocol stacks running k dissemination pipelines per replica over the
//! simulated network.

use stratus_repro::prelude::*;
use stratus_repro::replica::MempoolWire;
use stratus_repro::types::ExecutorKind;

fn quick(protocol: Protocol, n: usize, rate: f64) -> ExperimentConfig {
    ExperimentConfig::new(protocol, n, rate)
        .with_duration(500_000, 2_000_000)
        .with_batch_size(16 * 1024)
}

#[test]
fn stratus_and_narwhal_commit_under_every_shard_count_and_executor() {
    for protocol in [Protocol::StratusHotStuff, Protocol::Narwhal] {
        let base = quick(protocol, 4, 4_000.0);
        for executor in [ExecutorKind::Sequential, ExecutorKind::Parallel] {
            for shards in [1usize, 2, 4] {
                let result =
                    run_experiment(&base.clone().with_shards(shards).with_executor(executor));
                assert!(
                    result.committed_txs > 1_000,
                    "{} with {} shards ({}) committed only {} txs",
                    protocol.label(),
                    shards,
                    executor.label(),
                    result.committed_txs
                );
                assert_eq!(
                    result.view_changes,
                    0,
                    "{} with {} shards ({}) caused view changes in the failure-free case",
                    protocol.label(),
                    shards,
                    executor.label()
                );
            }
        }
    }
}

#[test]
fn one_shard_commits_exactly_what_the_unsharded_backend_commits() {
    // `with_shards(1)` resolves to the unwrapped backend in the runner,
    // so on the same seed the two configs must be indistinguishable.
    for protocol in [Protocol::StratusHotStuff, Protocol::Narwhal] {
        let base = quick(protocol, 4, 4_000.0);
        let unsharded = run_experiment(&base);
        let one_shard = run_experiment(&base.clone().with_shards(1));
        assert_eq!(
            unsharded.committed_txs,
            one_shard.committed_txs,
            "{}: one shard must be byte-identical to the unsharded run",
            protocol.label()
        );
        assert_eq!(unsharded.view_changes, one_shard.view_changes);
        assert_eq!(
            unsharded.summary.throughput_ktps,
            one_shard.summary.throughput_ktps,
            "{}: throughput must match exactly on the same seed",
            protocol.label()
        );
    }
}

/// Runs a hand-assembled 4-replica HotStuff deployment over the simulated
/// LAN and returns the total transactions committed across replicas.
fn committed_in_manual_sim<M, F>(sys: &SystemConfig, make_mempool: F) -> u64
where
    M: Mempool,
    M::Msg: MempoolWire,
    F: Fn(ReplicaId) -> M,
{
    let horizon = 3_000_000;
    let nodes: Vec<Replica<HotStuffEngine, M>> = (0..sys.n)
        .map(|i| {
            let id = ReplicaId(i as u32);
            Replica::new(
                sys,
                id,
                HotStuffEngine::new(sys, id),
                make_mempool(id),
                Behavior::Honest,
                1_000.0,
                true,
                false,
            )
        })
        .collect();
    let mut sim = Simulation::new(nodes, NetConfig::lan(), sys.seed);
    sim.run_until(horizon);
    sim.observations().tally(|_| true, 0..horizon).committed_txs
}

#[test]
fn wrapped_single_shard_pipeline_matches_the_bare_backend() {
    // The genuinely cross-path equivalence check: one simulation runs the
    // bare Stratus backend, the other runs ShardedMempool wrapped around
    // it with k = 1 (fast-path payloads, message envelope, timer mux all
    // engaged).  Same seed, same committed count — the wrapper is a
    // transparent pass-through.
    let sys = SystemConfig::new(4).with_seed(7);
    let bare = committed_in_manual_sim(&sys, |id| {
        StratusMempool::new(&sys, StratusConfig::default(), id)
    });
    let wrapped = committed_in_manual_sim(&sys, |id| {
        ShardedMempool::new(&sys, 1, |_, shard_sys| {
            StratusMempool::new(shard_sys, StratusConfig::default(), id)
        })
    });
    assert!(bare > 0, "baseline committed nothing");
    assert_eq!(
        bare, wrapped,
        "ShardedMempool at k = 1 must commit exactly what the bare backend commits"
    );
}

#[test]
fn parallel_and_sequential_wrappers_commit_identically_in_a_manual_sim() {
    // Same check as the conformance suite but through the hand-assembled
    // deployment path (no ExperimentConfig), at k = 2 where the wrapper
    // uses its per-shard RNG streams.
    let sys = SystemConfig::new(4).with_seed(11).with_shards(2);
    let seq = committed_in_manual_sim(&sys, |id| {
        ShardedMempool::sequential(&sys, 2, id.0 as u64, |_, shard_sys| {
            StratusMempool::new(shard_sys, StratusConfig::default(), id)
        })
    });
    let par = committed_in_manual_sim(&sys, |id| {
        ShardedMempool::parallel(&sys, 2, id.0 as u64, |_, shard_sys| {
            StratusMempool::new(shard_sys, StratusConfig::default(), id)
        })
    });
    assert!(seq > 0, "sequential baseline committed nothing");
    assert_eq!(
        seq, par,
        "the parallel constructor must commit exactly what the sequential one commits"
    );
}

#[test]
fn sharding_also_composes_with_the_simple_smp_baseline() {
    let result = run_experiment(&quick(Protocol::SmpHotStuff, 4, 3_000.0).with_shards(2));
    assert!(
        result.committed_txs > 1_000,
        "SMP-HS × 2 shards committed {}",
        result.committed_txs
    );
}

#[test]
fn sharded_stats_surface_multiple_pipelines() {
    // Sharding splits batching across instances, so at identical offered
    // load a sharded run seals at least as many (smaller) microblocks;
    // the roll-up keeps reporting them through the single MempoolStats.
    let base = quick(Protocol::StratusHotStuff, 4, 4_000.0);
    let sharded = run_experiment(&base.clone().with_shards(4));
    assert!(sharded.committed_txs > 1_000);
}
