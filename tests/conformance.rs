//! Cross-executor conformance suite: the parallel shard executor must be
//! **byte-identical** to the sequential one on the same seed — same
//! proposals, same commits, same `ObservationLog`, same throughput
//! series — for every Table II protocol and k ∈ {1, 2, 4} shards.
//!
//! If the parallel executor's scheduling, RNG streams, or output merge
//! ever diverge from the sequential reference, one of these comparisons
//! trips.

use proptest::prelude::*;
use stratus_repro::prelude::*;
use stratus_repro::types::ExecutorKind;

fn quick(protocol: Protocol, n: usize, rate: f64) -> ExperimentConfig {
    ExperimentConfig::new(protocol, n, rate)
        .with_duration(500_000, 1_500_000)
        .with_batch_size(16 * 1024)
}

/// Runs `base` at `k` shards under both executors and asserts the runs
/// are indistinguishable.
fn assert_conformant(base: &ExperimentConfig, k: usize) {
    let seq = run_experiment(
        &base
            .clone()
            .with_shards(k)
            .with_executor(ExecutorKind::Sequential),
    );
    let par = run_experiment(
        &base
            .clone()
            .with_shards(k)
            .with_executor(ExecutorKind::Parallel),
    );
    let label = format!("{} k={k} seed={}", base.protocol.label(), base.seed);
    assert_eq!(
        seq.observations, par.observations,
        "{label}: observation logs diverged"
    );
    assert_eq!(
        seq.committed_txs, par.committed_txs,
        "{label}: committed transactions diverged"
    );
    assert_eq!(
        seq.view_changes, par.view_changes,
        "{label}: view changes diverged"
    );
    assert_eq!(
        seq.throughput_series, par.throughput_series,
        "{label}: throughput series diverged"
    );
    assert_eq!(
        seq.summary.throughput_ktps, par.summary.throughput_ktps,
        "{label}: headline throughput diverged"
    );
    assert_eq!(
        seq.summary.p95_latency_ms, par.summary.p95_latency_ms,
        "{label}: latency percentiles diverged"
    );
}

#[test]
fn parallel_executor_is_byte_identical_for_every_protocol_and_shard_count() {
    for protocol in Protocol::all() {
        for k in [1usize, 2, 4] {
            assert_conformant(&quick(protocol, 4, 2_000.0), k);
        }
    }
}

#[test]
fn conformance_survives_byzantine_senders_and_wan_conditions() {
    // The adversarial paths (censoring senders, WAN delays, DLB under
    // skew) exercise RNG draws the happy path never reaches.
    let base = quick(Protocol::StratusHotStuff, 7, 2_000.0)
        .wan()
        .with_byzantine(2, 2)
        .with_distribution(LoadDistribution::Zipf { s: 1.01, v: 1.0 });
    assert_conformant(&base, 2);
    assert_conformant(&base, 4);
}

#[test]
fn telemetry_does_not_perturb_either_executor() {
    // Telemetry must be a pure observer: with recording enabled the
    // simulated results stay byte-identical to a plain run, under both
    // executors, and the two executors stay byte-identical to each other
    // with telemetry live.
    let base = quick(Protocol::StratusHotStuff, 4, 2_000.0).with_shards(2);
    for kind in [ExecutorKind::Sequential, ExecutorKind::Parallel] {
        let plain = run_experiment(&base.clone().with_executor(kind));
        let traced = run_experiment(&base.clone().with_executor(kind).with_telemetry(true));
        assert_eq!(
            plain.observations, traced.observations,
            "{kind:?}: telemetry changed the observation log"
        );
        assert_eq!(
            plain.committed_txs, traced.committed_txs,
            "{kind:?}: telemetry changed the committed transactions"
        );
        assert_eq!(
            plain.throughput_series, traced.throughput_series,
            "{kind:?}: telemetry changed the throughput series"
        );
        assert!(
            traced.telemetry.is_enabled(),
            "{kind:?}: traced run should carry a live telemetry handle"
        );
    }
    let seq = run_experiment(
        &base
            .clone()
            .with_executor(ExecutorKind::Sequential)
            .with_telemetry(true),
    );
    let par = run_experiment(
        &base
            .clone()
            .with_executor(ExecutorKind::Parallel)
            .with_telemetry(true),
    );
    assert_eq!(
        seq.observations, par.observations,
        "executors diverged with telemetry enabled"
    );
    assert_eq!(
        seq.committed_txs, par.committed_txs,
        "executors committed differently with telemetry enabled"
    );
}

proptest! {
    // Each case runs two full simulations; a handful of random seeds per
    // CI run is plenty on top of the exhaustive fixed-seed sweep above.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn conformance_holds_for_random_seeds_loads_and_shard_counts(
        seed in any::<u64>(),
        rate in 500f64..6_000.0,
        k in 1usize..5,
        protocol_index in 0usize..11,
    ) {
        let protocol = Protocol::all()[protocol_index];
        let mut base = quick(protocol, 4, rate);
        base.seed = seed;
        assert_conformant(&base, k);
    }
}
