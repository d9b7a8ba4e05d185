//! Workspace-level integration tests: whole protocol stacks (consensus +
//! mempool + simulated network + workload) exercised through the public
//! facade, checking the qualitative relationships the paper's evaluation
//! is built on.  Parameters are kept small so the suite stays fast in
//! debug builds.

use stratus_repro::prelude::*;

fn quick(protocol: Protocol, n: usize, rate: f64) -> ExperimentConfig {
    ExperimentConfig::new(protocol, n, rate)
        .with_duration(500_000, 2_000_000)
        .with_batch_size(16 * 1024)
}

#[test]
fn every_protocol_of_table_ii_commits_transactions() {
    for protocol in Protocol::all() {
        let result = run_experiment(&quick(protocol, 4, 1_000.0));
        assert!(
            result.committed_txs > 0,
            "{} committed no transactions",
            protocol.label()
        );
        assert!(
            result.summary.mean_latency_ms > 0.0,
            "{} reported zero latency",
            protocol.label()
        );
    }
}

#[test]
fn shared_mempool_beats_native_hotstuff_at_moderate_scale() {
    // At 16 replicas in the 100 Mb/s WAN environment, the leader
    // bandwidth bottleneck separates native HotStuff from the
    // shared-mempool designs (Figure 7's regional setting).
    let rate = 12_000.0;
    let native = run_experiment(&quick(Protocol::NativeHotStuff, 16, rate).wan());
    let stratus = run_experiment(&quick(Protocol::StratusHotStuff, 16, rate).wan());
    assert!(
        stratus.summary.throughput_ktps > native.summary.throughput_ktps,
        "S-HS ({:.1} KTx/s) should beat N-HS ({:.1} KTx/s) at n=16",
        stratus.summary.throughput_ktps,
        native.summary.throughput_ktps
    );
}

#[test]
fn stratus_tolerates_byzantine_senders_better_than_smp() {
    let n = 10;
    let rate = 10_000.0;
    let byz = 3;
    let smp = run_experiment(&quick(Protocol::SmpHotStuff, n, rate).with_byzantine(byz, 0));
    let q = (n - 1) / 3 + 1;
    let stratus = run_experiment(&quick(Protocol::StratusHotStuff, n, rate).with_byzantine(byz, q));
    // At this moderate (non-saturating) load both protocols keep up with the
    // offered rate; the damage shows up as commit latency, because SMP-HS
    // must fetch the censored microblocks from the leader before it can
    // vote, while S-HS proceeds on the availability proofs (Figure 9).
    assert!(
        stratus.summary.throughput_ktps >= 0.9 * smp.summary.throughput_ktps,
        "S-HS ({:.2}) should not do much worse than SMP-HS ({:.2}) under Byzantine senders",
        stratus.summary.throughput_ktps,
        smp.summary.throughput_ktps
    );
    assert!(
        stratus.summary.p95_latency_ms <= smp.summary.p95_latency_ms,
        "S-HS p95 latency ({:.1} ms) should stay below SMP-HS ({:.1} ms) under Byzantine senders",
        stratus.summary.p95_latency_ms,
        smp.summary.p95_latency_ms
    );
}

#[test]
fn view_changes_stay_at_zero_in_the_failure_free_case() {
    let result = run_experiment(&quick(Protocol::StratusHotStuff, 7, 5_000.0));
    assert_eq!(result.view_changes, 0);
}

#[test]
fn network_fluctuation_does_not_stall_stratus() {
    // A Figure-8-style fluctuation in the middle of the run.
    let window = FaultAction::Fluctuation {
        duration: 1_000_000,
        min_us: 100_000,
        max_us: 300_000,
    };
    let cfg = quick(Protocol::StratusHotStuff, 7, 5_000.0)
        .wan()
        .with_duration(500_000, 3_000_000)
        .with_faults(FaultSchedule::new().at(1_000_000, window));
    let result = run_experiment(&cfg);
    assert!(
        result.committed_txs > 0,
        "Stratus should keep committing through the fluctuation"
    );
    // Throughput resumes after the window: the last series bucket is nonzero.
    let tail: f64 = result.throughput_series.iter().rev().take(1).sum();
    assert!(
        tail > 0.0,
        "no commits after the fluctuation window: {:?}",
        result.throughput_series
    );
}

#[test]
fn skewed_load_benefits_from_dlb() {
    let n = 10;
    let rate = 6_000.0;
    let base = ExperimentConfig::new(Protocol::StratusHotStuff, n, rate)
        .wan()
        .with_duration(500_000, 3_000_000)
        .with_batch_size(16 * 1024)
        .with_distribution(LoadDistribution::zipf1());
    let without = run_experiment(&base.clone().without_dlb());
    let with = run_experiment(&base.with_dlb_d(3));
    assert!(
        with.summary.throughput_ktps >= 0.9 * without.summary.throughput_ktps,
        "DLB should not hurt under skew (with {:.2} vs without {:.2})",
        with.summary.throughput_ktps,
        without.summary.throughput_ktps
    );
}

#[test]
fn bandwidth_breakdown_reports_proposals_and_votes() {
    let result = run_experiment(&quick(Protocol::StratusHotStuff, 7, 4_000.0));
    let rows = result.bandwidth.rows();
    assert!(rows
        .iter()
        .any(|(role, kind, _)| role == "leader" && kind == "proposal"));
    assert!(rows
        .iter()
        .any(|(role, kind, mbps)| role == "non-leader" && kind == "microblock" && *mbps >= 0.0));
}

#[test]
fn analytical_model_and_simulation_agree_on_the_trend() {
    // Appendix A predicts native throughput drops roughly as 1/n; the
    // simulator should show a clear decline from 4 to 16 replicas under an
    // identical offered load.
    let rate = 40_000.0;
    let small = run_experiment(&quick(Protocol::NativeHotStuff, 4, rate));
    let large = run_experiment(&quick(Protocol::NativeHotStuff, 16, rate));
    assert!(
        small.summary.throughput_ktps >= large.summary.throughput_ktps,
        "native throughput should not increase with n ({:.1} -> {:.1})",
        small.summary.throughput_ktps,
        large.summary.throughput_ktps
    );
}
