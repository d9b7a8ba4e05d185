//! The paper's shape, stated once: the claims of its evaluation that this
//! reproduction makes true, each as one short simulation with the number
//! it was measured at.  A claim is added here by the change that makes it
//! hold (ROADMAP's gated-figure item); a change that breaks one fails plain
//! `cargo test` with the claim's name.
//!
//! Every run is 0.5 s of warm-up and 2 s measured, 128 KiB batches, seed 42.

use std::sync::OnceLock;
use stratus_repro::prelude::*;

fn run(protocol: Protocol, n: usize, rate: f64, wan: bool) -> ExperimentResult {
    let config = ExperimentConfig::new(protocol, n, rate)
        .with_duration(500_000, 2_000_000)
        .with_batch_size(128 * 1024);
    run_experiment(&if wan { config.wan() } else { config })
}

/// Transactions offered during the 2 s measurement window.
fn offered(result: &ExperimentResult) -> f64 {
    result.offered_tps * 2.0
}

/// Mb/s the leader spends on proposals.
fn leader_proposal_mbps(result: &ExperimentResult) -> f64 {
    result.bandwidth.leader.mbps("proposal")
}

/// Mb/s all replicas together put on the wire, every kind.
fn total_mbps(result: &ExperimentResult, n: usize) -> f64 {
    let b = &result.bandwidth;
    leader_proposal_mbps(result) + n as f64 * b.non_leader.total_mbps()
}

/// The WAN runs the first three claims share — S-HS and SMP-HS at n = 16
/// and n = 64, 8 000 tx/s — each made once, by whichever test asks first.
fn wan(protocol: Protocol, n: usize) -> &'static ExperimentResult {
    static RUNS: [OnceLock<ExperimentResult>; 4] = [const { OnceLock::new() }; 4];
    let slot = match (protocol, n) {
        (Protocol::StratusHotStuff, 16) => 0,
        (Protocol::StratusHotStuff, 64) => 1,
        (Protocol::SmpHotStuff, 16) => 2,
        (Protocol::SmpHotStuff, 64) => 3,
        other => panic!("no shared WAN run for {other:?}"),
    };
    RUNS[slot].get_or_init(|| run(protocol, n, 8_000.0, true))
}

/// Stratus scales in the WAN (Figure 7, right): at n = 64 the leader's
/// proposals are ids and constant-size proofs, so the pacemaker never times
/// out and the offered load commits.  With a proof of `f + 1` concatenated
/// signatures (22 × 64 B per 40 B reference) the same run committed
/// nothing, in 25 view changes.
#[test]
fn stratus_commits_the_offered_load_in_wan_at_n64() {
    let shs = wan(Protocol::StratusHotStuff, 64);
    println!(
        "S-HS WAN n=64: committed {} of {}, {} view changes",
        shs.committed_txs,
        offered(shs),
        shs.view_changes
    );
    assert_eq!(shs.view_changes, 0);
    assert!(
        shs.committed_txs as f64 >= 0.85 * offered(shs),
        "committed {} of {} offered",
        shs.committed_txs,
        offered(shs)
    );
}

/// Commit latency is flat in the system size (Figure 7): measured p50 of
/// 685 ms at n = 16 and 735 ms at n = 64.
#[test]
fn stratus_wan_latency_is_flat_from_n16_to_n64() {
    let p50 = |n| wan(Protocol::StratusHotStuff, n).summary.p50_latency_ms;
    let (small, large) = (p50(16), p50(64));
    println!("S-HS WAN p50: n=16 {small:.0} ms, n=64 {large:.0} ms");
    assert!(
        large <= 1.25 * small && small <= 1.25 * large,
        "p50 {small:.0} ms at n = 16, {large:.0} ms at n = 64"
    );
}

/// The leader is off the critical path (Table III): a Stratus proposal
/// costs a small constant factor of a plain id list whatever n is —
/// measured 2.25 × SMP-HS's leader `proposal` Mb/s at n = 16 and 2.9 × at
/// n = 64 (a proven reference is 144 B at n = 64, a bare one 40 B, and
/// both ride under the same 216 B header).  So references need no further
/// compression (ROADMAP's reference-compression step is closed as
/// unnecessary).
#[test]
fn stratus_proposals_cost_a_constant_factor_of_bare_ids() {
    for n in [16, 64] {
        let shs = leader_proposal_mbps(wan(Protocol::StratusHotStuff, n));
        let smp = leader_proposal_mbps(wan(Protocol::SmpHotStuff, n));
        println!(
            "n={n}: leader proposal Mb/s S-HS {shs:.2}, SMP-HS {smp:.2} ({:.2}x)",
            shs / smp
        );
        assert!(
            shs <= 3.5 * smp,
            "n = {n}: S-HS {shs:.2} Mb/s, SMP-HS {smp:.2} Mb/s"
        );
    }
}

/// At n = 100 in the LAN Stratus commits what is offered, once, for about
/// the bytes of the simple shared mempool: the availability proofs are not
/// what the wire carries.  (With concatenated signatures the observer
/// reported 99 360 committed of 40 000 offered — proposals that overtook
/// their proofs were re-queued and committed twice — and proposals and
/// proofs were half of all bytes.)
#[test]
fn stratus_lan_n100_commits_each_transaction_once_for_the_bytes_of_smp() {
    let shs = run(Protocol::StratusHotStuff, 100, 20_000.0, false);
    let smp = run(Protocol::SmpHotStuff, 100, 20_000.0, false);
    let (shs_mbps, smp_mbps) = (total_mbps(&shs, 100), total_mbps(&smp, 100));
    println!(
        "LAN n=100: S-HS committed {} of {}, {shs_mbps:.0} Mb/s; SMP-HS {smp_mbps:.0} Mb/s ({:.3}x)",
        shs.committed_txs,
        offered(&shs),
        shs_mbps / smp_mbps
    );
    let off_by = (shs.committed_txs as f64 - offered(&shs)).abs();
    assert!(
        off_by <= 0.01 * offered(&shs),
        "committed {} of {} offered",
        shs.committed_txs,
        offered(&shs)
    );
    assert!(
        shs_mbps <= 1.15 * smp_mbps,
        "S-HS {shs_mbps:.0} Mb/s, SMP-HS {smp_mbps:.0} Mb/s"
    );
}

/// The same deployment through a delay burst (every message 20–120 ms late
/// for 0.8 s of the window): proofs now arrive after the proposals that
/// name them, are queued again, and some microblocks commit a second time.
/// A transaction still counts once — the observer's throughput is what the
/// clients offered, not what the chain repeated.  (Counted per reference,
/// the observer reported 42 880 committed of 40 000 offered.)
#[test]
fn stratus_lan_n100_counts_each_transaction_once_when_proofs_are_delayed() {
    let config = ExperimentConfig::new(Protocol::StratusHotStuff, 100, 20_000.0)
        .with_duration(500_000, 2_000_000)
        .with_batch_size(128 * 1024)
        .with_fault_window(FaultWindow {
            start: 800_000,
            end: 1_600_000,
            min_delay_us: 20_000,
            max_delay_us: 120_000,
        });
    let shs = run_experiment(&config);
    println!(
        "LAN n=100, delayed proofs: S-HS committed {} of {}",
        shs.committed_txs,
        offered(&shs)
    );
    assert!(
        shs.committed_txs as f64 <= 1.01 * offered(&shs),
        "committed {} of {} offered",
        shs.committed_txs,
        offered(&shs)
    );
    assert!(
        shs.committed_txs as f64 >= 0.85 * offered(&shs),
        "committed {} of {} offered",
        shs.committed_txs,
        offered(&shs)
    );
}
