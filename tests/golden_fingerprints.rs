//! Golden fingerprints: every protocol row's model output, pinned.
//!
//! Each case runs a small fixed configuration through
//! `smp_replica::run` and compares a hash of the whole `ObservationLog`
//! (every entry's time, node and kind, in emission order) plus the
//! committed-transaction count against recorded constants.  (The rows of
//! the protocols that carry a quorum proof — S-*, Narwhal, D-HS — were
//! re-recorded when a proof became an aggregate and a signer bitmap:
//! `QuorumProof::wire_size` and `PabProof`'s CPU cost changed, on purpose.
//! N-*, SMP-*, MirBFT and D-HS-F did not move.)  Nine rows were re-recorded
//! when a transaction began to count once: a microblock that two committed
//! proposals reference executes with the first, so `Committed.txs` no longer
//! repeats it — every one of the nine kept its entry count, and all now
//! commit what was offered (2 988 of 3 000, 6 988 of 7 000) where they read
//! up to 9 % more.  Two of them, "S-HS storm" and "D-HS storm", also stopped
//! re-proposing a microblock whose proof or certificate arrives after it
//! executed (7 347 → 7 147 and 7 600 → 7 188 counted the old way).
//! Twelve rows — every Narwhal, MirBFT and D-HS row, D-HS-F in the LAN and
//! WAN, and S-HS k=4 — were re-recorded when a CPU inbox became a FIFO in
//! arrival order: their receivers queue, so service times moved; every
//! entry count and committed count stayed.
//! A refactor that claims "no model output
//! changed" is proven by plain `cargo test` passing this file untouched; a
//! change that is *meant* to alter behaviour must re-record the constants
//! and say so.
//!
//! To re-record: `GOLDEN_PRINT=1 cargo test --test golden_fingerprints --
//! --nocapture` prints the table rows.

use stratus_repro::crypto::Hasher;
use stratus_repro::prelude::*;
use stratus_repro::simnet::{ObsKind, ObservationLog};

/// n = 4, LAN, 1 s simulated, seed 42; batches small enough that both the
/// size-triggered and the timeout-triggered seal paths run.
fn lan(protocol: Protocol) -> ExperimentConfig {
    ExperimentConfig::new(protocol, 4, 4_000.0)
        .with_duration(250_000, 750_000)
        .with_batch_size(8 * 1024)
}

/// S-HS over four mempool shards.
fn sharded(protocol: Protocol) -> ExperimentConfig {
    lan(protocol).with_shards(4)
}

/// One Byzantine sender (replica 3) that shares its microblocks with the
/// leader and one more replica only, so honest replicas see proposals
/// referencing data they never received.
fn byzantine(protocol: Protocol) -> ExperimentConfig {
    lan(protocol).with_byzantine(1, 1)
}

/// A delay storm (each message 20–120 ms late, reordered) through the
/// middle of a 2 s run: certificates overtake the batches they certify.
fn storm(protocol: Protocol) -> ExperimentConfig {
    lan(protocol)
        .with_duration(250_000, 1_750_000)
        .with_faults(FaultSchedule::new().at(
            400_000,
            FaultAction::Fluctuation {
                duration: 800_000,
                min_us: 20_000,
                max_us: 120_000,
            },
        ))
}

/// Same on the WAN preset, where proposals routinely outrun the data
/// they reference (the miss → fetch → retry paths).
fn wan(protocol: Protocol) -> ExperimentConfig {
    lan(protocol).wan().with_duration(500_000, 2_500_000)
}

fn fingerprint(log: &ObservationLog) -> String {
    let mut h = Hasher::with_domain(0x474f_4c44); // "GOLD"
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

/// `(case, scenario, protocol, fingerprint, committed txs)`.
type Case = (
    &'static str,
    fn(Protocol) -> ExperimentConfig,
    Protocol,
    &'static str,
    u64,
);

#[rustfmt::skip]
fn cases() -> Vec<Case> {
    use Protocol::*;
    vec![
        ("N-HS", lan, NativeHotStuff, "170e2bfba4bb618fb668ff413a6eb379-932", 2990),
        ("N-PBFT", lan, NativePbft, "6c2924f6cef2ba66f154ca614f7e1bca-620", 2980),
        ("SMP-HS", lan, SmpHotStuff, "0b959c70fc783959d1e1731e5580c9e6-936", 2988),
        ("SMP-HS-G", lan, SmpHotStuffGossip, "c85844bc8ccc86d911f688e96afc178c-938", 2988),
        ("S-HS", lan, StratusHotStuff, "b80c85ec49a7456a43291395e930f1a3-1027", 2988),
        ("S-PBFT", lan, StratusPbft, "ed9161f66cbe773110358248ae5d413f-712", 2988),
        ("S-SL", lan, StratusStreamlet, "182f756c53838ef81ecb8519e040242d-92", 0),
        ("Narwhal", lan, Narwhal, "d012a01db9d158cb3a203592367ce603-1024", 2988),
        ("MirBFT", lan, MirBft, "3ad8c0a0b12179ffa3cad057b531eaf9-144", 2800),
        ("D-HS", lan, DagHotStuff, "4af4d56cf87be7766a55eb519bebc4d8-1024", 2988),
        ("D-HS-F", lan, DagHotStuffFast, "47840e7e096ecaaf1db02bd82dbe62ec-1025", 2988),
        ("S-HS k=4", sharded, StratusHotStuff, "a064907b5c6c085682d6ff314f5a6d0a-1705", 2961),
        ("S-HS byzantine", byzantine, StratusHotStuff, "bbbaa3dea4e56487612ce6eb56a7a2d6-1061", 2988),
        ("SMP-HS byzantine", byzantine, SmpHotStuff, "c48902aab0b35d2e80dcf026db111afb-957", 2988),
        ("SMP-HS-G byzantine", byzantine, SmpHotStuffGossip, "c85844bc8ccc86d911f688e96afc178c-938", 2988),
        ("Narwhal byzantine", byzantine, Narwhal, "f465327ad5cc7db4cc532670853592cc-1001", 2241),
        ("D-HS byzantine", byzantine, DagHotStuff, "198b10d0f3f725f38ceeea8a2c14f54e-1036", 2588),
        ("D-HS-F byzantine", byzantine, DagHotStuffFast, "3c73fd005ef7cc4f070dee68f4652216-1026", 2988),
        ("S-HS storm", storm, StratusHotStuff, "70a897426f018a3a8464c981d4adbcdd-1315", 6988),
        ("Narwhal storm", storm, Narwhal, "fe7ad53400f62df30c5de6673af47432-1262", 6988),
        ("D-HS storm", storm, DagHotStuff, "0a904cc172fc06b1e32fd5c9079c7b79-1326", 6988),
        ("SMP-HS wan", wan, SmpHotStuff, "8f9c182eb904dc746309947aa108435a-106", 9600),
        ("SMP-HS-G wan", wan, SmpHotStuffGossip, "d871c7038ec08d8f6c20ed858a513145-105", 9698),
        ("S-HS wan", wan, StratusHotStuff, "cb1d3b48ecdd3c43d2ad9bc432c1bf72-389", 9441),
        ("Narwhal wan", wan, Narwhal, "a04313094ab3274ec497cc5e9c2b3895-385", 9388),
        ("D-HS wan", wan, DagHotStuff, "56eca4d1aec5a2e3ce53b0c18ed501a4-389", 9600),
        ("D-HS-F wan", wan, DagHotStuffFast, "e50731d8fa37ade1c2234c6b63edb703-389", 9600),
    ]
}

#[test]
fn model_outputs_match_the_recorded_fingerprints() {
    let print = std::env::var_os("GOLDEN_PRINT").is_some();
    let mut wrong = Vec::new();
    for (case, scenario, protocol, want_fp, want_txs) in cases() {
        let result = run_experiment(&scenario(protocol));
        let got = (fingerprint(&result.observations), result.committed_txs);
        if print {
            let fetches = result
                .observations
                .entries()
                .iter()
                .filter(|o| matches!(o.kind, ObsKind::MissingFetch { .. }))
                .count();
            println!("{case:<18} \"{}\", {}  // fetches {fetches}", got.0, got.1);
        }
        if got != (want_fp.to_string(), want_txs) {
            wrong.push(format!(
                "{case}: got ({}, {}), recorded ({want_fp}, {want_txs})",
                got.0, got.1
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "model output changed:\n{}",
        wrong.join("\n")
    );
}
