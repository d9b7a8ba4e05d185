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
//! Twenty-three rows — all but N-HS, N-PBFT, S-SL and MirBFT — were
//! re-recorded when a HotStuff or PBFT leader over a shared mempool began
//! to hold its view for payload (`PAYLOAD_HOLD`) instead of chaining empty
//! views: entry counts fell by up to half, and every committed count stayed
//! or rose (the WAN rows now commit up to 9 992 of 10 000) except "D-HS
//! byzantine", 2 588 → 2 241.  There the attacker leads the view it seals a
//! batch in, so the batch reaches one peer only, is never certified, and
//! the DAG's in-order release blocks the attacker's later batches; that
//! happens at 150 ms now and at 600 ms before, the same defect earlier.
//! In the same change a replica stopped queueing a microblock that a
//! proposal it has seen named (the proposal had overtaken the proof,
//! certificate or body that makes it proposable), which a held leader,
//! proposing the moment it has something, made common: the SMP-*, S-HS and
//! D-HS-F rows lost more entries, with the same committed counts.
//! The S-SL row was re-recorded when a Streamlet epoch began to end as soon
//! as its block is notarized, with its half-second timer left as the
//! timeout of a silent leader, and an idle S-SL leader began to hold for
//! payload: it had committed nothing in this one-second run (0 of 3 000,
//! 92 entries) and now commits what the other shared-mempool rows do
//! (2 988, 332 entries).  Since then a row recorded at zero committed
//! transactions fails here: a run that commits nothing pins nothing.
//! "S-HS byzantine" and "S-HS storm" were re-recorded when a PAB fetch
//! began to ask one signer of the proof at a time, the next one `δ` later,
//! where it had asked each signer with probability one half, and a request
//! for an id that an open fetch wants began to send nothing.  They are the
//! only rows in which a Stratus replica fetches (45 and 15 fetches now); their
//! entry counts went 533 → 537 and 700 → 711, their committed counts
//! stayed.  The SMP-*, D-HS-F and D-HS rows that fetch did not move.
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
        ("SMP-HS", lan, SmpHotStuff, "8245942d0b61458324ba4483e525d90f-410", 2988),
        ("SMP-HS-G", lan, SmpHotStuffGossip, "bcc26c62256f072363f927aed24e2c43-404", 2988),
        ("S-HS", lan, StratusHotStuff, "d5c4fd79fbf868f6d31cf55a424bba79-476", 2988),
        ("S-PBFT", lan, StratusPbft, "1d08a17db71c996a9d2a6d0e087aa76e-260", 2988),
        ("S-SL", lan, StratusStreamlet, "3f0ddf359d4a9e8fd1a73b7d74620f5b-332", 2988),
        ("Narwhal", lan, Narwhal, "e90bc0b9a13e8a55b27203dbdfe8fc7f-476", 2988),
        ("MirBFT", lan, MirBft, "3ad8c0a0b12179ffa3cad057b531eaf9-144", 2800),
        ("D-HS", lan, DagHotStuff, "80718749ed62b9fbb9f78b5e4633bdbb-476", 2988),
        ("D-HS-F", lan, DagHotStuffFast, "d5bbf708acd2192911b83180fc9f014c-497", 2988),
        ("S-HS k=4", sharded, StratusHotStuff, "10551f62bd8ed9352862084605d0854f-1642", 2987),
        ("S-HS byzantine", byzantine, StratusHotStuff, "aee9f1c4b37b774d5eaadc365fe1b17a-537", 2988),
        ("SMP-HS byzantine", byzantine, SmpHotStuff, "fab3c320632ab54bef8a8f99777f2b39-443", 2988),
        ("SMP-HS-G byzantine", byzantine, SmpHotStuffGossip, "bcc26c62256f072363f927aed24e2c43-404", 2988),
        ("Narwhal byzantine", byzantine, Narwhal, "3cf0e94445bf00bf9e09bbef2038161d-453", 2241),
        ("D-HS byzantine", byzantine, DagHotStuff, "9fae3d7a647f8434d50af66f89dd55e2-473", 2241),
        ("D-HS-F byzantine", byzantine, DagHotStuffFast, "f5b2697bc1da760a9018520643a6bf3a-573", 2988),
        ("S-HS storm", storm, StratusHotStuff, "e4dd41c8b342feb3ecf72f242c05297c-711", 6988),
        ("Narwhal storm", storm, Narwhal, "83e51525303ae3b9531db07160c0fcbd-683", 6988),
        ("D-HS storm", storm, DagHotStuff, "59d166b6d4117c8094f94f3f8ae2794f-685", 6988),
        ("SMP-HS wan", wan, SmpHotStuff, "af2fce4a02828e4bcc128bdeefec1dbf-105", 9992),
        ("SMP-HS-G wan", wan, SmpHotStuffGossip, "682d3aa229e2a8ff805512d25ac18e63-105", 9992),
        ("S-HS wan", wan, StratusHotStuff, "c87fa1fc09b939f85e242ac1c381dcce-385", 9600),
        ("Narwhal wan", wan, Narwhal, "44b396ee084b00fe8172c8bd496694b6-377", 9796),
        ("D-HS wan", wan, DagHotStuff, "da822552a8a91d66de9ec761f0148cac-384", 9747),
        ("D-HS-F wan", wan, DagHotStuffFast, "25158eff6834f09f20ea14889cf1e1e4-388", 9992),
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
        if want_txs == 0 {
            wrong.push(format!("{case}: recorded with no committed transaction"));
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
