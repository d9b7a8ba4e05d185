//! Memory guard: an availability proof exists once in memory, however many
//! messages, proposals and chain entries carry it.
//!
//! S-HS at n = 64 puts an `f + 1 = 22`-signer proof in every `PabProof`
//! broadcast (63 recipients) and on every reference of every proposal
//! (again 63 recipients, then each replica's chain).  `QuorumProof` is a
//! digest, one aggregate and a signer bitmap shared between clones, so all
//! of those are 48 bytes and no allocation; a change that goes back to a
//! list of signatures, or to copying it per recipient, multiplies the
//! simulator's live heap and fails here, in plain `cargo test`, not only
//! in the benchmark's `peak_rss_mb`.
//!
//! This file is its own test binary because it installs a counting global
//! allocator; it must stay the only test in it (tests of one binary run on
//! parallel threads and would count each other's allocations).

#[path = "support/counting.rs"]
mod counting;

use counting::{LIVE, PEAK};
use std::sync::atomic::Ordering::Relaxed;
use stratus_repro::prelude::*;
use stratus_repro::types::MICROS_PER_SEC;

#[global_allocator]
static ALLOCATOR: counting::Counting = counting::Counting;

/// Peak live heap of the run below, in MiB.  Measured (the run is
/// deterministic; debug and release builds read the same):
///
/// * a signature list copied per clone (commit `1519e59`): 35.0;
/// * a signature list shared between clones (commit `65bf414`): 19.4;
/// * an aggregate and a bitmap, the bitmap a `Vec` per clone: 19.4;
/// * an aggregate and a bitmap shared between clones (commit `7441085`):
///   18.4;
/// * the same, with executed microblocks, their proofs and committed blocks
///   retired one fetch timeout after execution (this change): 12.2.
///
/// The bound is 1.5 × the last figure, and every figure above the last is
/// over it.  (What the shared bitmap saves shows at n = 100, where the
/// benchmark's `peak_rss_mb` read 85 MiB with it and 95 MiB without; what
/// retirement saves, there and over a long run, is `bounded_state.rs`'s and
/// the benchmark's to show — this run is one simulated second.)
const PEAK_BOUND_MIB: f64 = 18.3;

#[test]
fn shs_n64_heap_stays_under_the_shared_proof_bound() {
    let config = ExperimentConfig::new(Protocol::StratusHotStuff, 64, 20_000.0)
        .with_duration(0, MICROS_PER_SEC);
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let result = run_experiment(&config);
    let peak_mib = (PEAK.load(Relaxed) - before) as f64 / (1024.0 * 1024.0);
    assert!(result.committed_txs > 0, "the run committed nothing");
    println!("peak live heap: {peak_mib:.1} MiB");
    assert!(
        peak_mib < PEAK_BOUND_MIB,
        "peak live heap {peak_mib:.1} MiB is over the {PEAK_BOUND_MIB} MiB bound: \
         is a quorum proof a list of signatures again, or copied per recipient, \
         or is executed state no longer retired?"
    );
}
