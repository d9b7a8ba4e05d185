//! The soak: protocol state ends at the commit frontier, so a long run
//! holds what a short one does.
//!
//! S-HS, N-HS, Narwhal and D-HS at n = 16 in the LAN, 20 000 tx/s, sampled
//! every simulated second.  Two things are held to a plateau, the second
//! half of the run against the first:
//!
//! * every table a replica reports — microblocks stored, proposable and
//!   unbatched (`MempoolStats`), blocks and vote tallies held by the engine
//!   (`StateSize`), each summed over the replicas;
//! * the live heap of the whole simulation (the counting allocator of
//!   `proof_sharing.rs`), which also covers what no gauge names: proofs,
//!   certificate books, echo and ack sets, DAG ledgers, pacemaker sets,
//!   fetch entries, the simulator's own queues.
//!
//! Outputs are not state and are taken out of the heap figure before it is
//! compared: the `ObservationLog` — the one record of commits and view
//! changes — and the observer's `LatencyHistogram` keep one entry per event
//! by design (both are `Vec`s pushed one entry at a time, so each holds its
//! length rounded up to a power of two).  The one thing left that grows with the
//! run is the retired filter of `store.rs` — an 8-byte word a microblock a
//! replica, in a hash set that spends at most [`FILTER_BYTES`] on an entry
//! (right after it doubles) — and the heap bound allows for exactly that
//! and nothing else: before retirement the same run grew by ≈ 400 bytes a
//! microblock a replica.
//!
//! This file is its own test binary because it installs a counting global
//! allocator; `cargo test` runs the one test that is not `#[ignore]`d, and
//! `-- --ignored` the long one alone, so neither counts the other's
//! allocations.

#[path = "support/counting.rs"]
mod counting;

use counting::LIVE;
use std::sync::atomic::Ordering::Relaxed;
use stratus_repro::prelude::*;
use stratus_repro::replica::{run_sampled, ReplicaSizes};
use stratus_repro::simnet::Observation;
use stratus_repro::types::MICROS_PER_SEC;

#[global_allocator]
static ALLOCATOR: counting::Counting = counting::Counting;

/// One simulated second's reading.
struct Sample {
    /// `[stored, proposable, unbatched, blocks, tallies]`, summed over the
    /// replicas.
    tables: [usize; 5],
    retired: usize,
    /// Live heap less the outputs' share, in bytes.
    state_heap: usize,
}

const TABLES: [&str; 5] = [
    "stored_microblocks",
    "proposable_microblocks",
    "unbatched_txs",
    "engine blocks",
    "engine tallies",
];

/// The most a `HashSet<u64>` spends on an entry: 8 bytes and a control
/// byte a bucket, and 2 × 8 / 7 buckets an entry just after it has doubled.
const FILTER_BYTES: usize = 21;

/// Heap bytes of a `Vec` of `len` entries of `size` bytes, grown by pushes.
fn pushed_vec_bytes(len: usize, size: usize) -> usize {
    if len == 0 {
        0
    } else {
        len.next_power_of_two().max(4) * size
    }
}

fn soak(protocol: Protocol, seconds: u64) -> Vec<Sample> {
    let config =
        ExperimentConfig::new(protocol, 16, 20_000.0).with_duration(0, seconds * MICROS_PER_SEC);
    let base = LIVE.load(Relaxed);
    let mut samples = Vec::with_capacity(seconds as usize);
    let result = run_sampled(
        &config,
        MICROS_PER_SEC,
        &mut |_, sizes: &[ReplicaSizes], observations| {
            let sum = |f: fn(&ReplicaSizes) -> usize| sizes.iter().map(f).sum::<usize>();
            let histograms: usize = sizes
                .iter()
                .map(|s| pushed_vec_bytes(s.latency_runs, 16))
                .sum();
            let outputs =
                pushed_vec_bytes(observations, std::mem::size_of::<Observation>()) + histograms;
            samples.push(Sample {
                tables: [
                    sum(|s| s.mempool.stored_microblocks),
                    sum(|s| s.mempool.proposable_microblocks),
                    sum(|s| s.mempool.unbatched_txs),
                    sum(|s| s.engine.blocks),
                    sum(|s| s.engine.tallies),
                ],
                retired: sum(|s| s.mempool.retired_microblocks),
                state_heap: (LIVE.load(Relaxed) - base).saturating_sub(outputs),
            });
        },
    );
    let offered = 20_000 * seconds;
    assert!(
        result.committed_txs >= offered * 9 / 10,
        "{}: committed {} of {offered}",
        protocol.label(),
        result.committed_txs
    );
    samples
}

/// Every table and the state heap: the maximum over the second half of the
/// run within `1.1 ×` the maximum over the first half (plus, for the heap,
/// the retired filter's entries of the second half).
fn assert_plateau(protocol: Protocol, samples: &[Sample]) {
    let label = protocol.label();
    let (first, second) = samples.split_at(samples.len() / 2);
    let max = |half: &[Sample], f: &dyn Fn(&Sample) -> usize| half.iter().map(f).max().unwrap();
    for (i, table) in TABLES.iter().enumerate() {
        let (a, b) = (max(first, &|s| s.tables[i]), max(second, &|s| s.tables[i]));
        println!("{label:>8}  {table:<24} first half {a:>8}  second half {b:>8}");
        assert!(
            b as f64 <= 1.1 * a as f64,
            "{label}: {table} grew from {a} to {b}"
        );
    }
    let (a, b) = (
        max(first, &|s| s.state_heap),
        max(second, &|s| s.state_heap),
    );
    let (midway, retired) = (
        first.last().unwrap().retired,
        second.last().unwrap().retired,
    );
    let filter = FILTER_BYTES * (retired - midway);
    println!(
        "{label:>8}  {:<24} first half {a:>8}  second half {b:>8}  (filter {filter})",
        "state heap, bytes"
    );
    assert!(
        b as f64 <= 1.1 * a as f64 + filter as f64,
        "{label}: live heap less outputs grew from {a} to {b} bytes"
    );
    // The reference-based mempools retire what they execute, all run long.
    if protocol != Protocol::NativeHotStuff {
        assert!(
            midway > 0 && retired >= midway * 19 / 10,
            "{label}: {midway} retired by half time, {retired} at the end"
        );
    }
}

const PROTOCOLS: [Protocol; 4] = [
    Protocol::StratusHotStuff,
    Protocol::NativeHotStuff,
    Protocol::Narwhal,
    Protocol::DagHotStuff,
];

#[test]
fn state_and_heap_plateau_over_twenty_simulated_seconds() {
    for protocol in PROTOCOLS {
        assert_plateau(protocol, &soak(protocol, 20));
    }
}

/// The same over five simulated minutes (CI's `chaos-e2e` job; about a
/// minute of host time in a release build).
#[test]
#[ignore = "long: run with --release -- --ignored"]
fn state_and_heap_plateau_over_three_hundred_simulated_seconds() {
    for protocol in PROTOCOLS {
        assert_plateau(protocol, &soak(protocol, 300));
    }
}
