//! Tests of the sharded mempool: router determinism and coverage (uniform
//! and Zipf workloads), cross-shard payload assembly under the byte
//! budget, fill aggregation, the single-shard pass-through, shard-aware
//! batch sizing, and sequential/parallel wrapper equivalence.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use smp_mempool::{Dest, FillStatus, Mempool, MempoolEvent, SimpleSmp, SmpMsg};
use smp_shard::{per_shard_config, ShardRouter, ShardedMempool, ShardedMsg, TimerMux};
use smp_types::{
    BlockId, ClientId, MempoolConfig, MicroblockId, Payload, Proposal, ReplicaId, SystemConfig,
    Transaction, View, WireSize,
};
use smp_workload::ZipfWeights;
use std::collections::HashSet;

fn tx(client: u32, seq: u64) -> Transaction {
    Transaction::synthetic(ClientId(client), seq, 128, 0)
}

/// A system whose microblocks seal after 4 transactions (4 × 128 B).
fn small_batch_system(shards: usize) -> SystemConfig {
    SystemConfig::new(4)
        .with_shards(shards)
        .with_mempool(MempoolConfig {
            batch_size_bytes: 512,
            tx_payload_bytes: 128,
            ..MempoolConfig::default()
        })
}

fn sharded_simple(sys: &SystemConfig, me: u32) -> ShardedMempool<SimpleSmp> {
    ShardedMempool::from_system(sys, me as u64, |_, shard_sys| {
        SimpleSmp::new(shard_sys, ReplicaId(me))
    })
}

proptest! {
    #[test]
    fn routing_is_deterministic_and_in_range(
        client in any::<u32>(),
        seq in any::<u64>(),
        k in 1usize..9,
    ) {
        let router = ShardRouter::new(k);
        let t = tx(client, seq);
        let shard = router.shard_of_tx(&t);
        prop_assert!(shard < k);
        prop_assert_eq!(shard, router.shard_of_tx(&t));
        // A different router instance with the same shard count agrees.
        prop_assert_eq!(shard, ShardRouter::new(k).shard_of_tx(&t));
    }

    #[test]
    fn partition_is_total_and_consistent(
        seqs in proptest::collection::vec((any::<u32>(), any::<u64>()), 0..200),
        k in 1usize..6,
    ) {
        let router = ShardRouter::new(k);
        let txs: Vec<Transaction> = seqs.iter().map(|(c, s)| tx(*c, *s)).collect();
        let groups = router.partition(txs.clone());
        let total: usize = groups.iter().map(|(_, g)| g.len()).sum();
        prop_assert_eq!(total, txs.len());
        for (shard, group) in &groups {
            prop_assert!(*shard < k);
            for t in group {
                prop_assert_eq!(router.shard_of_tx(t), *shard);
            }
        }
    }
}

#[test]
fn uniform_workload_covers_all_shards_evenly() {
    for k in [2usize, 4, 8] {
        let router = ShardRouter::new(k);
        let mut counts = vec![0usize; k];
        let total = 8_000;
        for seq in 0..total {
            counts[router.shard_of_tx(&tx((seq % 97) as u32, seq))] += 1;
        }
        let mean = total as usize / k;
        for (shard, count) in counts.iter().enumerate() {
            assert!(
                *count > mean / 2 && *count < mean * 2,
                "shard {shard} of {k} got {count} txs (mean {mean}) — routing is skewed"
            );
        }
    }
}

#[test]
fn zipf_workload_still_covers_all_shards() {
    // Client popularity follows Zipf(1.0) over 64 clients — the workload
    // the paper's DLB experiments use.  Routing hashes the whole tx id
    // (client and sequence number), so even a single dominant client's
    // transactions must spread across every shard.
    let clients = 64;
    let weights = ZipfWeights::zipf1(clients);
    let total = 8_000usize;
    for k in [2usize, 4, 8] {
        let router = ShardRouter::new(k);
        let mut counts = vec![0usize; k];
        for client in 0..clients {
            let n = (weights.share(client) * total as f64).round() as u64;
            for seq in 0..n {
                counts[router.shard_of_tx(&tx(client as u32, seq))] += 1;
            }
        }
        let produced: usize = counts.iter().sum();
        let mean = produced / k;
        for (shard, count) in counts.iter().enumerate() {
            assert!(
                *count > mean / 2 && *count < mean * 2,
                "shard {shard} of {k} got {count} txs (mean {mean}) under Zipf load"
            );
        }
    }
}

#[test]
fn single_hot_client_covers_all_shards() {
    // Degenerate skew: every transaction from one client.
    let router = ShardRouter::new(4);
    let mut covered = HashSet::new();
    for seq in 0..1_000 {
        covered.insert(router.shard_of_tx(&tx(7, seq)));
    }
    assert_eq!(
        covered.len(),
        4,
        "one client's txs should still spread over all shards"
    );
}

/// Feeds enough transactions to seal several microblocks in every shard
/// and returns the mempool plus the total refs created.
fn fill_shards(mp: &mut ShardedMempool<SimpleSmp>, rng: &mut SmallRng, txs_total: u64) {
    let txs: Vec<Transaction> = (0..txs_total).map(|s| tx((s % 13) as u32, s)).collect();
    let _ = mp.on_client_txs(0, txs, rng);
}

fn collect_ref_ids(payload: &Payload, into: &mut Vec<MicroblockId>) {
    match payload {
        Payload::Refs(refs) => into.extend(refs.iter().map(|r| r.id)),
        Payload::Sharded(groups) => {
            for (_, p) in groups {
                collect_ref_ids(p, into);
            }
        }
        _ => {}
    }
}

#[test]
fn cross_shard_payloads_respect_the_byte_budget() {
    let mut sys = small_batch_system(4);
    // An unproven ref is 40 B on the wire; budget five-ish refs.
    sys.mempool.max_proposal_bytes = 220;
    let mut rng = SmallRng::seed_from_u64(1);
    let mut mp = sharded_simple(&sys, 0);
    fill_shards(&mut mp, &mut rng, 256);

    let created: u64 = mp.shard_stats().iter().map(|s| s.created_microblocks).sum();
    assert!(created >= 16, "expected many microblocks, got {created}");

    let mut seen: Vec<MicroblockId> = Vec::new();
    let mut payloads = 0;
    loop {
        let payload = mp.make_payload(1_000 + payloads);
        if payload.is_empty() {
            break;
        }
        assert!(
            payload.wire_size() <= sys.mempool.max_proposal_bytes,
            "payload of {} B exceeds the {} B budget",
            payload.wire_size(),
            sys.mempool.max_proposal_bytes
        );
        collect_ref_ids(&payload, &mut seen);
        payloads += 1;
        assert!(payloads < 10_000, "payload assembly does not terminate");
    }
    assert!(payloads > 1, "budget should force multiple proposals");
    assert_eq!(
        mp.carried_items(),
        0,
        "draining to empty must clear the carry queue"
    );
    // Every created microblock is proposed exactly once.
    assert_eq!(seen.len() as u64, created);
    let unique: HashSet<_> = seen.iter().collect();
    assert_eq!(
        unique.len(),
        seen.len(),
        "no microblock may be referenced twice"
    );
}

#[test]
fn round_robin_assembly_interleaves_shards() {
    let sys = small_batch_system(4);
    let mut rng = SmallRng::seed_from_u64(2);
    let mut mp = sharded_simple(&sys, 0);
    fill_shards(&mut mp, &mut rng, 256);
    let payload = mp.make_payload(1_000);
    match &payload {
        Payload::Sharded(groups) => {
            let shards: HashSet<u16> = groups.iter().map(|(s, _)| *s).collect();
            assert_eq!(
                shards.len(),
                4,
                "an unbudgeted payload should draw from every shard"
            );
        }
        other => panic!("expected a sharded payload, got {other:?}"),
    }
}

#[test]
fn fill_aggregates_across_shards_and_reemits_ready_once() {
    let sys = small_batch_system(2);
    let mut rng = SmallRng::seed_from_u64(3);
    let mut proposer = sharded_simple(&sys, 0);
    let mut follower = sharded_simple(&sys, 1);

    // The proposer seals microblocks in both shards and broadcasts them;
    // capture the dissemination messages without delivering them.
    let fx = proposer.on_client_txs(0, (0..64).map(|s| tx(1, s)).collect(), &mut rng);
    let broadcasts: Vec<ShardedMsg<SmpMsg>> = fx
        .msgs
        .into_iter()
        .filter(|(dest, _)| *dest == Dest::AllButSelf)
        .map(|(_, m)| m)
        .collect();
    assert!(!broadcasts.is_empty());

    let payload = proposer.make_payload(100);
    let groups: Vec<u16> = match &payload {
        Payload::Sharded(groups) => groups.iter().map(|(s, _)| *s).collect(),
        other => panic!("expected sharded payload, got {other:?}"),
    };
    assert_eq!(groups.len(), 2, "both shards should contribute refs");
    let proposal = Proposal::new(View(1), 1, BlockId::GENESIS, ReplicaId(0), payload, true);

    // The follower has seen none of the data: every shard must wait.
    let (status, _fx) = follower.on_proposal(200, &proposal, &mut rng);
    let missing = match status {
        FillStatus::MustWait(ids) => ids,
        other => panic!("expected MustWait, got {other:?}"),
    };
    assert!(!missing.is_empty());

    // Deliver the shard-0 microblocks first: the proposal must NOT become
    // ready while shard 1 is still missing data.
    let mut ready_events = 0;
    for shard in [0u16, 1u16] {
        for msg in broadcasts.iter().filter(|m| m.shard == shard) {
            let fx = follower.on_message(300, ReplicaId(0), msg.clone(), &mut rng);
            for ev in fx.events {
                if let MempoolEvent::ProposalReady { proposal: id } = ev {
                    assert_eq!(id, proposal.id);
                    ready_events += 1;
                }
            }
        }
        if shard == 0 {
            assert_eq!(
                ready_events, 0,
                "proposal must not be ready before the last shard fills"
            );
        }
    }
    assert_eq!(ready_events, 1, "exactly one aggregated ProposalReady");
}

#[test]
fn stats_roll_up_across_shards() {
    let sys = small_batch_system(4);
    let mut rng = SmallRng::seed_from_u64(4);
    let mut mp = sharded_simple(&sys, 0);
    fill_shards(&mut mp, &mut rng, 128);
    let per_shard = mp.shard_stats();
    let total = mp.stats();
    assert_eq!(per_shard.len(), 4);
    assert_eq!(
        total.created_microblocks,
        per_shard.iter().map(|s| s.created_microblocks).sum::<u64>()
    );
    assert_eq!(
        total.stored_microblocks,
        per_shard
            .iter()
            .map(|s| s.stored_microblocks)
            .sum::<usize>()
    );
    assert!(total.created_microblocks > 0);
    assert!(
        per_shard
            .iter()
            .filter(|s| s.created_microblocks > 0)
            .count()
            >= 2,
        "several shards should have sealed microblocks"
    );
}

#[test]
fn per_shard_batch_budgets_sum_to_the_configured_total() {
    // Regression: `ShardedMempool::new` used to hand every shard the full
    // `batch_size_bytes`, so a k-sharded replica sealed k times the
    // configured batch volume.
    let sys = SystemConfig::new(4); // 128 KiB batches, 128 B txs
    let total = sys.mempool.batch_size_bytes;
    for k in [1usize, 2, 4, 8] {
        let shard_sys = per_shard_config(&sys, k);
        assert_eq!(
            shard_sys.mempool.batch_size_bytes * k,
            total,
            "per-shard budgets at k={k} must sum to the configured total"
        );
    }
    // The constructor hands the divided budget to every backend it builds.
    let mut seen: Vec<usize> = Vec::new();
    let _ = ShardedMempool::new(&sys, 4, |_, shard_sys| {
        seen.push(shard_sys.mempool.batch_size_bytes);
        SimpleSmp::new(shard_sys, ReplicaId(0))
    });
    assert_eq!(seen.len(), 4);
    assert_eq!(seen.iter().sum::<usize>(), total);
    // Min-clamp: the division never starves a shard below one transaction.
    let tiny = SystemConfig::new(4).with_mempool(MempoolConfig {
        batch_size_bytes: 512,
        tx_payload_bytes: 128,
        ..MempoolConfig::default()
    });
    let clamped = per_shard_config(&tiny, 16);
    assert_eq!(
        clamped.mempool.batch_size_bytes, 128,
        "per-shard budget is clamped to one transaction payload"
    );
}

#[test]
fn timer_mux_never_collides_under_interleaved_shard_arms() {
    // The wrapper arms every shard's timers on the caller's thread, in
    // whatever order the shards' effects are lifted.  Interleave four
    // shards that reuse the same inner tags and verify global outer-tag
    // uniqueness plus exact (shard, inner-tag) resolution afterwards.
    let mut mux = TimerMux::new();
    let mut armed: Vec<(u64, u16, u64)> = Vec::new();
    for inner in 0..1_000u64 {
        for shard in [2u16, 0, 3, 1] {
            armed.push((mux.arm(shard, inner), shard, inner));
        }
    }
    let unique: HashSet<u64> = armed.iter().map(|(outer, ..)| *outer).collect();
    assert_eq!(unique.len(), armed.len(), "outer timer tags collided");
    assert_eq!(mux.armed(), 4_000);
    for (outer, shard, inner) in armed {
        assert_eq!(
            mux.fire(outer),
            Some((shard, inner)),
            "outer tag resolved to the wrong shard arm"
        );
    }
    assert_eq!(mux.armed(), 0);
}

/// Drives one wrapper through ingest → propose → fill → commit and
/// captures everything observable.
fn drive_wrapper(
    mp: &mut ShardedMempool<SimpleSmp>,
    rng: &mut SmallRng,
) -> (Vec<String>, Vec<Payload>) {
    let mut effects_log = Vec::new();
    let mut payloads = Vec::new();
    for round in 0..4u64 {
        let txs: Vec<Transaction> = (0..48)
            .map(|s| tx((s % 7) as u32, round * 100 + s))
            .collect();
        let fx = mp.on_client_txs(round * 1_000, txs, rng);
        effects_log.push(format!("{:?}|{:?}|{:?}", fx.msgs, fx.timers, fx.events));
        let payload = mp.make_payload(round * 1_000 + 500);
        let proposal = Proposal::new(
            View(round),
            round,
            BlockId::GENESIS,
            ReplicaId(0),
            payload.clone(),
            true,
        );
        let (status, fx) = mp.on_proposal(round * 1_000 + 600, &proposal, rng);
        effects_log.push(format!("{status:?}|{:?}", fx.msgs.len()));
        let fx = mp.on_commit(round * 1_000 + 700, &proposal);
        effects_log.push(format!("{:?}", fx.events));
        payloads.push(payload);
    }
    (effects_log, payloads)
}

#[test]
fn parallel_wrapper_is_byte_identical_to_sequential_wrapper() {
    for k in [1usize, 2, 4] {
        let sys = small_batch_system(k);
        let salt = 7u64;
        let mut seq = ShardedMempool::sequential(&sys, k, salt, |_, shard_sys| {
            SimpleSmp::new(shard_sys, ReplicaId(0))
        });
        let mut par = ShardedMempool::parallel(&sys, k, salt, |_, shard_sys| {
            SimpleSmp::new(shard_sys, ReplicaId(0))
        });
        let mut rng_a = SmallRng::seed_from_u64(9);
        let mut rng_b = SmallRng::seed_from_u64(9);
        let (log_a, payloads_a) = drive_wrapper(&mut seq, &mut rng_a);
        let (log_b, payloads_b) = drive_wrapper(&mut par, &mut rng_b);
        assert_eq!(log_a, log_b, "k={k}: effects diverged");
        assert_eq!(payloads_a, payloads_b, "k={k}: proposals diverged");
        assert_eq!(
            seq.shard_stats(),
            par.shard_stats(),
            "k={k}: stats diverged"
        );
    }
}

#[test]
fn one_shard_is_a_transparent_passthrough() {
    let sys = small_batch_system(1);
    let mut rng_a = SmallRng::seed_from_u64(5);
    let mut rng_b = SmallRng::seed_from_u64(5);
    let mut bare = SimpleSmp::new(&sys, ReplicaId(0));
    let mut wrapped = sharded_simple(&sys, 0);

    let txs: Vec<Transaction> = (0..32).map(|s| tx(2, s)).collect();
    let fx_bare = bare.on_client_txs(0, txs.clone(), &mut rng_a);
    let fx_wrapped = wrapped.on_client_txs(0, txs, &mut rng_b);

    assert_eq!(fx_bare.msgs.len(), fx_wrapped.msgs.len());
    for ((d1, m1), (d2, m2)) in fx_bare.msgs.iter().zip(fx_wrapped.msgs.iter()) {
        assert_eq!(d1, d2);
        assert_eq!(m2.shard, 0);
        assert_eq!(
            m1.wire_size(),
            m2.wire_size(),
            "the envelope must add no wire bytes"
        );
    }
    // Identical payloads: no Sharded wrapper in the single-shard case.
    let p_bare = bare.make_payload(100);
    let p_wrapped = wrapped.make_payload(100);
    assert_eq!(p_bare, p_wrapped);
}
