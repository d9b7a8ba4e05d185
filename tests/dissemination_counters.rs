//! The five shared mempools report dissemination through one counter
//! set, emitted once, by `smp_mempool::Dissemination`.
//!
//! Each backend is driven through the same story — seal a batch, share it
//! to quiescence, have a replica that never received it fill a proposal
//! referencing it (miss → fetch), let the fetch time out (retry) — and
//! must leave the same counters behind.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use stratus_repro::mempool::{Dest, Effects, FillStatus, GossipSmp, NarwhalMempool};
use stratus_repro::prelude::*;
use stratus_repro::types::{BlockId, ClientId, MICROS_PER_SEC};

const N: usize = 4;

fn config() -> SystemConfig {
    // Four 128-byte transactions (168 B on the wire) fill a batch.
    SystemConfig::new(N).with_mempool(MempoolConfig {
        batch_size_bytes: 168 * 4,
        ..MempoolConfig::default()
    })
}

/// Delivers `effects` of replica `from` and everything they cause until
/// no replica has anything left to say.
fn share<M: Mempool>(net: &mut [M], from: usize, effects: Effects<M::Msg>, rng: &mut SmallRng) {
    let mut pending: Vec<(usize, Dest, M::Msg)> = effects
        .msgs
        .into_iter()
        .map(|(dest, msg)| (from, dest, msg))
        .collect();
    for _round in 0..64 {
        let mut next = Vec::new();
        for (from, dest, msg) in pending {
            let targets: Vec<usize> = match dest {
                Dest::One(to) => vec![to.index()],
                Dest::AllButSelf => (0..net.len()).filter(|i| *i != from).collect(),
                Dest::Many(to) => to.iter().map(|r| r.index()).collect(),
            };
            for to in targets {
                let fx = net[to].on_message(10, ReplicaId(from as u32), msg.clone(), rng);
                next.extend(fx.msgs.into_iter().map(|(dest, msg)| (to, dest, msg)));
            }
        }
        if next.is_empty() {
            return;
        }
        pending = next;
    }
    panic!("dissemination did not quiesce");
}

/// Runs the story on the backend built by `make` and returns the
/// dissemination counters it left in a telemetry handle shared by all
/// replicas: `(sealed, sealed_txs, mb_in, fetch, retry)`.
fn counters<M: Mempool>(make: impl Fn(ReplicaId) -> M) -> (u64, u64, u64, u64, u64) {
    let telemetry = Telemetry::new();
    let observed = |id: u32| {
        let mut mempool = make(ReplicaId(id));
        mempool.set_telemetry(telemetry.clone());
        mempool
    };
    let mut rng = SmallRng::seed_from_u64(7);
    let mut net: Vec<M> = (0..N as u32).map(observed).collect();

    // Seal one batch at replica 0 and share it.
    let txs = (0..4)
        .map(|i| Transaction::synthetic(ClientId(1), i, 128, 0))
        .collect();
    let sealed = net[0].on_client_txs(0, txs, &mut rng);
    share(&mut net, 0, sealed, &mut rng);

    // Replica 1 proposes it; a replica 3 that was never told fills the
    // proposal, misses the data and fetches it.
    let payload = net[1].make_payload(100);
    assert_eq!(payload.ref_count(), 1, "the batch became proposable");
    let proposal = Proposal::new(View(5), 1, BlockId::GENESIS, ReplicaId(1), payload, true);
    let mut late = observed(3);
    let (status, fx) = late.on_proposal(200, &proposal, &mut rng);
    assert!(!matches!(status, FillStatus::Invalid(_)), "{status:?}");
    let (_, retry_tag) = fx.timers[0];
    // Nobody answers: the retry timer fires with the data still missing.
    let retried = late.on_timer(200 + MICROS_PER_SEC, retry_tag, &mut rng);
    assert_eq!(retried.msgs.len(), 1, "the fetch is retried");

    let snap = telemetry.snapshot();
    let count = |name: &str| snap.counter(name).unwrap_or(0);
    (
        count("batcher.sealed"),
        count("batcher.sealed_txs"),
        count("dissemination.mb_in"),
        count("fetcher.fetch"),
        count("fetcher.retry"),
    )
}

#[test]
fn every_backend_reports_the_same_dissemination_counters() {
    let cfg = config();
    let table = [
        ("SimpleSmp", counters(|me| SimpleSmp::new(&cfg, me))),
        ("GossipSmp", counters(|me| GossipSmp::new(&cfg, me))),
        (
            "NarwhalMempool",
            counters(|me| NarwhalMempool::new(&cfg, me)),
        ),
        (
            "DagMempool/Certified",
            counters(|me| DagMempool::with_mode(&cfg, me, DagMode::Certified)),
        ),
        (
            "DagMempool/FastPath",
            counters(|me| DagMempool::with_mode(&cfg, me, DagMode::FastPath)),
        ),
        (
            "StratusMempool",
            counters(|me| StratusMempool::new(&cfg, StratusConfig::default(), me)),
        ),
    ];
    for (backend, (sealed, sealed_txs, mb_in, fetch, retry)) in table {
        assert_eq!(
            (sealed, sealed_txs, fetch, retry),
            (1, 4, 1, 1),
            "{backend}: (batcher.sealed, batcher.sealed_txs, fetcher.fetch, fetcher.retry)"
        );
        // The three peers absorb the batch (the DAG's creator absorbs its
        // own too, when the block carrying it is emitted).
        assert!(
            (3..=4).contains(&mb_in),
            "{backend}: dissemination.mb_in = {mb_in}"
        );
    }
}
