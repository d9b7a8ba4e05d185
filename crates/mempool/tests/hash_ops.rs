//! One-hash-per-payload regression tests (ROADMAP's digest-caching item).
//!
//! `MicroblockId::derive` is the only payload-proportional hash in the
//! dissemination plane, and it must run exactly once per batch — at
//! `Microblock::seal` on the creator.  Gossip relays, DAG blocks, fill
//! resolution, and commit garbage collection all move the cached id
//! around; none of them may re-hash transaction data.  These tests drive
//! a full seal → disseminate → fill → commit flow on a 4-replica
//! in-process network and diff the derivation counter around it.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use smp_mempool::{DagMempool, Dest, GossipSmp, Mempool};
use smp_types::{
    mb_id_derivations, BlockId, ClientId, MempoolConfig, Payload, Proposal, ReplicaId,
    SystemConfig, Transaction, View,
};

const N: usize = 4;
/// 60 transactions at 4 per batch (168 wire bytes each, 672-byte batches).
const TXS: usize = 60;
const BATCHES: u64 = 15;

fn config() -> SystemConfig {
    SystemConfig::new(N).with_mempool(MempoolConfig {
        batch_size_bytes: 168 * 4,
        ..MempoolConfig::default()
    })
}

fn txs() -> Vec<Transaction> {
    (0..TXS)
        .map(|i| Transaction::synthetic(ClientId(7), i as u64, 128, 0))
        .collect()
}

/// Delivers every queued message to its targets until the network is
/// quiescent.
fn pump<M: Mempool>(net: &mut [M], mut pending: Vec<(ReplicaId, Dest, M::Msg)>) {
    let mut r = SmallRng::seed_from_u64(11);
    let mut rounds = 0;
    while !pending.is_empty() {
        rounds += 1;
        assert!(rounds < 128, "network failed to quiesce");
        let mut next = Vec::new();
        for (from, dest, msg) in pending.drain(..) {
            let targets: Vec<usize> = match &dest {
                Dest::One(t) => vec![t.index()],
                Dest::AllButSelf => (0..net.len()).filter(|i| *i != from.index()).collect(),
                Dest::Many(ts) => ts.iter().map(|t| t.index()).collect(),
            };
            for t in targets {
                let fx = net[t].on_message(100, from, msg.clone(), &mut r);
                let me = ReplicaId(t as u32);
                next.extend(fx.msgs.into_iter().map(|(d, m)| (me, d, m)));
            }
        }
        pending = next;
    }
}

/// Runs seal → disseminate → fill → commit for one backend and returns
/// `(payload hashes performed, refs committed)`.
fn drive<M: Mempool>(mut net: Vec<M>) -> (u64, u64) {
    let mut r = SmallRng::seed_from_u64(9);
    let before = mb_id_derivations();

    // Seal: replica 0 batches the whole workload and disseminates it.
    let fx = net[0].on_client_txs(0, txs(), &mut r);
    let pending: Vec<_> = fx
        .msgs
        .into_iter()
        .map(|(d, m)| (ReplicaId(0), d, m))
        .collect();
    pump(&mut net, pending);

    // Fill + commit: replica 0 proposes its queue; everyone resolves and
    // commits each proposal.
    let mut committed = 0u64;
    let mut view = 1u64;
    loop {
        let payload = net[0].make_payload(1_000);
        let refs = match &payload {
            Payload::Refs(refs) => refs.len() as u64,
            _ => break,
        };
        committed += refs;
        let p = Proposal::new(
            View(view),
            view,
            BlockId::GENESIS,
            ReplicaId(0),
            payload,
            true,
        );
        view += 1;
        let mut msgs = Vec::new();
        for (i, node) in net.iter_mut().enumerate() {
            let me = ReplicaId(i as u32);
            let (_, fx) = node.on_proposal(1_000, &p, &mut r);
            msgs.extend(fx.msgs.into_iter().map(|(d, m)| (me, d, m)));
            let fx = node.on_commit(1_100, &p);
            msgs.extend(fx.msgs.into_iter().map(|(d, m)| (me, d, m)));
        }
        pump(&mut net, msgs);
    }
    (mb_id_derivations() - before, committed)
}

#[test]
fn gossip_path_hashes_each_payload_exactly_once() {
    let cfg = config();
    let net: Vec<GossipSmp> = (0..N)
        .map(|i| GossipSmp::new(&cfg, ReplicaId(i as u32)))
        .collect();
    let (hashes, committed) = drive(net);
    assert_eq!(committed, BATCHES, "workload did not commit fully");
    assert_eq!(
        hashes, BATCHES,
        "gossip/fill path re-hashed a payload (expected one derivation per sealed batch)"
    );
}

#[test]
fn dag_path_hashes_each_payload_exactly_once() {
    let cfg = config();
    let net: Vec<DagMempool> = (0..N)
        .map(|i| DagMempool::new(&cfg, ReplicaId(i as u32)))
        .collect();
    let (hashes, committed) = drive(net);
    assert_eq!(committed, BATCHES, "workload did not commit fully");
    assert_eq!(
        hashes, BATCHES,
        "DAG block/ack path re-hashed a payload (expected one derivation per sealed batch)"
    );
}
