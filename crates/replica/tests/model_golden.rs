//! Golden model: what the simulator charges for each message, pinned.
//!
//! For one value of every variant of every message family, routed the way
//! a replica routes it, this file records what `SimMessage` reports
//! through [`ReplicaMsg`]: the bandwidth label, the modelled bytes, the
//! lane, and the receiver CPU cost (as the bits of the `f64`, so the order
//! of a sum is pinned too).  A refactor of the wire model that claims "no
//! message costs anything different" is proven by this file passing
//! untouched; adding a variant adds one corpus line and one golden line.
//!
//! To re-record (only for a deliberate model change, which also moves
//! `golden_fingerprints` and the `bench_gate` baselines):
//! `GOLDEN_PRINT=1 cargo test -p smp-replica --test model_golden --
//! --nocapture` prints the table rows.

use simnet::SimMessage;
use smp_consensus::ConsensusMsg;
use smp_crypto::{Digest, QuorumProof, Signature};
use smp_mempool::{DagAck, DagBlock, DagMsg, DagParentRef, NarwhalMsg, NativeMsg, SmpMsg};
use smp_replica::{MempoolWire, ReplicaMsg, SyncMsg};
use smp_shard::ShardedMsg;
use smp_types::{
    BlockId, ClientId, Microblock, MicroblockId, MicroblockRef, Payload, Proposal, ReplicaId,
    Transaction, TxId, View,
};
use stratus::StratusMsg;

// ---------------------------------------------------------------------
// Fixed building blocks.
// ---------------------------------------------------------------------

/// A microblock of `n` synthetic 128-byte transactions.
fn mb(n: usize) -> Microblock {
    let txs = (0..n)
        .map(|i| Transaction::synthetic(ClientId(1), i as u64, 128, 0))
        .collect();
    Microblock::seal(ReplicaId(1), txs, 0)
}

fn id(n: u64) -> MicroblockId {
    MicroblockId(Digest::of_u64(n))
}

fn sig(signer: u32) -> Signature {
    Signature {
        signer,
        tag: 0x0123_4567_89ab_cdef ^ signer as u64,
    }
}

/// A proof with three signers out of four: a one-byte signer bitmap.
fn proof() -> QuorumProof {
    QuorumProof::from_signatures(Digest::of_u64(40), vec![sig(0), sig(2), sig(3)])
}

fn propose(payload: Payload) -> ConsensusMsg {
    ConsensusMsg::Propose(Proposal::new(
        View(4),
        2,
        BlockId(Digest::of_u64(3)),
        ReplicaId(0),
        payload,
        true,
    ))
}

fn refs() -> Vec<MicroblockRef> {
    vec![
        MicroblockRef::unproven(id(1), ReplicaId(1), 3),
        MicroblockRef::proven(id(2), ReplicaId(2), 10, proof()),
    ]
}

fn inline(n: u64) -> Payload {
    Payload::inline(
        (0..n)
            .map(|i| Transaction::synthetic(ClientId(2), i, 128, 0))
            .collect(),
    )
}

/// A DAG block with three parents and two acks.
fn dag_block(batch: Option<Microblock>) -> DagBlock {
    DagBlock {
        creator: ReplicaId(2),
        round: 5,
        seq: 3,
        batch,
        parents: (0..3)
            .map(|c| DagParentRef {
                creator: ReplicaId(c),
                round: 4,
            })
            .collect(),
        acks: vec![
            DagAck {
                id: id(7),
                sig: sig(2),
            },
            DagAck {
                id: id(8),
                sig: sig(2),
            },
        ],
        sig: sig(2),
    }
}

// ---------------------------------------------------------------------
// The corpus.
// ---------------------------------------------------------------------

/// What the simulator sees of one message: `(kind, wire bytes, high
/// priority, CPU µs as f64 bits)`.
type Model = (&'static str, usize, bool, u64);

fn model<MM: MempoolWire>(msg: &ReplicaMsg<MM>) -> Model {
    (
        msg.kind(),
        msg.wire_size(),
        msg.high_priority(),
        msg.cpu_cost_us().to_bits(),
    )
}

/// A mempool message on the lane a replica with control prioritization
/// puts it on.
fn mempool<MM: MempoolWire>(m: MM) -> Model {
    let priority = !m.is_bulk();
    model(&ReplicaMsg::mempool(m, priority))
}

fn consensus(c: ConsensusMsg) -> Model {
    model(&ReplicaMsg::<NativeMsg>::consensus(c, true))
}

fn sync(s: SyncMsg) -> Model {
    model(&ReplicaMsg::<NativeMsg>::sync(s))
}

fn smp_variants() -> Vec<(&'static str, SmpMsg)> {
    vec![
        ("microblock", SmpMsg::Microblock(mb(10))),
        ("gossip", SmpMsg::Gossip { mb: mb(5), hops: 3 }),
        (
            "fetch",
            SmpMsg::Fetch {
                ids: vec![id(1), id(2)],
            },
        ),
        (
            "fetch-resp",
            SmpMsg::FetchResp {
                mbs: vec![mb(2), mb(3)],
            },
        ),
    ]
}

fn corpus() -> Vec<(String, Model)> {
    let (view, block) = (View(3), BlockId(Digest::of_u64(11)));
    let (voter, instance) = (ReplicaId(2), ReplicaId(1));
    let rows: Vec<(&str, Model)> = vec![
        // Consensus: the four payload shapes and every vote kind.
        (
            "consensus/propose/empty",
            consensus(propose(Payload::Empty)),
        ),
        ("consensus/propose/inline", consensus(propose(inline(7)))),
        (
            "consensus/propose/refs",
            consensus(propose(Payload::Refs(refs()))),
        ),
        (
            "consensus/propose/sharded",
            consensus(propose(Payload::Sharded(vec![
                (0, Payload::Refs(refs())),
                (2, inline(3)),
                (7, Payload::Empty),
            ]))),
        ),
        (
            "consensus/vote",
            consensus(ConsensusMsg::Vote { view, block, voter }),
        ),
        (
            "consensus/prepare",
            consensus(ConsensusMsg::Prepare {
                view,
                block,
                voter,
                instance,
            }),
        ),
        (
            "consensus/commit",
            consensus(ConsensusMsg::Commit {
                view,
                block,
                voter,
                instance,
            }),
        ),
        (
            "consensus/new-view",
            consensus(ConsensusMsg::NewView {
                view,
                voter,
                high_qc_view: View(2),
            }),
        ),
        // Narwhal.
        ("narwhal/batch", mempool(NarwhalMsg::Batch(mb(3)))),
        (
            "narwhal/echo",
            mempool(NarwhalMsg::Echo {
                id: id(1),
                sig: sig(1),
            }),
        ),
        (
            "narwhal/ready",
            mempool(NarwhalMsg::Ready {
                id: id(1),
                sig: sig(3),
            }),
        ),
        (
            "narwhal/certificate",
            mempool(NarwhalMsg::Certificate {
                id: id(1),
                creator: ReplicaId(1),
                tx_count: 3,
                proof: proof(),
            }),
        ),
        (
            "narwhal/fetch",
            mempool(NarwhalMsg::Fetch { ids: vec![id(5)] }),
        ),
        (
            "narwhal/fetch-resp",
            mempool(NarwhalMsg::FetchResp { mbs: vec![mb(4)] }),
        ),
        // DAG: a block with and without a batch.
        (
            "dag/block+batch",
            mempool(DagMsg::Block(dag_block(Some(mb(6))))),
        ),
        ("dag/block", mempool(DagMsg::Block(dag_block(None)))),
        (
            "dag/fetch",
            mempool(DagMsg::Fetch {
                ids: vec![id(1), id(2), id(3)],
            }),
        ),
        (
            "dag/fetch-resp",
            mempool(DagMsg::FetchResp { mbs: vec![mb(2)] }),
        ),
        // Stratus, LbInfo busy and not.
        ("stratus/pab-msg", mempool(StratusMsg::PabMsg(mb(4)))),
        (
            "stratus/pab-ack",
            mempool(StratusMsg::PabAck {
                id: id(1),
                sig: sig(1),
            }),
        ),
        (
            "stratus/pab-proof",
            mempool(StratusMsg::PabProof {
                id: id(1),
                proof: proof(),
            }),
        ),
        (
            "stratus/pab-request",
            mempool(StratusMsg::PabRequest {
                ids: vec![id(1), id(2), id(3)],
            }),
        ),
        (
            "stratus/pab-response",
            mempool(StratusMsg::PabResponse {
                mbs: vec![mb(1), mb(2)],
            }),
        ),
        (
            "stratus/lb-query",
            mempool(StratusMsg::LbQuery { token: 9 }),
        ),
        (
            "stratus/lb-info/busy",
            mempool(StratusMsg::LbInfo {
                token: 9,
                stable_time_us: None,
            }),
        ),
        (
            "stratus/lb-info/stable",
            mempool(StratusMsg::LbInfo {
                token: 9,
                stable_time_us: Some(1_234),
            }),
        ),
        ("stratus/lb-forward", mempool(StratusMsg::LbForward(mb(5)))),
        // State transfer.
        ("sync/request", sync(SyncMsg::Request { from_index: 40 })),
        (
            "sync/response",
            sync(SyncMsg::Response {
                from_index: 40,
                entries: (0..3).map(|n| TxId(Digest::of_u64(n))).collect(),
            }),
        ),
    ];
    let mut named: Vec<(String, Model)> = rows
        .into_iter()
        .map(|(case, m)| (case.to_string(), m))
        .collect();
    // Smp, then the same values inside a shard envelope.
    for (case, m) in smp_variants() {
        named.push((format!("smp/{case}"), mempool(m)));
    }
    for (case, m) in smp_variants() {
        named.push((
            format!("sharded/smp/{case}"),
            mempool(ShardedMsg::new(3, m)),
        ));
    }
    named
}

/// `(case, kind, wire bytes, high priority, CPU µs bits)`.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, usize, bool, u64)] = &[
    ("consensus/propose/empty", "proposal", 216, true, 0x4044000000000000),
    ("consensus/propose/inline", "proposal", 1392, true, 0x4045666666666666),
    ("consensus/propose/refs", "proposal", 393, true, 0x4045000000000000),
    ("consensus/propose/sharded", "proposal", 903, true, 0x404599999999999a),
    ("consensus/vote", "vote", 108, true, 0x4039000000000000),
    ("consensus/prepare", "vote", 108, true, 0x4039000000000000),
    ("consensus/commit", "vote", 108, true, 0x4039000000000000),
    ("consensus/new-view", "vote", 108, true, 0x4039000000000000),
    ("narwhal/batch", "microblock", 552, false, 0x4035cccccccccccd),
    ("narwhal/echo", "rb-echo", 100, true, 0x4051800000000000),
    ("narwhal/ready", "rb-ready", 100, true, 0x4051800000000000),
    ("narwhal/certificate", "rb-cert", 137, true, 0x4056800000000000),
    ("narwhal/fetch", "fetch-req", 76, true, 0x4020000000000000),
    ("narwhal/fetch-resp", "fetch-resp", 736, false, 0x4036666666666666),
    ("dag/block+batch", "microblock", 1220, false, 0x4063333333333333),
    ("dag/block", "dag-ack", 164, true, 0x4062c00000000000),
    ("dag/fetch", "fetch-req", 140, true, 0x4020000000000000),
    ("dag/fetch-resp", "fetch-resp", 400, false, 0x4035333333333333),
    ("stratus/pab-msg", "microblock", 720, false, 0x4036666666666666),
    ("stratus/pab-ack", "ack", 100, true, 0x404e000000000000),
    ("stratus/pab-proof", "proof", 129, true, 0x4056800000000000),
    ("stratus/pab-request", "fetch-req", 140, true, 0x4020000000000000),
    ("stratus/pab-response", "fetch-resp", 616, false, 0x4035cccccccccccd),
    ("stratus/lb-query", "lb-control", 48, true, 0x4014000000000000),
    ("stratus/lb-info/busy", "lb-control", 56, true, 0x4014000000000000),
    ("stratus/lb-info/stable", "lb-control", 56, true, 0x4014000000000000),
    ("stratus/lb-forward", "lb-forward", 888, false, 0x4037000000000000),
    ("sync/request", "sync", 12, true, 0x4014000000000000),
    ("sync/response", "sync", 112, false, 0x4016666666666666),
    ("smp/microblock", "microblock", 1728, false, 0x403a000000000000),
    ("smp/gossip", "microblock", 889, false, 0x4037000000000000),
    ("smp/fetch", "fetch-req", 108, true, 0x4020000000000000),
    ("smp/fetch-resp", "fetch-resp", 952, false, 0x4037000000000000),
    ("sharded/smp/microblock", "microblock", 1728, false, 0x403a000000000000),
    ("sharded/smp/gossip", "microblock", 889, false, 0x4037000000000000),
    ("sharded/smp/fetch", "fetch-req", 108, true, 0x4020000000000000),
    ("sharded/smp/fetch-resp", "fetch-resp", 952, false, 0x4037000000000000),
];

#[test]
fn every_message_costs_what_was_recorded() {
    let corpus = corpus();
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        for (case, (kind, bytes, high, cpu)) in &corpus {
            println!("    (\"{case}\", \"{kind}\", {bytes}, {high}, {cpu:#018x}),");
        }
    }
    assert_eq!(corpus.len(), GOLDEN.len(), "corpus and golden table differ");
    let wrong: Vec<String> = corpus
        .iter()
        .zip(GOLDEN)
        .filter(|((case, got), (name, kind, bytes, high, cpu))| {
            case != name || *got != (*kind, *bytes, *high, *cpu)
        })
        .map(|((case, got), want)| format!("{case}: got {got:?}, recorded {want:?}"))
        .collect();
    assert!(
        wrong.is_empty(),
        "message model changed:\n{}",
        wrong.join("\n")
    );
}

/// The paper's bandwidth vocabulary (Table III): proposals, microblocks,
/// votes and acks, the control messages "about 100 B".
#[test]
fn votes_and_acks_are_about_100_bytes() {
    let golden = |case: &str| GOLDEN.iter().find(|row| row.0 == case).unwrap();
    for case in [
        "consensus/vote",
        "consensus/prepare",
        "consensus/commit",
        "consensus/new-view",
    ] {
        let (_, kind, bytes, high, _) = golden(case);
        assert_eq!(*kind, "vote", "{case}");
        assert!((90..=128).contains(bytes), "{case}: {bytes} B");
        assert!(*high, "{case}");
    }
    for case in ["stratus/pab-ack", "narwhal/echo", "narwhal/ready"] {
        let (_, _, bytes, high, _) = golden(case);
        assert!(*bytes <= 128, "{case}: {bytes} B");
        assert!(*high, "{case}");
    }
    for case in [
        "stratus/lb-query",
        "stratus/lb-info/busy",
        "stratus/lb-info/stable",
    ] {
        let (_, _, bytes, high, _) = golden(case);
        assert!(*bytes <= 64, "{case}: {bytes} B");
        assert!(*high, "{case}");
    }
    for case in ["consensus/propose/empty", "consensus/propose/refs"] {
        assert_eq!(golden(case).1, "proposal", "{case}");
    }
    for case in [
        "smp/microblock",
        "smp/gossip",
        "narwhal/batch",
        "dag/block+batch",
        "stratus/pab-msg",
    ] {
        let (_, kind, _, high, _) = golden(case);
        assert_eq!(*kind, "microblock", "{case}");
        assert!(!*high, "bulk data rides the low lane: {case}");
    }
    assert_eq!(golden("stratus/pab-ack").1, "ack");
    assert_eq!(golden("dag/block").1, "dag-ack");
    assert!(!golden("stratus/lb-forward").3);
    assert!(!golden("sync/response").3);
    assert!(golden("sync/request").3);
}

/// A shard envelope is free: with its shard index in header padding, it
/// costs exactly what the wrapped message costs, which is what makes a
/// one-shard deployment identical to an unsharded one.
#[test]
fn shard_envelope_is_transparent() {
    for (case, m) in smp_variants() {
        assert_eq!(
            mempool(ShardedMsg::new(3, m.clone())),
            mempool(m),
            "smp/{case}"
        );
    }
}
