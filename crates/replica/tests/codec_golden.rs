//! Golden frames: the wire format, pinned byte for byte.
//!
//! A fixed corpus with every variant of every message family is encoded
//! with `encode_frame` and a digest of each frame compared against
//! recorded constants.  A codec change that claims "the
//! wire format did not change" is proven by this file passing untouched;
//! adding a message variant adds one corpus line and one golden line.
//!
//! To re-record (only for a deliberate format change, with a
//! `CODEC_VERSION` bump): `GOLDEN_PRINT=1 cargo test -p smp-replica --test
//! codec_golden -- --nocapture` prints the table rows.

use bytes::Bytes;
use smp_consensus::ConsensusMsg;
use smp_crypto::{Digest, QuorumProof, Signature};
use smp_mempool::{DagAck, DagBlock, DagMsg, DagParentRef, NarwhalMsg, NativeMsg, SmpMsg};
use smp_replica::wire::codec::{decode_frame, encode_frame, WireCodec};
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

/// Three transactions covering both `Option` fields absent and present,
/// and both an empty and a real payload.
fn txs() -> Vec<Transaction> {
    let plain = Transaction::synthetic(ClientId(2), 0, 128, 5);
    let mut stamped = Transaction::synthetic(ClientId(2), 1, 64, 6);
    stamped.mark_received(ReplicaId(3), 77);
    let mut real = Transaction::with_payload(ClientId(9), 2, Bytes::from(vec![1u8, 2, 3, 250]), 7);
    real.received_at = Some(80);
    vec![plain, stamped, real]
}

fn mb() -> Microblock {
    Microblock::seal(ReplicaId(1), txs(), 7)
}

/// A microblock forwarded by a DLB proxy: disseminator ≠ creator.
fn proxied_mb() -> Microblock {
    let mut mb = Microblock::seal(ReplicaId(2), txs()[..1].to_vec(), 9);
    mb.disseminator = ReplicaId(0);
    mb
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

fn proof() -> QuorumProof {
    QuorumProof::from_signatures(Digest::of_u64(40), vec![sig(0), sig(2), sig(3)])
}

fn refs() -> Vec<MicroblockRef> {
    vec![
        MicroblockRef::unproven(id(1), ReplicaId(1), 3),
        MicroblockRef::proven(id(2), ReplicaId(2), 1, proof()),
    ]
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

/// Encodes `msg`, checks that decoding the frame re-encodes to the same
/// bytes, and returns the frame.
fn frame<MM>(msg: ReplicaMsg<MM>) -> Vec<u8>
where
    MM: MempoolWire + WireCodec,
{
    let frame = encode_frame(&msg);
    let (back, used) = decode_frame::<MM>(&frame).expect("corpus frame decodes");
    assert_eq!(used, frame.len());
    assert_eq!(encode_frame(&back), frame, "decode → encode changed bytes");
    frame
}

fn consensus(c: ConsensusMsg, priority: bool) -> Vec<u8> {
    frame(ReplicaMsg::<NativeMsg>::consensus(c, priority))
}

fn mempool<MM>(m: MM) -> Vec<u8>
where
    MM: MempoolWire + WireCodec,
{
    frame(ReplicaMsg::mempool(m, false))
}

fn corpus() -> Vec<(&'static str, Vec<u8>)> {
    let (view, block) = (View(3), BlockId(Digest::of_u64(11)));
    let (voter, instance) = (ReplicaId(2), ReplicaId(1));
    vec![
        // Consensus ×5, the four payload shapes, both priority bits.
        (
            "propose/inline",
            consensus(propose(Payload::inline(txs())), false),
        ),
        (
            "propose/refs",
            consensus(propose(Payload::Refs(refs())), false),
        ),
        (
            "propose/sharded",
            consensus(
                propose(Payload::Sharded(vec![
                    (0, Payload::Refs(refs())),
                    (2, Payload::inline(txs())),
                    (7, Payload::Empty),
                ])),
                false,
            ),
        ),
        ("propose/empty", consensus(propose(Payload::Empty), true)),
        (
            "vote",
            consensus(ConsensusMsg::Vote { view, block, voter }, true),
        ),
        (
            "vote/low-priority",
            consensus(ConsensusMsg::Vote { view, block, voter }, false),
        ),
        (
            "prepare",
            consensus(
                ConsensusMsg::Prepare {
                    view,
                    block,
                    voter,
                    instance,
                },
                true,
            ),
        ),
        (
            "commit",
            consensus(
                ConsensusMsg::Commit {
                    view,
                    block,
                    voter,
                    instance,
                },
                true,
            ),
        ),
        (
            "new-view",
            consensus(
                ConsensusMsg::NewView {
                    view,
                    voter,
                    high_qc_view: View(2),
                },
                true,
            ),
        ),
        // SmpMsg ×4.
        ("smp/microblock", mempool(SmpMsg::Microblock(mb()))),
        ("smp/gossip", mempool(SmpMsg::Gossip { mb: mb(), hops: 2 })),
        (
            "smp/fetch",
            mempool(SmpMsg::Fetch {
                ids: vec![id(1), id(2)],
            }),
        ),
        (
            "smp/fetch-resp",
            mempool(SmpMsg::FetchResp {
                mbs: vec![mb(), proxied_mb()],
            }),
        ),
        // NarwhalMsg ×6.
        ("narwhal/batch", mempool(NarwhalMsg::Batch(mb()))),
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
            mempool(NarwhalMsg::FetchResp { mbs: vec![mb()] }),
        ),
        // DagMsg ×3, a block with and without a batch.
        (
            "dag/block+batch",
            mempool(DagMsg::Block(dag_block(Some(mb())))),
        ),
        ("dag/block", mempool(DagMsg::Block(dag_block(None)))),
        ("dag/fetch", mempool(DagMsg::Fetch { ids: vec![] })),
        (
            "dag/fetch-resp",
            mempool(DagMsg::FetchResp { mbs: vec![mb()] }),
        ),
        // StratusMsg ×8, LbInfo None and Some.
        ("stratus/pab-msg", mempool(StratusMsg::PabMsg(mb()))),
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
                mbs: vec![proxied_mb()],
            }),
        ),
        (
            "stratus/lb-query",
            mempool(StratusMsg::LbQuery { token: 9 }),
        ),
        (
            "stratus/lb-info/none",
            mempool(StratusMsg::LbInfo {
                token: 9,
                stable_time_us: None,
            }),
        ),
        (
            "stratus/lb-info/some",
            mempool(StratusMsg::LbInfo {
                token: 9,
                stable_time_us: Some(1_234),
            }),
        ),
        (
            "stratus/lb-forward",
            mempool(StratusMsg::LbForward(proxied_mb())),
        ),
        // SyncMsg ×2 and the sharded envelope.
        (
            "sync/request",
            frame(ReplicaMsg::<StratusMsg>::sync(SyncMsg::Request {
                from_index: 40,
            })),
        ),
        (
            "sync/response",
            frame(ReplicaMsg::<StratusMsg>::sync(SyncMsg::Response {
                from_index: 40,
                entries: (0..3).map(|n| TxId(Digest::of_u64(n))).collect(),
            })),
        ),
        (
            "sharded/stratus",
            frame(ReplicaMsg::mempool(
                ShardedMsg::new(5, StratusMsg::PabMsg(mb())),
                true,
            )),
        ),
        (
            "sharded/dag",
            mempool(ShardedMsg::new(
                1,
                DagMsg::Block(dag_block(Some(proxied_mb()))),
            )),
        ),
    ]
}

/// `(case, digest of the frame - frame length)`, recorded with
/// `CODEC_VERSION` 2 (a quorum proof is a digest, an aggregate and a signer
/// bitmap).  Beside the version byte, which is in every frame, only the
/// four frames that carry a proof differ from version 1's: 27 bytes
/// shorter each.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str)] = &[
    ("propose/inline", "5fc0590b11cf153adc75b9d85a7d756c-196"),
    ("propose/refs", "5cbfe440211960b3a8ecac4991dbdcd2-197"),
    ("propose/sharded", "334c100f9cdc7deff20370f7a80e49d9-340"),
    ("propose/empty", "a61f86a338f89dbd2e382c5d86864b13-66"),
    ("vote", "09c27a5fb4ea3164447e74d9b2b1eab6-56"),
    ("vote/low-priority", "213f828e7093b8f97050a7c5c75a8066-56"),
    ("prepare", "ffc3853aee2d2c15d2c818ec9a59c606-60"),
    ("commit", "7fb10fc85e7180d907ca17dc6cba20a2-60"),
    ("new-view", "3dd1df5c73f4c6f7ddd95ed3fd2212d2-32"),
    ("smp/microblock", "e87712a4e02f4816d11c871e94168a7c-158"),
    ("smp/gossip", "cfac79055ae90d88e717c73e191f3c42-159"),
    ("smp/fetch", "b2e81871a6786a8a93eea4e513f40956-80"),
    ("smp/fetch-resp", "7f0b2b0c99c016f7a999a53e93663c83-216"),
    ("narwhal/batch", "e87712a4e02f4816d11c871e94168a7c-158"),
    ("narwhal/echo", "8975ca0fd6f8fc1f62588850eb07b347-56"),
    ("narwhal/ready", "d6afa1c19d8b6d08aca59dfc8139430a-56"),
    ("narwhal/certificate", "4961c772e610f44769c59691248c2a48-97"),
    ("narwhal/fetch", "9ff64403f240995e9ade4005401dadc4-48"),
    ("narwhal/fetch-resp", "249c6e00e99b13927c2331fc199ccb35-162"),
    ("dag/block+batch", "d3f940bac7d4d980c06f8517a369624e-323"),
    ("dag/block", "cedef655276716a2e2ffb73364388793-177"),
    ("dag/fetch", "8091b1a7360ddc2d3b49c4b1636384dd-16"),
    ("dag/fetch-resp", "802fb63f5e28e67fea24706b6d93ca37-162"),
    ("stratus/pab-msg", "e87712a4e02f4816d11c871e94168a7c-158"),
    ("stratus/pab-ack", "8975ca0fd6f8fc1f62588850eb07b347-56"),
    ("stratus/pab-proof", "e85cb713f21da741b16a10bafa9d8af7-89"),
    ("stratus/pab-request", "1a392a3df4ae65522155f675b4b83c11-112"),
    ("stratus/pab-response", "6cb2afd8959a4cc424d96cc5c4366a7d-70"),
    ("stratus/lb-query", "4da2a424a63a9094cbae6d5b3ea40b2f-20"),
    ("stratus/lb-info/none", "1c62c8f1afc7fd3cf101ea582a199ea0-21"),
    ("stratus/lb-info/some", "c735a5c8a6402df6cb867ed9ff576201-29"),
    ("stratus/lb-forward", "2a1d323ad677db1a3df600795121bd9f-66"),
    ("sync/request", "c0d2ab11d928b0b4e31445bccc4ae91b-20"),
    ("sync/response", "72aacec05bb2af8c91a089bd1bcc0622-120"),
    ("sharded/stratus", "61caf4ae920ba93cacf12a9d31e340aa-160"),
    ("sharded/dag", "d961b4df56e2cdbbe7fe34f746dc241a-233"),
];

fn fingerprint(frame: &[u8]) -> String {
    let d = Digest::of_bytes(frame);
    format!("{:016x}{:016x}-{}", d.0[0], d.0[1], frame.len())
}

#[test]
fn frames_match_the_recorded_bytes() {
    let corpus = corpus();
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        for (case, frame) in &corpus {
            println!("    (\"{case}\", \"{}\"),", fingerprint(frame));
        }
    }
    assert_eq!(corpus.len(), GOLDEN.len(), "corpus and golden table differ");
    let wrong: Vec<String> = corpus
        .iter()
        .zip(GOLDEN)
        .filter(|((case, frame), (name, want))| case != name || fingerprint(frame) != *want)
        .map(|((case, frame), (name, want))| {
            format!("{case}: got {}, recorded {name} {want}", fingerprint(frame))
        })
        .collect();
    assert!(
        wrong.is_empty(),
        "wire format changed:\n{}",
        wrong.join("\n")
    );
}
