//! Golden frames: the wire format, pinned byte for byte.
//!
//! A fixed corpus with every variant of every message family is encoded
//! with `encode_frame` and a digest of each frame compared against
//! constants recorded on the commit *before* `wire/codec.rs` was rewritten
//! as one `WireCodec` impl per wire type.  A codec change that claims "the
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

/// `(case, digest of the frame - frame length)`, recorded on the parent
/// of the codec rewrite.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str)] = &[
    ("propose/inline", "bfe795cc7bc8effbaa36549b1e5758ae-196"),
    ("propose/refs", "ad0897d71a642682893c5141ee18a85e-224"),
    ("propose/sharded", "2d1f6ca4451399187cefe81e35ef9c07-367"),
    ("propose/empty", "0d79a06312cac509b1923068ec8f8625-66"),
    ("vote", "90a3b99954d6ca41621cbb930cd35cce-56"),
    ("vote/low-priority", "851098e7b87c2f1bd922fedb1d7cc59d-56"),
    ("prepare", "92390deb0caa6876d776b37b80462736-60"),
    ("commit", "322c74a65a041aec56c8359dd47c9bd7-60"),
    ("new-view", "4856bf1bc0919652a2edfaffa49f61f0-32"),
    ("smp/microblock", "0d76791155bd7c75a5047b413419b787-158"),
    ("smp/gossip", "b8ce3e8876e655f252f4ef0df8db0c86-159"),
    ("smp/fetch", "b323f1e5320ebd260476fd18d4cfeff4-80"),
    ("smp/fetch-resp", "b317b36764d15671f74b63bf3b169366-216"),
    ("narwhal/batch", "0d76791155bd7c75a5047b413419b787-158"),
    ("narwhal/echo", "a826dc600c4b20e15fc24d7f485767e4-56"),
    ("narwhal/ready", "a6405af39606836ff571804fe0c4b64e-56"),
    ("narwhal/certificate", "ba3f2c9f226a864098d7e8c03b0a825e-124"),
    ("narwhal/fetch", "64a3ca6c75d6e31ecd819eeba9c4c83b-48"),
    ("narwhal/fetch-resp", "3aff08b2ff28e8498885e73f13ae5ff0-162"),
    ("dag/block+batch", "b1ea576d2ce85aae9e3bf00608dcbe30-323"),
    ("dag/block", "c72d8ac67e951c4897a570768eafa484-177"),
    ("dag/fetch", "d00c7454ad4515642884c96e290635a1-16"),
    ("dag/fetch-resp", "7b3c869956bfddc3d6f21366dba31347-162"),
    ("stratus/pab-msg", "0d76791155bd7c75a5047b413419b787-158"),
    ("stratus/pab-ack", "a826dc600c4b20e15fc24d7f485767e4-56"),
    ("stratus/pab-proof", "d0b1a7d4b4cbf150bc6514c6925de329-116"),
    ("stratus/pab-request", "f0075e6efcbf6de192e5b287eb26b87c-112"),
    ("stratus/pab-response", "28f6813d0fc26754f823f61ce9220124-70"),
    ("stratus/lb-query", "3796c8f05800856abd44820cce8ab26c-20"),
    ("stratus/lb-info/none", "c6785f49147b3ddcf3887e340d7bbd1c-21"),
    ("stratus/lb-info/some", "e6b21cbcbceb843b3836c43b7712bf32-29"),
    ("stratus/lb-forward", "6ded9bc23e1ca31b42e2f01578f01b5e-66"),
    ("sync/request", "f7523106e3a5aba45392e25972b540d6-20"),
    ("sync/response", "f6086e6a3dbd4db80670823fa2a3aef8-120"),
    ("sharded/stratus", "751f3a62c9e93f48608d3e3bb2b262df-160"),
    ("sharded/dag", "5ed243feb661dfee749c50547c6e1902-233"),
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
