//! Property tests of the wire codec: `decode(encode(m)) == m` for every
//! message variant of every protocol family, and no panic on adversarial
//! input (truncation, oversized length prefixes, wrong version bytes,
//! random corruption).
//!
//! The nine protocols of the experiment matrix route four mempool wire
//! families — `NativeMsg` (N-HS, N-PBFT: consensus-only), `SmpMsg`
//! (SMP-HS, SMP-HS-G), `NarwhalMsg` (Narwhal, MirBFT data plane), and
//! `StratusMsg` (S-HS, S-PBFT, S-SL) — plus the `ShardedMsg` envelope any
//! of them ride in under a sharded deployment.  Each family gets its own
//! round-trip property below.

use bytes::Bytes;
use proptest::collection::vec;
use proptest::prelude::*;
use smp_consensus::ConsensusMsg;
use smp_crypto::{Digest, QuorumProof, Signature};
use smp_mempool::{DagAck, DagBlock, DagMsg, DagParentRef, NarwhalMsg, NativeMsg, SmpMsg};
use smp_replica::wire::codec::{
    decode_frame, encode_frame, DecodeError, WireCodec, CODEC_VERSION, FRAME_HEADER_BYTES,
    MAX_FRAME_BYTES,
};
use smp_replica::{MempoolWire, ReplicaMsg, ReplicaPayload, SyncMsg};
use smp_shard::ShardedMsg;
use smp_types::{
    BlockId, ClientId, Microblock, MicroblockId, MicroblockRef, Payload, Proposal, ReplicaId,
    Transaction, TxId, View,
};

// ---------------------------------------------------------------------
// Generators.
// ---------------------------------------------------------------------

fn arb_digest() -> impl Strategy<Value = Digest> {
    any::<[u64; 4]>().prop_map(Digest)
}

fn arb_tx() -> impl Strategy<Value = Transaction> {
    (
        any::<u32>(),
        any::<u64>(),
        vec(any::<u8>(), 0..64),
        0usize..4096,
        any::<u64>(),
        proptest::option::of((any::<u64>(), any::<u32>())),
    )
        .prop_map(|(client, seq, payload, payload_len, created_at, stamp)| {
            let client = ClientId(client);
            Transaction {
                // The decoder re-derives the id; encode the canonical one.
                id: TxId::derive(client, seq),
                client,
                seq,
                payload: if payload.is_empty() {
                    Bytes::new()
                } else {
                    Bytes::from(payload)
                },
                payload_len,
                created_at,
                received_at: stamp.map(|(t, _)| t),
                entry_replica: stamp.map(|(_, r)| ReplicaId(r)),
            }
        })
}

fn arb_microblock() -> impl Strategy<Value = Microblock> {
    (
        any::<u32>(),
        vec(arb_tx(), 0..6),
        any::<u64>(),
        any::<u32>(),
    )
        .prop_map(|(creator, txs, created_at, diss)| {
            let mut mb = Microblock::seal(ReplicaId(creator), txs, created_at);
            mb.disseminator = ReplicaId(diss);
            mb
        })
}

fn arb_mb_id() -> impl Strategy<Value = MicroblockId> {
    arb_digest().prop_map(MicroblockId)
}

fn arb_signature() -> impl Strategy<Value = Signature> {
    (any::<u32>(), any::<u64>()).prop_map(|(signer, tag)| Signature { signer, tag })
}

/// Proofs over arbitrary signer sets of systems up to n = 512, with the
/// aggregate whatever the tags fold to.
fn arb_proof() -> impl Strategy<Value = QuorumProof> {
    (arb_digest(), vec((0u32..512, any::<u64>()), 0..40)).prop_map(|(digest, sigs)| {
        let sigs = sigs
            .into_iter()
            .map(|(signer, tag)| Signature { signer, tag });
        QuorumProof::from_signatures(digest, sigs)
    })
}

fn arb_mb_ref() -> impl Strategy<Value = MicroblockRef> {
    (
        arb_mb_id(),
        any::<u32>(),
        any::<u32>(),
        proptest::option::of(arb_proof()),
    )
        .prop_map(|(id, creator, tx_count, proof)| match proof {
            Some(p) => MicroblockRef::proven(id, ReplicaId(creator), tx_count, p),
            None => MicroblockRef::unproven(id, ReplicaId(creator), tx_count),
        })
}

/// A payload group a sharded payload may carry (no nesting).
fn arb_flat_payload() -> impl Strategy<Value = Payload> {
    prop_oneof![
        Just(Payload::Empty),
        vec(arb_tx(), 0..4).prop_map(Payload::inline),
        vec(arb_mb_ref(), 0..4).prop_map(Payload::Refs),
    ]
}

fn arb_payload() -> impl Strategy<Value = Payload> {
    prop_oneof![
        arb_flat_payload(),
        vec((any::<u16>(), arb_flat_payload()), 0..3).prop_map(Payload::sharded),
    ]
}

fn arb_proposal() -> impl Strategy<Value = Proposal> {
    (
        any::<u64>(),
        any::<u64>(),
        arb_digest(),
        any::<u32>(),
        arb_payload(),
        any::<bool>(),
    )
        .prop_map(|(view, height, parent, proposer, payload, qc)| {
            Proposal::new(
                View(view),
                height,
                BlockId(parent),
                ReplicaId(proposer),
                payload,
                qc,
            )
        })
}

fn arb_consensus() -> impl Strategy<Value = ConsensusMsg> {
    prop_oneof![
        arb_proposal().prop_map(ConsensusMsg::Propose),
        (any::<u64>(), arb_digest(), any::<u32>()).prop_map(|(v, b, r)| ConsensusMsg::Vote {
            view: View(v),
            block: BlockId(b),
            voter: ReplicaId(r),
        }),
        (any::<u64>(), arb_digest(), any::<u32>(), any::<u32>()).prop_map(|(v, b, r, i)| {
            ConsensusMsg::Prepare {
                view: View(v),
                block: BlockId(b),
                voter: ReplicaId(r),
                instance: ReplicaId(i),
            }
        }),
        (any::<u64>(), arb_digest(), any::<u32>(), any::<u32>()).prop_map(|(v, b, r, i)| {
            ConsensusMsg::Commit {
                view: View(v),
                block: BlockId(b),
                voter: ReplicaId(r),
                instance: ReplicaId(i),
            }
        }),
        (any::<u64>(), any::<u32>(), any::<u64>()).prop_map(|(v, r, q)| ConsensusMsg::NewView {
            view: View(v),
            voter: ReplicaId(r),
            high_qc_view: View(q),
        }),
    ]
}

fn arb_smp() -> impl Strategy<Value = SmpMsg> {
    prop_oneof![
        arb_microblock().prop_map(SmpMsg::Microblock),
        (arb_microblock(), any::<u8>()).prop_map(|(mb, hops)| SmpMsg::Gossip { mb, hops }),
        vec(arb_mb_id(), 0..6).prop_map(|ids| SmpMsg::Fetch { ids }),
        vec(arb_microblock(), 0..3).prop_map(|mbs| SmpMsg::FetchResp { mbs }),
    ]
}

fn arb_narwhal() -> impl Strategy<Value = NarwhalMsg> {
    prop_oneof![
        arb_microblock().prop_map(NarwhalMsg::Batch),
        (arb_mb_id(), arb_signature()).prop_map(|(id, sig)| NarwhalMsg::Echo { id, sig }),
        (arb_mb_id(), arb_signature()).prop_map(|(id, sig)| NarwhalMsg::Ready { id, sig }),
        (arb_mb_id(), any::<u32>(), any::<u32>(), arb_proof()).prop_map(
            |(id, creator, tx_count, proof)| NarwhalMsg::Certificate {
                id,
                creator: ReplicaId(creator),
                tx_count,
                proof,
            }
        ),
        vec(arb_mb_id(), 0..6).prop_map(|ids| NarwhalMsg::Fetch { ids }),
        vec(arb_microblock(), 0..3).prop_map(|mbs| NarwhalMsg::FetchResp { mbs }),
    ]
}

/// DAG blocks as they appear on the wire: an optional batch, parent
/// references, piggybacked acks, and the creator signature.  The decoder
/// re-derives the batch id, so the generator seals canonically.
fn arb_dag_block() -> impl Strategy<Value = DagBlock> {
    (
        (any::<u32>(), any::<u64>(), any::<u64>()),
        proptest::option::of(arb_microblock()),
        vec((any::<u32>(), any::<u64>()), 0..5),
        vec((arb_mb_id(), arb_signature()), 0..5),
        arb_signature(),
    )
        .prop_map(
            |((creator, round, seq), batch, parents, acks, sig)| DagBlock {
                creator: ReplicaId(creator),
                round,
                seq,
                batch,
                parents: parents
                    .into_iter()
                    .map(|(c, r)| DagParentRef {
                        creator: ReplicaId(c),
                        round: r,
                    })
                    .collect(),
                acks: acks
                    .into_iter()
                    .map(|(id, sig)| DagAck { id, sig })
                    .collect(),
                sig,
            },
        )
}

fn arb_dag() -> impl Strategy<Value = DagMsg> {
    prop_oneof![
        arb_dag_block().prop_map(DagMsg::Block),
        vec(arb_mb_id(), 0..6).prop_map(|ids| DagMsg::Fetch { ids }),
        vec(arb_microblock(), 0..3).prop_map(|mbs| DagMsg::FetchResp { mbs }),
    ]
}

fn arb_stratus() -> impl Strategy<Value = StratusMsg> {
    prop_oneof![
        arb_microblock().prop_map(StratusMsg::PabMsg),
        (arb_mb_id(), arb_signature()).prop_map(|(id, sig)| StratusMsg::PabAck { id, sig }),
        (arb_mb_id(), arb_proof()).prop_map(|(id, proof)| StratusMsg::PabProof { id, proof }),
        vec(arb_mb_id(), 0..6).prop_map(|ids| StratusMsg::PabRequest { ids }),
        vec(arb_microblock(), 0..3).prop_map(|mbs| StratusMsg::PabResponse { mbs }),
        any::<u64>().prop_map(|token| StratusMsg::LbQuery { token }),
        (any::<u64>(), proptest::option::of(any::<u64>())).prop_map(|(token, st)| {
            StratusMsg::LbInfo {
                token,
                stable_time_us: st,
            }
        }),
        arb_microblock().prop_map(StratusMsg::LbForward),
    ]
}

use stratus::StratusMsg;

fn arb_replica_msg<MM>(
    mempool: impl Strategy<Value = MM> + 'static,
) -> impl Strategy<Value = ReplicaMsg<MM>>
where
    MM: MempoolWire + 'static,
{
    (
        prop_oneof![
            2 => arb_consensus().prop_map(Either::C),
            3 => mempool.prop_map(Either::M),
        ],
        any::<bool>(),
    )
        .prop_map(|(payload, priority)| match payload {
            Either::C(c) => ReplicaMsg::consensus(c, priority),
            Either::M(m) => ReplicaMsg::mempool(m, priority),
        })
}

#[derive(Debug)]
enum Either<MM> {
    C(ConsensusMsg),
    M(MM),
}

fn assert_round_trip<MM>(msg: &ReplicaMsg<MM>)
where
    MM: MempoolWire + WireCodec + PartialEq,
{
    let frame = encode_frame(msg);
    let (back, used) = decode_frame::<MM>(&frame).expect("valid frame must decode");
    assert_eq!(used, frame.len());
    assert_eq!(back.priority, msg.priority);
    match (&back.payload, &msg.payload) {
        (ReplicaPayload::Consensus(a), ReplicaPayload::Consensus(b)) => assert_eq!(a, b),
        (ReplicaPayload::Mempool(a), ReplicaPayload::Mempool(b)) => assert!(a == b),
        (ReplicaPayload::Sync(a), ReplicaPayload::Sync(b)) => assert_eq!(a, b),
        _ => panic!("message family changed in round trip"),
    }
}

/// Crash-recovery state-transfer messages: requests and bounded chunks
/// of committed transaction ids.
fn arb_sync() -> impl Strategy<Value = SyncMsg> {
    prop_oneof![
        any::<u64>().prop_map(|from_index| SyncMsg::Request { from_index }),
        (any::<u64>(), vec(arb_digest().prop_map(TxId), 0..32)).prop_map(
            |(from_index, entries)| SyncMsg::Response {
                from_index,
                entries,
            }
        ),
    ]
}

// ---------------------------------------------------------------------
// Round-trip properties, one per wire family.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    // `NativeMsg` is uninhabited (the native protocols have no mempool
    // traffic), so the native wire carries consensus frames only.
    fn native_frames_round_trip(c in arb_consensus(), priority in any::<bool>()) {
        assert_round_trip(&ReplicaMsg::<NativeMsg>::consensus(c, priority));
    }

    #[test]
    fn smp_frames_round_trip(msg in arb_replica_msg(arb_smp())) {
        assert_round_trip(&msg);
    }

    #[test]
    fn narwhal_frames_round_trip(msg in arb_replica_msg(arb_narwhal())) {
        assert_round_trip(&msg);
    }

    #[test]
    fn stratus_frames_round_trip(msg in arb_replica_msg(arb_stratus())) {
        assert_round_trip(&msg);
    }

    #[test]
    fn dag_frames_round_trip(msg in arb_replica_msg(arb_dag())) {
        assert_round_trip(&msg);
    }

    #[test]
    fn sharded_dag_frames_round_trip(
        msg in arb_replica_msg((any::<u16>(), arb_dag())
            .prop_map(|(s, m)| ShardedMsg::new(s, m)))
    ) {
        assert_round_trip(&msg);
    }

    #[test]
    fn sharded_stratus_frames_round_trip(
        msg in arb_replica_msg((any::<u16>(), arb_stratus())
            .prop_map(|(s, m)| ShardedMsg::new(s, m)))
    ) {
        assert_round_trip(&msg);
    }

    #[test]
    fn sharded_smp_frames_round_trip(
        msg in arb_replica_msg((any::<u16>(), arb_smp())
            .prop_map(|(s, m)| ShardedMsg::new(s, m)))
    ) {
        assert_round_trip(&msg);
    }

    // The `Sync` family is mempool-agnostic: the same recovery message
    // must round-trip under every wire parameterization, and requests
    // must keep their priority-lane flag through the codec.
    #[test]
    fn sync_frames_round_trip_under_every_family(msg in arb_sync()) {
        assert_round_trip(&ReplicaMsg::<NativeMsg>::sync(msg.clone()));
        assert_round_trip(&ReplicaMsg::<SmpMsg>::sync(msg.clone()));
        assert_round_trip(&ReplicaMsg::<StratusMsg>::sync(msg.clone()));
        let frame = encode_frame(&ReplicaMsg::<StratusMsg>::sync(msg.clone()));
        let (back, _) = decode_frame::<StratusMsg>(&frame).expect("sync frame decodes");
        prop_assert_eq!(back.priority, matches!(msg, SyncMsg::Request { .. }));
    }

    // A microblock's sealed receive times are not on the wire: the decoder
    // reseals, and must arrive at the stamps of the decoded transactions.
    #[test]
    fn sealed_receive_times_survive_a_round_trip(mb in arb_microblock()) {
        let expected: Vec<u64> = mb.txs.iter().filter_map(|t| t.received_at).collect();
        prop_assert_eq!(mb.receive_times(), &expected[..]);
        let frame = encode_frame(&ReplicaMsg::mempool(StratusMsg::PabMsg(mb), false));
        let (back, _) = decode_frame::<StratusMsg>(&frame).expect("valid frame must decode");
        match back.payload {
            ReplicaPayload::Mempool(StratusMsg::PabMsg(back)) => {
                prop_assert_eq!(back.receive_times(), &expected[..]);
            }
            other => panic!("decoded {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// Adversarial decode: malformed input errors, never panics.
// ---------------------------------------------------------------------

proptest! {
    // Arbitrary bytes never panic the decoder.
    #[test]
    fn garbage_never_panics(input in vec(any::<u8>(), 0..512)) {
        let _ = decode_frame::<StratusMsg>(&input);
        let _ = decode_frame::<ShardedMsg<StratusMsg>>(&input);
        let _ = decode_frame::<DagMsg>(&input);
        let _ = decode_frame::<ShardedMsg<DagMsg>>(&input);
    }

    // Any strict prefix of a valid DAG frame is `Truncated`, sharded or
    // not — hostile parent/ack length prefixes cannot over-read.
    #[test]
    fn truncated_dag_frames_are_rejected(
        msg in arb_replica_msg(arb_dag()),
        frac in 0.0f64..1.0,
    ) {
        let frame = encode_frame(&msg);
        let cut = ((frame.len() as f64) * frac) as usize;
        prop_assume!(cut < frame.len());
        prop_assert!(matches!(
            decode_frame::<DagMsg>(&frame[..cut]),
            Err(DecodeError::Truncated { .. })
        ));
        let sharded = encode_frame(&ReplicaMsg::mempool(
            ShardedMsg::new(3, match msg.payload {
                ReplicaPayload::Mempool(ref m) => m.clone(),
                _ => DagMsg::Fetch { ids: vec![] },
            }),
            msg.priority,
        ));
        let cut = ((sharded.len() as f64) * frac) as usize;
        prop_assume!(cut < sharded.len());
        prop_assert!(matches!(
            decode_frame::<ShardedMsg<DagMsg>>(&sharded[..cut]),
            Err(DecodeError::Truncated { .. })
        ));
    }

    // Flipping any single byte of a DAG frame either still decodes or
    // errors; it never panics.
    #[test]
    fn corrupted_dag_frames_never_panic(
        msg in arb_replica_msg(arb_dag()),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut frame = encode_frame(&msg);
        let pos = ((frame.len() as f64) * pos_frac) as usize % frame.len();
        frame[pos] ^= flip;
        let _ = decode_frame::<DagMsg>(&frame);
    }

    // A batch-presence byte other than 0/1 is a `BadTag`, not a panic or
    // a silent skip.
    #[test]
    fn bad_dag_batch_presence_tags_are_rejected(
        block in arb_dag_block(),
        bad in 2u8..=255,
    ) {
        let mut block = block;
        block.batch = None;
        let frame = encode_frame(&ReplicaMsg::mempool(DagMsg::Block(block), false));
        // Body layout: family tag, variant tag, creator u32, round u64,
        // seq u64, then the batch-presence byte.
        let pos = FRAME_HEADER_BYTES + 1 + 1 + 4 + 8 + 8;
        let mut frame = frame;
        frame[pos] = bad;
        prop_assert!(matches!(
            decode_frame::<DagMsg>(&frame),
            Err(DecodeError::BadTag { context: "DagBlock.batch", .. })
        ));
    }

    // Corrupting any byte of a sync frame either still decodes or
    // errors — recovery traffic from a byzantine peer never panics the
    // decoder, and truncated chunks are rejected as such.
    #[test]
    fn corrupted_sync_frames_never_panic(
        msg in arb_sync(),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut frame = encode_frame(&ReplicaMsg::<StratusMsg>::sync(msg));
        let pos = ((frame.len() as f64) * pos_frac) as usize % frame.len();
        frame[pos] ^= flip;
        let _ = decode_frame::<StratusMsg>(&frame);
    }

    #[test]
    fn truncated_sync_frames_are_rejected(
        msg in arb_sync(),
        frac in 0.0f64..1.0,
    ) {
        let frame = encode_frame(&ReplicaMsg::<StratusMsg>::sync(msg));
        let cut = ((frame.len() as f64) * frac) as usize;
        prop_assume!(cut < frame.len());
        prop_assert!(matches!(
            decode_frame::<StratusMsg>(&frame[..cut]),
            Err(DecodeError::Truncated { .. })
        ));
    }

    // Any strict prefix of a valid frame is `Truncated` — never a panic,
    // never a bogus success.
    #[test]
    fn truncated_frames_are_rejected(
        msg in arb_replica_msg(arb_stratus()),
        frac in 0.0f64..1.0,
    ) {
        let frame = encode_frame(&msg);
        let cut = ((frame.len() as f64) * frac) as usize;
        prop_assume!(cut < frame.len());
        prop_assert!(matches!(
            decode_frame::<StratusMsg>(&frame[..cut]),
            Err(DecodeError::Truncated { .. })
        ));
    }

    // A length prefix beyond `MAX_FRAME_BYTES` is rejected before any
    // allocation or body read.
    #[test]
    fn oversized_length_prefixes_are_rejected(
        msg in arb_replica_msg(arb_stratus()),
        extra in 1u64..=(u32::MAX as u64 - MAX_FRAME_BYTES as u64),
    ) {
        let mut frame = encode_frame(&msg);
        let len = (MAX_FRAME_BYTES as u64 + extra) as u32;
        frame[6..10].copy_from_slice(&len.to_be_bytes());
        prop_assert!(matches!(
            decode_frame::<StratusMsg>(&frame),
            Err(DecodeError::OversizedFrame(_))
        ));
    }

    // A modelled transaction length beyond a frame is rejected wherever
    // the transaction rides (a forwarded or broadcast microblock, an inline
    // proposal): sizes are summed and multiplied downstream, so a hostile
    // `u64::MAX` must never reach them.
    #[test]
    fn oversized_modelled_payload_lengths_are_rejected(
        mb in arb_microblock(),
        pick in any::<u32>(),
        extra in 1u64..=(u64::MAX - MAX_FRAME_BYTES as u64),
    ) {
        prop_assume!(!mb.is_empty());
        let mut txs = (*mb.txs).clone();
        let hostile = pick as usize % txs.len();
        txs[hostile].payload_len = (MAX_FRAME_BYTES as u64 + extra) as usize;
        let mb = Microblock::seal(mb.creator, txs.clone(), mb.created_at);
        let proposal = Proposal::new(
            View(1), 1, BlockId::GENESIS, ReplicaId(0), Payload::inline(txs), false,
        );
        for frame in [
            encode_frame(&ReplicaMsg::mempool(StratusMsg::LbForward(mb.clone()), false)),
            encode_frame(&ReplicaMsg::mempool(StratusMsg::PabMsg(mb), false)),
            encode_frame(&ReplicaMsg::<StratusMsg>::consensus(ConsensusMsg::Propose(proposal), false)),
        ] {
            prop_assert!(matches!(
                decode_frame::<StratusMsg>(&frame),
                Err(DecodeError::OversizedFrame(_))
            ));
        }
    }

    // Every version byte other than the current one is rejected.
    #[test]
    fn wrong_version_bytes_are_rejected(
        msg in arb_replica_msg(arb_stratus()),
        version in any::<u8>(),
    ) {
        prop_assume!(version != CODEC_VERSION);
        let mut frame = encode_frame(&msg);
        frame[4] = version;
        let err = decode_frame::<StratusMsg>(&frame).err();
        prop_assert_eq!(err, Some(DecodeError::BadVersion(version)));
    }

    // Flipping any single byte of a valid frame either still decodes
    // (the flip hit a don't-care bit of the payload) or errors — the
    // decoder never panics on corruption.
    #[test]
    fn single_byte_corruption_never_panics(
        msg in arb_replica_msg(arb_stratus()),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut frame = encode_frame(&msg);
        let pos = ((frame.len() as f64) * pos_frac) as usize % frame.len();
        frame[pos] ^= flip;
        let _ = decode_frame::<StratusMsg>(&frame);
    }

    // Appending trailing garbage to the body (with the length prefix
    // widened to match) is rejected as `TrailingBytes` or a tag error —
    // the decoder requires the body to be exactly consumed.
    #[test]
    fn padded_bodies_are_rejected(
        msg in arb_replica_msg(arb_stratus()),
        pad in vec(any::<u8>(), 1..16),
    ) {
        let mut frame = encode_frame(&msg);
        frame.extend_from_slice(&pad);
        let len = (frame.len() - FRAME_HEADER_BYTES) as u32;
        frame[6..10].copy_from_slice(&len.to_be_bytes());
        prop_assert!(decode_frame::<StratusMsg>(&frame).is_err());
    }
}
