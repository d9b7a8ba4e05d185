//! Property-based tests for core data types.

use proptest::prelude::*;
use smp_types::{
    ids::{ClientId, MicroblockId, ReplicaId, TxId, TxIdPrefix, View},
    Microblock, Payload, Proposal, SystemConfig, Transaction, WireSize, TX_OVERHEAD_BYTES,
};

fn arb_txs(max: usize) -> impl Strategy<Value = Vec<Transaction>> {
    proptest::collection::vec((any::<u32>(), any::<u64>(), 1usize..512), 0..max).prop_map(|v| {
        v.into_iter()
            .map(|(c, s, len)| Transaction::synthetic(ClientId(c), s, len, 0))
            .collect()
    })
}

proptest! {
    #[test]
    fn transaction_wire_size_is_payload_plus_overhead(c in any::<u32>(), s in any::<u64>(), len in 0usize..4096) {
        let tx = Transaction::synthetic(ClientId(c), s, len, 0);
        prop_assert_eq!(tx.wire_size(), TX_OVERHEAD_BYTES + len);
    }

    #[test]
    fn microblock_ids_are_content_addressed(txs in arb_txs(32), creator in 0u32..64) {
        let a = Microblock::seal(ReplicaId(creator), txs.clone(), 0);
        let b = Microblock::seal(ReplicaId(creator), txs.clone(), 999);
        prop_assert_eq!(a.id, b.id);
        let ids: Vec<TxId> = txs.iter().map(|t| t.id).collect();
        prop_assert_eq!(a.id, MicroblockId::derive(ReplicaId(creator), &ids));
    }

    #[test]
    fn id_prefix_derives_the_reference_ids(c in any::<u32>(), seqs in proptest::collection::vec(any::<u64>(), 1..16)) {
        let prefix = TxIdPrefix::new(ClientId(c));
        for s in seqs {
            prop_assert_eq!(prefix.derive(s), TxId::derive(ClientId(c), s));
        }
    }

    #[test]
    fn sealed_receive_times_are_the_stamps_in_order(
        txs in arb_txs(32),
        stamps in proptest::collection::vec(proptest::option::of(any::<u64>()), 32..33),
    ) {
        let txs: Vec<Transaction> = txs
            .into_iter()
            .zip(stamps)
            .map(|(mut t, stamp)| {
                if let Some(at) = stamp {
                    t.mark_received(ReplicaId(1), at);
                }
                t
            })
            .collect();
        let mb = Microblock::seal(ReplicaId(0), txs.clone(), 0);
        let expected: Vec<u64> = txs.iter().filter_map(|t| t.received_at).collect();
        prop_assert_eq!(mb.receive_times(), &expected[..]);
    }

    #[test]
    fn microblock_wire_size_bounds(txs in arb_txs(64), creator in 0u32..8) {
        let mb = Microblock::seal(ReplicaId(creator), txs, 0);
        prop_assert!(mb.wire_size() >= mb.payload_bytes());
        prop_assert!(mb.wire_size() <= mb.payload_bytes() + 48 + mb.len() * TX_OVERHEAD_BYTES);
    }

    #[test]
    fn proposal_ids_are_unique_across_views(view_a in 0u64..10_000, view_b in 0u64..10_000, txs in arb_txs(8)) {
        prop_assume!(view_a != view_b);
        let pa = Proposal::new(View(view_a), 1, smp_types::BlockId::GENESIS, ReplicaId(0), Payload::inline(txs.clone()), true);
        let pb = Proposal::new(View(view_b), 1, smp_types::BlockId::GENESIS, ReplicaId(0), Payload::inline(txs), true);
        prop_assert_ne!(pa.id, pb.id);
    }

    #[test]
    fn leader_rotation_is_within_bounds(view in any::<u64>(), n in 4usize..500) {
        let leader = View(view).leader(n);
        prop_assert!(leader.index() < n);
    }

    #[test]
    fn system_config_is_always_valid(n in 4usize..500) {
        let c = SystemConfig::new(n);
        prop_assert!(c.n > 3 * c.f);
        // f is maximal: adding one more fault would violate the bound.
        prop_assert!(c.n <= 3 * (c.f + 1));
    }
}
