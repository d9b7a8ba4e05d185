//! Property-based tests for the crypto substrate.

use proptest::prelude::*;
use smp_crypto::{directory, Digest, KeyPair, ProofError, PublicKey, QuorumProof, Signature};
use std::collections::{BTreeMap, BTreeSet};

/// The per-signature check a proof got when it was a list of signatures:
/// the reference the aggregate `QuorumProof::verify` is held to.  `sigs`
/// is what was folded into the proof, `digest` what the proof claims to
/// cover.
fn reference_verify(
    sigs: &[Signature],
    digest: &Digest,
    public_keys: &[PublicKey],
    quorum: usize,
) -> Result<(), ProofError> {
    if sigs.len() < quorum {
        return Err(ProofError::QuorumNotReached {
            have: sigs.len(),
            need: quorum,
        });
    }
    for sig in sigs {
        let pk = public_keys
            .get(sig.signer as usize)
            .ok_or(ProofError::UnknownSigner(sig.signer))?;
        if !sig.verify(pk, digest) {
            return Err(ProofError::BadSignature(sig.signer));
        }
    }
    Ok(())
}

/// The verdict the aggregate owes for the reference's: the same, except
/// that a bad signature cannot be named — it shows as a fold that does not
/// match — and that every signer's key is looked up before the fold is
/// judged, so an unknown signer is reported ahead of a bad tag.
fn owed(reference: Result<(), ProofError>, sigs: &[Signature], n: usize) -> Result<(), ProofError> {
    match reference {
        Err(ProofError::BadSignature(_)) => Err(sigs
            .iter()
            .find(|s| s.signer as usize >= n)
            .map_or(ProofError::BadAggregate, |s| {
                ProofError::UnknownSigner(s.signer)
            })),
        verdict => verdict,
    }
}

/// One signature per signer, increasing by signer: the list a proof used
/// to hold.
fn distinct(picks: &[(u32, bool)]) -> Vec<(u32, bool)> {
    let mut seen = BTreeSet::new();
    let mut kept: Vec<_> = picks.iter().copied().filter(|p| seen.insert(p.0)).collect();
    kept.sort_unstable();
    kept
}

proptest! {
    #[test]
    fn digest_is_deterministic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        prop_assert_eq!(Digest::of_bytes(&bytes), Digest::of_bytes(&bytes));
    }

    #[test]
    fn distinct_u64_inputs_do_not_collide(a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != b);
        prop_assert_ne!(Digest::of_u64(a), Digest::of_u64(b));
    }

    #[test]
    fn append_changes_digest(bytes in proptest::collection::vec(any::<u8>(), 0..256), extra in any::<u8>()) {
        let mut longer = bytes.clone();
        longer.push(extra);
        prop_assert_ne!(Digest::of_bytes(&bytes), Digest::of_bytes(&longer));
    }

    #[test]
    fn directory_holds_each_replicas_derived_public_key(seed in any::<u64>(), n in 1usize..64) {
        let keys = directory(seed, n);
        prop_assert_eq!(keys.len(), n);
        for (i, key) in keys.iter().enumerate() {
            prop_assert_eq!(*key, KeyPair::derive(seed, i as u32).public);
        }
    }

    #[test]
    fn signature_roundtrip(seed in any::<u64>(), idx in 0u32..64, msg in any::<u64>()) {
        let kp = KeyPair::derive(seed, idx);
        let d = Digest::of_u64(msg);
        let sig = Signature::sign(&kp.secret, &d);
        prop_assert!(sig.verify(&kp.public, &d));
    }

    #[test]
    fn signature_does_not_verify_under_other_key(seed in any::<u64>(), msg in any::<u64>()) {
        let a = KeyPair::derive(seed, 0);
        let b = KeyPair::derive(seed, 1);
        let d = Digest::of_u64(msg);
        let sig = Signature::sign(&a.secret, &d);
        prop_assert!(!sig.verify(&b.public, &d));
    }

    #[test]
    fn quorum_proof_verifies_iff_quorum_met(
        seed in any::<u64>(),
        n in 4usize..16,
        msg in any::<u64>(),
        subset_bits in any::<u16>(),
    ) {
        let kps = KeyPair::derive_all(seed, n);
        let pks: Vec<_> = kps.iter().map(|k| k.public).collect();
        let d = Digest::of_u64(msg);
        let signers: Vec<usize> = (0..n).filter(|i| subset_bits & (1 << i) != 0).collect();
        let proof = QuorumProof::from_signatures(
            d,
            signers.iter().map(|&i| Signature::sign(&kps[i].secret, &d)),
        );
        let f = (n - 1) / 3;
        let quorum = f + 1;
        if signers.len() >= quorum {
            prop_assert!(proof.verify(&pks, quorum).is_ok());
        } else {
            prop_assert!(proof.verify(&pks, quorum).is_err());
        }
    }

    // Arbitrary signer sets, each signature good or bad, get the verdict
    // the per-signature reference gives: the quorum, unknown-signer and
    // bad-tag cases.  A bad tag is off in the signer's own bit, so two of
    // them never cancel in the fold — the aggregate is no stronger than
    // that, which is why every signature is checked singly before it is
    // folded.
    #[test]
    fn verify_agrees_with_the_reference(
        seed in any::<u64>(),
        n in 1usize..10,
        quorum in 0usize..8,
        msg in any::<u64>(),
        picks in proptest::collection::vec((0u32..12, any::<bool>()), 0..16),
    ) {
        let kps = KeyPair::derive_all(seed, 12);
        let pks: Vec<PublicKey> = kps[..n].iter().map(|k| k.public).collect();
        let d = Digest::of_u64(msg);
        let sigs: Vec<Signature> = distinct(&picks).into_iter().map(|(signer, good)| {
            let mut sig = Signature::sign(&kps[signer as usize].secret, &d);
            sig.tag ^= u64::from(!good) << signer;
            sig
        }).collect();
        let proof = QuorumProof::from_signatures(d, sigs.iter().copied());
        prop_assert_eq!(proof.len(), sigs.len());
        prop_assert_eq!(
            proof.verify(&pks, quorum),
            owed(reference_verify(&sigs, &d, &pks, quorum), &sigs, n)
        );
    }

    // Good signatures under a proof that claims another digest, and a good
    // proof whose aggregate is one bit off: the reference refuses both (a
    // flipped aggregate is some signature's tag flipped), so does `verify`.
    #[test]
    fn wrong_digest_and_flipped_aggregate_are_refused(
        seed in any::<u64>(),
        n in 1usize..12,
        msg in any::<u64>(),
        bit in 0u32..64,
    ) {
        let kps = KeyPair::derive_all(seed, n);
        let pks: Vec<PublicKey> = kps.iter().map(|k| k.public).collect();
        let (d, other) = (Digest::of_u64(msg), Digest::of_u64(msg.wrapping_add(1)));
        let mut sigs: Vec<Signature> = kps.iter().map(|k| Signature::sign(&k.secret, &d)).collect();
        let good = QuorumProof::from_signatures(d, sigs.iter().copied());
        prop_assert_eq!(good.verify(&pks, n), Ok(()));
        prop_assert_eq!(good.verify(&pks, n), reference_verify(&sigs, &d, &pks, n));

        let relabelled = QuorumProof::from_signatures(other, sigs.iter().copied());
        prop_assert_eq!(reference_verify(&sigs, &other, &pks, n), Err(ProofError::BadSignature(0)));
        prop_assert_eq!(relabelled.verify(&pks, n), Err(ProofError::BadAggregate));

        let flipped = QuorumProof::from_parts(d, good.aggregate() ^ (1 << bit), good.bitmap()).unwrap();
        sigs[0].tag ^= 1 << bit;
        prop_assert_eq!(reference_verify(&sigs, &d, &pks, n), Err(ProofError::BadSignature(0)));
        prop_assert_eq!(flipped.verify(&pks, n), Err(ProofError::BadAggregate));
    }

    // The list was order-independent because it was sorted; the fold is
    // because it commutes.
    #[test]
    fn any_order_of_the_same_signatures_builds_an_equal_proof(
        seed in any::<u64>(),
        msg in any::<u64>(),
        picks in proptest::collection::vec((0u32..40, any::<u64>()), 0..24),
    ) {
        let kps = KeyPair::derive_all(seed, 40);
        let d = Digest::of_u64(msg);
        // Signer -> sort key: sorting by the keys is an arbitrary permutation.
        let keys: BTreeMap<u32, u64> = picks.into_iter().collect();
        let sigs: Vec<Signature> = keys
            .keys()
            .map(|&signer| Signature::sign(&kps[signer as usize].secret, &d))
            .collect();
        let mut shuffled = sigs.clone();
        shuffled.sort_by_key(|s| keys[&s.signer]);
        let (a, b) = (
            QuorumProof::from_signatures(d, sigs.iter().copied()),
            QuorumProof::from_signatures(d, shuffled.iter().copied()),
        );
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.signers(), sigs.iter().map(|s| s.signer).collect::<Vec<_>>());
        // A signer repeated anywhere in the sequence counts once.
        let repeated = QuorumProof::from_signatures(d, shuffled.iter().chain(&sigs).copied());
        prop_assert_eq!(&a, &repeated);
    }

    // Clones share one bitmap until one of them is added to; the `add`
    // copies, and the other clone keeps what it had.
    #[test]
    fn clone_then_add_leaves_the_clone_untouched(
        seed in any::<u64>(),
        n in 1u32..12,
        msg in any::<u64>(),
    ) {
        let kps = KeyPair::derive_all(seed, 13);
        let pks: Vec<PublicKey> = kps.iter().map(|k| k.public).collect();
        let d = Digest::of_u64(msg);
        let sign = |i: u32| Signature::sign(&kps[i as usize].secret, &d);
        let mut proof = QuorumProof::from_signatures(d, (0..n).map(sign));
        let clone = proof.clone();
        prop_assert_eq!(&clone, &proof);
        prop_assert!(std::ptr::eq(clone.bitmap(), proof.bitmap()), "shared storage");
        // A signer already present: refused, nothing folded twice, nothing
        // copied.
        prop_assert!(!proof.add(sign(0)));
        prop_assert_eq!(&clone, &proof);
        prop_assert!(std::ptr::eq(clone.bitmap(), proof.bitmap()));
        prop_assert!(proof.add(sign(12)));
        prop_assert!(!std::ptr::eq(clone.bitmap(), proof.bitmap()));
        prop_assert_eq!(clone.len(), n as usize);
        prop_assert_eq!(clone.signers(), (0..n).collect::<Vec<_>>());
        prop_assert_eq!(clone.verify(&pks, n as usize), Ok(()));
        prop_assert_eq!(proof.len(), n as usize + 1);
        prop_assert_eq!(proof.verify(&pks, n as usize + 1), Ok(()));
        prop_assert_ne!(&clone, &proof);
    }

    // Constant in the quorum, `⌈n / 8⌉` in the system size: the highest
    // signer sets the bitmap's length, the number of signers nothing.
    #[test]
    fn quorum_proof_wire_size_is_constant_in_q(
        seed in any::<u64>(),
        n in 1usize..200,
        q in 1usize..200,
        msg in any::<u64>(),
    ) {
        let kps = KeyPair::derive_all(seed, n);
        let d = Digest::of_u64(msg);
        // The last `q` replicas sign (all of them if `q > n`).
        let proof = QuorumProof::from_signatures(
            d,
            kps.iter().rev().take(q).map(|k| Signature::sign(&k.secret, &d)),
        );
        prop_assert_eq!(proof.len(), q.min(n));
        prop_assert_eq!(proof.wire_size(), 32 + 64 + n.div_ceil(8));
    }

    // A tag is the signer's odd key word times the digest's odd message
    // word, and multiplying by an odd word is a bijection on `u64`: the
    // signers of one digest all put different tags on it.
    #[test]
    fn distinct_signers_tag_one_digest_differently(
        seed in any::<u64>(),
        n in 2usize..129,
        msg in any::<u64>(),
    ) {
        let d = Digest::of_u64(msg);
        let tags: BTreeSet<u64> = KeyPair::derive_all(seed, n)
            .iter()
            .map(|k| Signature::sign(&k.secret, &d).tag)
            .collect();
        prop_assert_eq!(tags.len(), n);
    }

    // The same bijection in the other factor: one signer's tags over
    // distinct digests differ unless their message words collide (a chance
    // of about 2⁻⁶³ per pair).
    #[test]
    fn one_signer_tags_distinct_digests_differently(
        seed in any::<u64>(),
        signer in 0u32..128,
        msgs in proptest::collection::vec(any::<u64>(), 2..64),
    ) {
        let kp = KeyPair::derive(seed, signer);
        let digests: BTreeSet<Digest> = msgs.iter().map(|&m| Digest::of_u64(m)).collect();
        let tags: BTreeSet<u64> = digests
            .iter()
            .map(|d| Signature::sign(&kp.secret, d).tag)
            .collect();
        prop_assert_eq!(tags.len(), digests.len());
    }

    // Any signer subset of a system of up to 128 replicas: its proof
    // verifies at every quorum up to its size, and a signer bit set
    // without that signer's tag folded in is refused at every quorum.
    #[test]
    fn a_subset_verifies_and_an_untagged_signer_bit_is_refused(
        seed in any::<u64>(),
        msg in any::<u64>(),
        members in proptest::collection::vec(any::<bool>(), 1..129),
        pick in any::<u32>(),
    ) {
        let n = members.len();
        let kps = KeyPair::derive_all(seed, n);
        let pks: Vec<PublicKey> = kps.iter().map(|k| k.public).collect();
        let d = Digest::of_u64(msg);
        let (signers, outsiders): (Vec<usize>, Vec<usize>) = (0..n).partition(|&i| members[i]);
        let proof = QuorumProof::from_signatures(
            d,
            signers.iter().map(|&i| Signature::sign(&kps[i].secret, &d)),
        );
        let have = signers.len();
        for quorum in 0..=have {
            prop_assert_eq!(proof.verify(&pks, quorum), Ok(()));
        }
        prop_assert_eq!(
            proof.verify(&pks, have + 1),
            Err(ProofError::QuorumNotReached { have, need: have + 1 })
        );
        prop_assume!(!outsiders.is_empty());
        let extra = outsiders[pick as usize % outsiders.len()];
        let mut bitmap = proof.bitmap().to_vec();
        bitmap.resize(bitmap.len().max(extra / 8 + 1), 0);
        bitmap[extra / 8] |= 1 << (extra % 8);
        let widened = QuorumProof::from_parts(d, proof.aggregate(), &bitmap).unwrap();
        prop_assert_eq!(widened.len(), have + 1);
        for quorum in 0..=have + 1 {
            prop_assert_eq!(widened.verify(&pks, quorum), Err(ProofError::BadAggregate));
        }
    }
}
