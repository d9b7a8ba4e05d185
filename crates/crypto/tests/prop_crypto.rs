//! Property-based tests for the crypto substrate.

use proptest::prelude::*;
use smp_crypto::{Digest, KeyPair, ProofError, PublicKey, QuorumProof, Signature};
use std::collections::BTreeSet;

/// `QuorumProof::verify` as it was before the sorted-by-signer invariant
/// let it drop its `BTreeSet`: the reference the current one is held to.
fn reference_verify(
    proof: &QuorumProof,
    public_keys: &[PublicKey],
    quorum: usize,
) -> Result<(), ProofError> {
    if proof.len() < quorum {
        return Err(ProofError::QuorumNotReached {
            have: proof.len(),
            need: quorum,
        });
    }
    let mut seen = BTreeSet::new();
    for sig in proof.signatures() {
        if !seen.insert(sig.signer) {
            return Err(ProofError::DuplicateSigner(sig.signer));
        }
        let pk = public_keys
            .get(sig.signer as usize)
            .ok_or(ProofError::UnknownSigner(sig.signer))?;
        if !sig.verify(pk, &proof.digest) {
            return Err(ProofError::BadSignature(sig.signer));
        }
    }
    Ok(())
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

    // Arbitrary signature multisets get the verdict the `BTreeSet`
    // implementation gave.  `from_signatures` drops repeated signers, so
    // this covers the quorum, unknown-signer and bad-tag verdicts; the
    // repeated-signer one is not constructible from outside the crate and
    // is a unit test in `proof.rs`.
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
        let sigs = picks.iter().map(|&(signer, good)| {
            let mut sig = Signature::sign(&kps[signer as usize].secret, &d);
            sig.tag ^= u64::from(!good);
            sig
        });
        let proof = QuorumProof::from_signatures(d, sigs);
        prop_assert!(proof.signatures().windows(2).all(|w| w[0].signer < w[1].signer));
        prop_assert_eq!(proof.verify(&pks, quorum), reference_verify(&proof, &pks, quorum));
    }

    // Clones share one signature list until one of them is added to; the
    // `add` copies, and the other clone keeps what it had.
    #[test]
    fn clone_then_add_leaves_the_clone_untouched(
        seed in any::<u64>(),
        n in 1u32..12,
        msg in any::<u64>(),
    ) {
        let kps = KeyPair::derive_all(seed, 13);
        let d = Digest::of_u64(msg);
        let sign = |i: u32| Signature::sign(&kps[i as usize].secret, &d);
        let mut proof = QuorumProof::from_signatures(d, (0..n).map(sign));
        let clone = proof.clone();
        prop_assert_eq!(&clone, &proof);
        prop_assert!(std::ptr::eq(clone.signatures(), proof.signatures()), "shared storage");
        // A signer already present: nothing to write, nothing copied.
        prop_assert!(!proof.add(sign(0)));
        prop_assert!(std::ptr::eq(clone.signatures(), proof.signatures()));
        prop_assert!(proof.add(sign(12)));
        prop_assert!(!std::ptr::eq(clone.signatures(), proof.signatures()));
        prop_assert_eq!(clone.len(), n as usize);
        prop_assert_eq!(clone.signers(), (0..n).collect::<Vec<_>>());
        prop_assert_eq!(proof.len(), n as usize + 1);
        prop_assert_ne!(&clone, &proof);
    }

    #[test]
    fn quorum_proof_wire_size_is_linear(seed in any::<u64>(), n in 1usize..12, msg in any::<u64>()) {
        let kps = KeyPair::derive_all(seed, n);
        let d = Digest::of_u64(msg);
        let proof = QuorumProof::from_signatures(
            d,
            kps.iter().map(|k| Signature::sign(&k.secret, &d)),
        );
        prop_assert_eq!(proof.wire_size(), 32 + 64 * n);
    }
}
