//! Simulated 64-byte signatures.
//!
//! A signature is a deterministic MAC-style tag over a digest computed with
//! the signer's secret key.  Verification recomputes the tag from the
//! signer's key material.  The scheme is *not* unforgeable — the threat
//! model of the reproduction injects Byzantine behaviour directly into the
//! protocol state machines instead of relying on forged messages — but it
//! preserves the two properties the evaluation depends on: signatures from
//! different replicas (or over different messages) differ, and each
//! signature occupies [`crate::proof::SIGNATURE_BYTES`] bytes on the wire.

use crate::hash::{Digest, Hasher};
use crate::keys::{PublicKey, SecretKey};
use crate::proof::SIGNATURE_BYTES;
use serde::{Deserialize, Serialize};

/// A signature over a [`Digest`] by a single replica.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Signature {
    /// Index of the signing replica.
    pub signer: u32,
    /// The MAC tag.
    pub tag: u64,
}

impl Signature {
    /// Signs `digest` with `secret`.
    pub fn sign(secret: &SecretKey, digest: &Digest) -> Self {
        // The MAC is keyed by the commitment word derived from the secret
        // key, which is exactly what verifiers can recompute from the
        // public key (see `key_from_commitment`).
        let key_material = Digest::of_u64(secret.key).0[0];
        Signature {
            signer: secret.owner,
            tag: Self::tag_for(secret.owner, key_material, digest),
        }
    }

    /// Verifies this signature against `public` and `digest`.
    ///
    /// The verifier re-derives the signer's MAC key from the deterministic
    /// key-derivation used by [`crate::keys::KeyPair::derive`]; the public
    /// key only pins the signer identity and commitment.
    pub fn verify(&self, public: &PublicKey, digest: &Digest) -> bool {
        public.owner == self.signer && Self::expected_tag(public, digest) == self.tag
    }

    /// The tag `public`'s owner puts on `digest`, recomputed from the key
    /// reconstructed from the owner's commitment: since commitments are
    /// digests of the MAC key, equal commitments imply equal keys for
    /// honest key generation.  What [`Signature::verify`] compares with
    /// and what an aggregate proof folds.
    pub(crate) fn expected_tag(public: &PublicKey, digest: &Digest) -> u64 {
        Self::tag_for(public.owner, Self::key_from_commitment(public), digest)
    }

    /// Wire size of one signature (matches an ECDSA signature).
    pub const fn wire_size(&self) -> usize {
        SIGNATURE_BYTES
    }

    fn key_from_commitment(public: &PublicKey) -> u64 {
        // For the simulated scheme the verification key *is* derivable from
        // the commitment word (the commitment is a digest of the MAC key and
        // the MAC itself folds the commitment back in), so honest and
        // simulated-Byzantine replicas verify consistently.
        public.mac_key()
    }

    fn tag_for(signer: u32, key_material: u64, digest: &Digest) -> u64 {
        let mut h = Hasher::with_domain(0x5349_474e); // "SIGN"
        h.update_u64(signer as u64);
        h.update_u64(key_material);
        h.update_digest(digest);
        h.finalize().0[0]
    }
}

/// Signs a digest and immediately checks the result against the matching
/// public key; useful in tests and assertions.
pub fn sign_and_check(secret: &SecretKey, public: &PublicKey, digest: &Digest) -> Signature {
    let sig = Signature::sign(secret, digest);
    debug_assert!(sig.verify(public, digest));
    sig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyPair;

    fn keys(n: usize) -> Vec<KeyPair> {
        KeyPair::derive_all(0xdead_beef, n)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = &keys(4)[2];
        let d = Digest::of_u64(123);
        let sig = Signature::sign(&kp.secret, &d);
        assert!(sig.verify(&kp.public, &d));
    }

    #[test]
    fn verification_fails_for_wrong_digest() {
        let kp = &keys(4)[1];
        let sig = Signature::sign(&kp.secret, &Digest::of_u64(1));
        assert!(!sig.verify(&kp.public, &Digest::of_u64(2)));
    }

    #[test]
    fn verification_fails_for_wrong_signer() {
        let ks = keys(4);
        let d = Digest::of_u64(5);
        let sig = Signature::sign(&ks[0].secret, &d);
        assert!(!sig.verify(&ks[1].public, &d));
    }

    #[test]
    fn signatures_differ_across_signers() {
        let ks = keys(4);
        let d = Digest::of_u64(5);
        assert_ne!(
            Signature::sign(&ks[0].secret, &d).tag,
            Signature::sign(&ks[1].secret, &d).tag
        );
    }

    #[test]
    fn wire_size_is_ecdsa_sized() {
        let kp = &keys(1)[0];
        let sig = Signature::sign(&kp.secret, &Digest::of_u64(1));
        assert_eq!(sig.wire_size(), 64);
    }

    #[test]
    fn sign_and_check_helper() {
        let kp = &keys(1)[0];
        let d = Digest::of_u64(77);
        let sig = sign_and_check(&kp.secret, &kp.public, &d);
        assert_eq!(sig.signer, 0);
    }
}
