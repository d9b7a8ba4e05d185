//! Simulated 64-byte signatures.
//!
//! A signature is a deterministic MAC-style tag over a digest, shaped like
//! a BLS signature so that an aggregate verifies against summed keys:
//!
//! * the **message word** `m(d)` is one domain-separated [`Hasher`] pass
//!   over the digest, forced odd — the per-message work, done once however
//!   many signers a proof names;
//! * the **key word** `k_i` is the first word of the signer's public
//!   commitment ([`PublicKey`]), forced odd;
//! * the tag is `σ_i(d) = k_i · m(d) mod 2⁶⁴` — the per-signer work, one
//!   multiply.
//!
//! The tag is linear in the key, so a fold of tags over one digest is the
//! summed key times `m(d)`: [`crate::proof::QuorumProof::verify`] sums the
//! signers' key words (q additions) and multiplies once, as BLS checks a
//! multi-signature against the signers' aggregate public key with one
//! pairing (Boneh–Drijvers–Neven, ASIACRYPT 2018).
//!
//! The scheme is *not* unforgeable — the key word is read off the public
//! key, and the threat model of the reproduction injects Byzantine
//! behaviour directly into the protocol state machines instead of relying
//! on forged messages — but it keeps the two properties the evaluation
//! depends on.  Multiplying by an odd word is a bijection on `u64`, so:
//!
//! * two signers with different key words put different tags on one
//!   digest;
//! * one signer's tags over two digests differ unless the digests' message
//!   words collide (a chance of about 2⁻⁶³ per pair).
//!
//! Each signature occupies [`crate::proof::SIGNATURE_BYTES`] bytes on the
//! wire.

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
        // The commitment word derived from the secret key is exactly what
        // verifiers read off the public key (`PublicKey::mac_key`).
        let key_word = Digest::of_u64(secret.key).0[0] | 1;
        Signature {
            signer: secret.owner,
            tag: Self::tag_for(key_word, digest),
        }
    }

    /// Verifies this signature against `public` and `digest`.
    pub fn verify(&self, public: &PublicKey, digest: &Digest) -> bool {
        public.owner == self.signer && Self::tag_for(Self::key_word(public), digest) == self.tag
    }

    /// Wire size of one signature (matches an ECDSA signature).
    pub const fn wire_size(&self) -> usize {
        SIGNATURE_BYTES
    }

    /// The key word `k_i` of `public`'s owner: odd, so that multiplying by
    /// it loses nothing.  Key words add up to an aggregate key.
    pub(crate) fn key_word(public: &PublicKey) -> u64 {
        public.mac_key() | 1
    }

    /// The tag `key_word · m(digest)`.  Linear in the key: under the sum of
    /// several signers' key words it is the sum of their tags.
    pub(crate) fn tag_for(key_word: u64, digest: &Digest) -> u64 {
        let mut h = Hasher::with_domain(0x5349_474e); // "SIGN"
        h.update_digest(digest);
        let message_word = h.finalize().0[0] | 1;
        key_word.wrapping_mul(message_word)
    }
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
}
