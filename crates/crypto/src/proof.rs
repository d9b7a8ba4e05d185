//! Aggregated quorum proofs (availability proofs, quorum certificates).
//!
//! The paper implements availability proofs by concatenating `q` ECDSA
//! signatures (Section VI, footnote 4) where `q` is adjustable between
//! `f+1` and `2f+1`.  [`QuorumProof`] models exactly that: a set of
//! [`Signature`]s from distinct signers over the same digest, with a wire
//! size of `q * 64` bytes plus the digest.
//!
//! A proof is **held once and verified once**.  Its signatures sit behind
//! one reference count, so the copies a replica makes of a certificate —
//! one per broadcast recipient, per proposal reference, per chain entry —
//! share one allocation; only [`QuorumProof::add`] on a shared proof
//! copies.  A holder of verified proofs (Stratus's `PabEngine`) may accept
//! a proof that is *equal* to the one it already holds for the same id
//! without running [`QuorumProof::verify`] again; equality with a held
//! certificate is the only shortcut, and everything else takes the full
//! check.

use crate::hash::Digest;
use crate::keys::PublicKey;
use crate::signature::Signature;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Wire size of a single signature in bytes (ECDSA-sized, per the paper).
pub const SIGNATURE_BYTES: usize = 64;

/// Errors returned by [`QuorumProof::verify`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProofError {
    /// The proof carries fewer signatures than the required quorum.
    QuorumNotReached {
        /// Signatures present.
        have: usize,
        /// Signatures required.
        need: usize,
    },
    /// The same replica appears more than once among the signers.
    DuplicateSigner(u32),
    /// A signer index is outside the replica set.
    UnknownSigner(u32),
    /// A signature failed to verify against the claimed digest.
    BadSignature(u32),
}

impl std::fmt::Display for ProofError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProofError::QuorumNotReached { have, need } => {
                write!(f, "quorum not reached: {have} signatures, need {need}")
            }
            ProofError::DuplicateSigner(s) => write!(f, "duplicate signer {s}"),
            ProofError::UnknownSigner(s) => write!(f, "unknown signer {s}"),
            ProofError::BadSignature(s) => write!(f, "bad signature from {s}"),
        }
    }
}

impl std::error::Error for ProofError {}

/// An aggregation of signatures from distinct replicas over one digest.
///
/// Used both as the PAB availability proof (quorum `q ∈ [f+1, 2f+1]`) and
/// as consensus quorum certificates (quorum `2f+1`).
///
/// Cloning bumps a reference count.  `==` compares the digest, then the
/// signatures: at once for two clones of one proof (`Arc`'s equality is
/// pointer-first for `Eq` contents), signature by signature otherwise.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct QuorumProof {
    /// Digest the signatures cover.
    pub digest: Digest,
    /// The aggregated signatures.  Private so that "strictly increasing by
    /// signer" holds for every proof: [`QuorumProof::add`] is the only
    /// writer.
    signatures: Arc<Vec<Signature>>,
}

impl QuorumProof {
    /// Creates an empty proof for `digest`.
    pub fn new(digest: Digest) -> Self {
        QuorumProof {
            digest,
            signatures: Arc::default(),
        }
    }

    /// Builds a proof directly from a set of signatures (deduplicating by
    /// signer and sorting for determinism).
    pub fn from_signatures(digest: Digest, sigs: impl IntoIterator<Item = Signature>) -> Self {
        let mut proof = QuorumProof::new(digest);
        for s in sigs {
            proof.add(s);
        }
        proof
    }

    /// Adds a signature if the signer is not already present.  A proof
    /// that shares its signatures with clones takes its own copy first, so
    /// the clones never change.
    ///
    /// Returns `true` if the signature was added.
    pub fn add(&mut self, sig: Signature) -> bool {
        let pos = self.signatures.partition_point(|s| s.signer < sig.signer);
        if self
            .signatures
            .get(pos)
            .is_some_and(|s| s.signer == sig.signer)
        {
            return false;
        }
        Arc::make_mut(&mut self.signatures).insert(pos, sig);
        true
    }

    /// The signatures, strictly increasing by signer.
    pub fn signatures(&self) -> &[Signature] {
        &self.signatures
    }

    /// Number of distinct signers.
    pub fn len(&self) -> usize {
        self.signatures.len()
    }

    /// Whether the proof has no signatures yet.
    pub fn is_empty(&self) -> bool {
        self.signatures.is_empty()
    }

    /// The set of signer indices.
    pub fn signers(&self) -> Vec<u32> {
        self.signatures.iter().map(|s| s.signer).collect()
    }

    /// Returns `true` once at least `quorum` distinct signatures are held.
    pub fn has_quorum(&self, quorum: usize) -> bool {
        self.signatures.len() >= quorum
    }

    /// Verifies the proof: at least `quorum` distinct, valid signatures
    /// from known replicas over `self.digest`.
    pub fn verify(&self, public_keys: &[PublicKey], quorum: usize) -> Result<(), ProofError> {
        if self.signatures.len() < quorum {
            return Err(ProofError::QuorumNotReached {
                have: self.signatures.len(),
                need: quorum,
            });
        }
        let mut previous = None;
        for sig in self.signatures() {
            // Sorted by signer, so a repeated signer is a neighbour.
            if previous.is_some_and(|p: u32| p >= sig.signer) {
                return Err(ProofError::DuplicateSigner(sig.signer));
            }
            previous = Some(sig.signer);
            let pk = public_keys
                .get(sig.signer as usize)
                .ok_or(ProofError::UnknownSigner(sig.signer))?;
            if !sig.verify(pk, &self.digest) {
                return Err(ProofError::BadSignature(sig.signer));
            }
        }
        Ok(())
    }

    /// Wire size: the digest plus one ECDSA-sized signature per signer.
    pub fn wire_size(&self) -> usize {
        self.digest.wire_size() + self.signatures.len() * SIGNATURE_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyPair;

    fn setup(n: usize) -> (Vec<KeyPair>, Vec<PublicKey>) {
        let kps = KeyPair::derive_all(42, n);
        let pks = kps.iter().map(|k| k.public).collect();
        (kps, pks)
    }

    fn proof_from(kps: &[KeyPair], digest: Digest, signers: &[usize]) -> QuorumProof {
        QuorumProof::from_signatures(
            digest,
            signers
                .iter()
                .map(|&i| Signature::sign(&kps[i].secret, &digest)),
        )
    }

    #[test]
    fn valid_quorum_verifies() {
        let (kps, pks) = setup(4);
        let d = Digest::of_u64(9);
        let proof = proof_from(&kps, d, &[0, 1, 2]);
        assert!(proof.verify(&pks, 2).is_ok());
        assert!(proof.verify(&pks, 3).is_ok());
    }

    #[test]
    fn quorum_not_reached_is_rejected() {
        let (kps, pks) = setup(4);
        let d = Digest::of_u64(9);
        let proof = proof_from(&kps, d, &[0]);
        assert_eq!(
            proof.verify(&pks, 2),
            Err(ProofError::QuorumNotReached { have: 1, need: 2 })
        );
    }

    #[test]
    fn duplicate_signers_are_not_added() {
        let (kps, _) = setup(4);
        let d = Digest::of_u64(9);
        let mut proof = QuorumProof::new(d);
        let sig = Signature::sign(&kps[1].secret, &d);
        assert!(proof.add(sig));
        assert!(!proof.add(sig));
        assert_eq!(proof.len(), 1);
    }

    #[test]
    fn repeated_or_unsorted_signers_are_rejected() {
        // Not constructible through `add`: written into the field, as a
        // bug in this file would.
        let (kps, pks) = setup(4);
        let d = Digest::of_u64(9);
        let sign = |i: usize| Signature::sign(&kps[i].secret, &d);
        for (signers, repeated) in [([1, 1, 2], 1), ([0, 2, 1], 1), ([2, 0, 2], 0)] {
            let proof = QuorumProof {
                digest: d,
                signatures: Arc::new(signers.map(sign).to_vec()),
            };
            assert_eq!(
                proof.verify(&pks, 2),
                Err(ProofError::DuplicateSigner(repeated))
            );
        }
    }

    #[test]
    fn bad_signature_is_detected() {
        let (kps, pks) = setup(4);
        let d = Digest::of_u64(9);
        let other = Digest::of_u64(10);
        let mut proof = QuorumProof::new(d);
        proof.add(Signature::sign(&kps[0].secret, &d));
        // Signature over a different digest smuggled into the proof.
        proof.add(Signature::sign(&kps[1].secret, &other));
        assert_eq!(proof.verify(&pks, 2), Err(ProofError::BadSignature(1)));
    }

    #[test]
    fn unknown_signer_is_detected() {
        let (kps, pks) = setup(2);
        let extra = KeyPair::derive(42, 7);
        let d = Digest::of_u64(9);
        let mut proof = QuorumProof::new(d);
        proof.add(Signature::sign(&kps[0].secret, &d));
        proof.add(Signature::sign(&extra.secret, &d));
        assert_eq!(proof.verify(&pks, 2), Err(ProofError::UnknownSigner(7)));
    }

    #[test]
    fn wire_size_scales_with_signers() {
        let (kps, _) = setup(4);
        let d = Digest::of_u64(9);
        let p2 = proof_from(&kps, d, &[0, 1]);
        let p3 = proof_from(&kps, d, &[0, 1, 2]);
        assert_eq!(p2.wire_size(), 32 + 2 * 64);
        assert_eq!(p3.wire_size(), 32 + 3 * 64);
    }

    #[test]
    fn signers_are_sorted_and_deterministic() {
        let (kps, _) = setup(5);
        let d = Digest::of_u64(3);
        let proof = proof_from(&kps, d, &[4, 1, 3]);
        assert_eq!(proof.signers(), vec![1, 3, 4]);
    }
}
