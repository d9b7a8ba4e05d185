//! Aggregated quorum proofs (availability proofs, batch certificates).
//!
//! A [`QuorumProof`] is a digest, a bitmap of the replicas that signed it
//! and **one** aggregate tag folded from their signatures — the shape of a
//! BLS multi-signature.  It costs the digest, one signature and `⌈n / 8⌉`
//! bitmap bytes on the wire at any quorum: the convention `QC_BYTES`
//! already applies to a consensus certificate, plus the bitmap that says
//! who to fetch from.
//!
//! This is a **stated deviation** from the paper, whose prototype
//! concatenates `q` ECDSA signatures (Section VI, footnote 4; `q` between
//! `f + 1` and `2f + 1`).  There a saturated microblock holds thousands of
//! transactions and `q · 64` bytes of proof vanish beside it.  Here, at
//! n = 100 and 20 000 tx/s, a microblock holds 40 transactions (6.7 KB),
//! a concatenated proof is 2 208 B on a 40 B reference, and proposals plus
//! proofs were half of all bytes: the bottleneck Stratus takes off the
//! leader moved back into the proposal.  A constant-size certificate
//! decouples the reference from `n`, which is the paper's premise.
//!
//! A proof is **held once**: its bitmap sits behind a reference count, so
//! the copies a replica makes of a certificate — one per broadcast
//! recipient, per proposal reference, per chain entry — are 48 bytes and no
//! allocation each; only [`QuorumProof::add`] on a shared proof copies.
//! (Measured on the benchmark's S-HS n = 100 workload: 85 MiB peak RSS
//! against 95 MiB with a `Vec` per clone.)
//!
//! Every signature is verified singly where it arrives (an ack, an echo, a
//! ready) *before* it is folded; [`QuorumProof::verify`] then sums the
//! signers' key words into an aggregate key, multiplies it once by the
//! digest's message word and holds the product to the aggregate — one
//! message hash and `q` additions, as a BLS multi-signature is checked
//! against its signers' aggregate public key with one pairing (see
//! [`crate::signature`]).  The one holder of verified proofs,
//! `smp_mempool::CertificateBook` (under Stratus, Narwhal and the
//! certified DAG alike), accepts a proof that is *equal* to the one it
//! already holds for the same id without running `verify` again; equality
//! with a held certificate is the only shortcut, and everything else takes
//! the full check.

use crate::hash::Digest;
use crate::keys::PublicKey;
use crate::signature::Signature;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Wire size of a single signature in bytes (ECDSA-sized, per the paper).
pub const SIGNATURE_BYTES: usize = 64;

/// Errors returned by [`QuorumProof::verify`] and by the holders of proofs
/// that check a single signature or a digest in front of it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProofError {
    /// The proof carries fewer signers than the required quorum.
    QuorumNotReached {
        /// Signers present.
        have: usize,
        /// Signers required.
        need: usize,
    },
    /// A signer index is outside the replica set.
    UnknownSigner(u32),
    /// A single signature failed to verify against the claimed digest.
    BadSignature(u32),
    /// The aggregate is not the fold of the named signers' tags over the
    /// proof's digest.
    BadAggregate,
    /// The proof covers another digest than the id it was presented for.
    WrongDigest,
}

impl std::fmt::Display for ProofError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProofError::QuorumNotReached { have, need } => {
                write!(f, "quorum not reached: {have} signers, need {need}")
            }
            ProofError::UnknownSigner(s) => write!(f, "unknown signer {s}"),
            ProofError::BadSignature(s) => write!(f, "bad signature from {s}"),
            ProofError::BadAggregate => write!(f, "aggregate does not match its signers"),
            ProofError::WrongDigest => write!(f, "proof covers another digest"),
        }
    }
}

impl std::error::Error for ProofError {}

/// Signatures of distinct replicas over one digest, aggregated: who
/// signed, and the fold of their tags.
///
/// The PAB availability proof (quorum `q ∈ [f+1, 2f+1]`) and the batch
/// certificate of Narwhal and the certified DAG (quorum `2f+1`).
///
/// Cloning bumps a reference count.  `==` is equality of digest, signer
/// set and aggregate; proofs built from the same signatures in any order
/// are equal.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct QuorumProof {
    /// Digest the signatures cover.
    pub digest: Digest,
    /// Bit `i % 8` of byte `i / 8` is set iff replica `i` signed; shared
    /// between clones.  Private so that it never ends in a zero byte — one
    /// bitmap per signer set — and stays in step with `aggregate`.
    bitmap: Arc<Vec<u8>>,
    /// Wrapping sum of the signers' tags: commutative, so the order of
    /// [`QuorumProof::add`] calls does not show.
    aggregate: u64,
}

/// Longest bitmap whose highest bit is still a `u32` signer index.
const MAX_BITMAP_BYTES: usize = u32::MAX as usize / 8 + 1;

impl QuorumProof {
    /// Creates an empty proof for `digest`.
    pub fn new(digest: Digest) -> Self {
        QuorumProof {
            digest,
            ..QuorumProof::default()
        }
    }

    /// Builds a proof directly from a set of signatures (a repeated signer
    /// counts once; the order does not matter).
    pub fn from_signatures(digest: Digest, sigs: impl IntoIterator<Item = Signature>) -> Self {
        let mut proof = QuorumProof::new(digest);
        for s in sigs {
            proof.add(s);
        }
        proof
    }

    /// Rebuilds a proof from its wire form: the digest, the aggregate and
    /// the signer bitmap as [`QuorumProof::bitmap`] returns it.  Trailing
    /// zero bytes are dropped; nothing else is judged here —
    /// [`QuorumProof::verify`] does that.  `None` if the bitmap is too
    /// long for its bits to be `u32` signer indices.
    pub fn from_parts(digest: Digest, aggregate: u64, bitmap: &[u8]) -> Option<Self> {
        let used = bitmap
            .iter()
            .rposition(|b| *b != 0)
            .map_or(0, |last| last + 1);
        (used <= MAX_BITMAP_BYTES).then(|| QuorumProof {
            digest,
            bitmap: Arc::new(bitmap[..used].to_vec()),
            aggregate,
        })
    }

    /// Sets the signer's bit and folds the signature's tag into the
    /// aggregate, unless the signer is already present.  A proof that
    /// shares its bitmap with clones takes its own copy first, so the
    /// clones never change.  The signature is folded as given: verify it
    /// first (which also bounds its signer index, and with it the bitmap).
    ///
    /// Returns `true` if the signature was added.
    pub fn add(&mut self, sig: Signature) -> bool {
        let (byte, bit) = (sig.signer as usize / 8, 1u8 << (sig.signer % 8));
        if self.bitmap.get(byte).is_some_and(|b| b & bit != 0) {
            return false;
        }
        let bitmap = Arc::make_mut(&mut self.bitmap);
        if byte >= bitmap.len() {
            bitmap.resize(byte + 1, 0);
        }
        bitmap[byte] |= bit;
        self.aggregate = self.aggregate.wrapping_add(sig.tag);
        true
    }

    /// The signer bitmap, least significant bit first: `⌈(highest signer
    /// + 1) / 8⌉` bytes.
    pub fn bitmap(&self) -> &[u8] {
        &self.bitmap
    }

    /// The fold of the signers' tags.
    pub fn aggregate(&self) -> u64 {
        self.aggregate
    }

    /// Number of distinct signers.
    pub fn len(&self) -> usize {
        self.bitmap.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Whether the proof has no signers yet.
    pub fn is_empty(&self) -> bool {
        self.bitmap.is_empty()
    }

    /// The signer indices, increasing.
    pub fn signers(&self) -> Vec<u32> {
        self.set_bits().collect()
    }

    fn set_bits(&self) -> impl Iterator<Item = u32> + '_ {
        self.bitmap.iter().enumerate().flat_map(|(i, &byte)| {
            // No overflow: `i < MAX_BITMAP_BYTES`.
            let base = i as u32 * 8;
            let mut rest = byte;
            std::iter::from_fn(move || {
                let bit = rest.trailing_zeros();
                rest &= rest.wrapping_sub(1);
                (bit < 8).then_some(base + bit)
            })
        })
    }

    /// Returns `true` once at least `quorum` distinct signers are held.
    pub fn has_quorum(&self, quorum: usize) -> bool {
        self.len() >= quorum
    }

    /// Verifies the proof: at least `quorum` signers, each a known
    /// replica, and the aggregate equal to the fold of the tags those
    /// replicas put on `self.digest` — checked as their summed key words
    /// times the digest's message word, which is that fold.
    pub fn verify(&self, public_keys: &[PublicKey], quorum: usize) -> Result<(), ProofError> {
        let have = self.len();
        if have < quorum {
            return Err(ProofError::QuorumNotReached { have, need: quorum });
        }
        let mut aggregate_key = 0u64;
        for signer in self.set_bits() {
            let pk = public_keys
                .get(signer as usize)
                .ok_or(ProofError::UnknownSigner(signer))?;
            if pk.owner != signer {
                return Err(ProofError::BadAggregate);
            }
            aggregate_key = aggregate_key.wrapping_add(Signature::key_word(pk));
        }
        if Signature::tag_for(aggregate_key, &self.digest) != self.aggregate {
            return Err(ProofError::BadAggregate);
        }
        Ok(())
    }

    /// Wire size: the digest, one ECDSA-sized aggregate and the signer
    /// bitmap — constant in the quorum, `⌈n / 8⌉` in the system size.
    pub fn wire_size(&self) -> usize {
        self.digest.wire_size() + SIGNATURE_BYTES + self.bitmap.len()
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
    fn bad_signature_is_detected() {
        let (kps, pks) = setup(4);
        let d = Digest::of_u64(9);
        let other = Digest::of_u64(10);
        let mut proof = QuorumProof::new(d);
        proof.add(Signature::sign(&kps[0].secret, &d));
        // Signature over a different digest smuggled into the proof.
        proof.add(Signature::sign(&kps[1].secret, &other));
        assert_eq!(proof.verify(&pks, 2), Err(ProofError::BadAggregate));
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
    fn from_parts_keeps_one_bitmap_per_signer_set() {
        let (kps, pks) = setup(4);
        let proof = proof_from(&kps, Digest::of_u64(9), &[0, 2]);
        assert_eq!(proof.bitmap(), [0b0101]);
        let padded =
            QuorumProof::from_parts(proof.digest, proof.aggregate(), &[0b0101, 0, 0]).unwrap();
        assert_eq!(padded, proof);
        assert_eq!(padded.wire_size(), proof.wire_size());
        // All zero: no signers, whatever the aggregate says.
        let empty = QuorumProof::from_parts(proof.digest, proof.aggregate(), &[0, 0]).unwrap();
        assert!(empty.is_empty() && empty.bitmap().is_empty());
        assert_eq!(
            empty.verify(&pks, 1),
            Err(ProofError::QuorumNotReached { have: 0, need: 1 })
        );
        assert_eq!(empty.verify(&pks, 0), Err(ProofError::BadAggregate));
        // Set bits are kept wherever they are: past n they are unknown
        // signers for `verify` to name, never skipped and never indexed.
        let garbage =
            QuorumProof::from_parts(proof.digest, proof.aggregate(), &[0b0101, 0, 0b10]).unwrap();
        assert_eq!(garbage.signers(), [0, 2, 17]);
        assert_eq!(garbage.verify(&pks, 2), Err(ProofError::UnknownSigner(17)));
    }

    #[test]
    fn wire_size_is_constant_in_signers_and_a_bitmap_in_n() {
        let d = Digest::of_u64(9);
        let kps = KeyPair::derive_all(42, 100);
        assert_eq!(proof_from(&kps, d, &[0, 1]).wire_size(), 32 + 64 + 1);
        assert_eq!(proof_from(&kps, d, &[0, 1, 2]).wire_size(), 32 + 64 + 1);
        assert_eq!(proof_from(&kps, d, &[0, 1, 7]).wire_size(), 32 + 64 + 1);
        assert_eq!(proof_from(&kps, d, &[0, 1, 8]).wire_size(), 32 + 64 + 2);
        let all: Vec<usize> = (0..100).collect();
        assert_eq!(proof_from(&kps, d, &all).wire_size(), 32 + 64 + 13);
        assert_eq!(proof_from(&kps, d, &all[66..]).wire_size(), 32 + 64 + 13);
    }

    #[test]
    fn signers_are_sorted_and_deterministic() {
        let (kps, _) = setup(5);
        let d = Digest::of_u64(3);
        let proof = proof_from(&kps, d, &[4, 1, 3]);
        assert_eq!(proof.signers(), vec![1, 3, 4]);
        assert_eq!(proof, proof_from(&kps, d, &[3, 4, 1, 3]));
    }
}
