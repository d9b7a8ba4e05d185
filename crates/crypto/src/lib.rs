//! Simulated cryptographic substrate for the Stratus reproduction.
//!
//! The paper's evaluation (Section VII-A) deliberately excludes
//! application-level verification cost and never relies on cryptographic
//! hardness: what matters to the reported numbers are the *sizes* of
//! digests, signatures and availability proofs on the wire, and the
//! (small) CPU cost of producing and verifying them.  This crate provides
//! deterministic, cheap stand-ins that preserve the sizes:
//!
//! * [`hash`] — a 256-bit non-cryptographic digest used for transaction,
//!   microblock and block identifiers.
//! * [`keys`] / [`signature`] — per-replica key pairs, one shared public
//!   key [`directory`] per deployment, and 64-byte signatures (the paper
//!   uses ECDSA; Section VI).
//! * [`proof`] — aggregated availability proofs: a digest, a signer bitmap
//!   and one aggregate signature, constant in the quorum `q` (a stated
//!   deviation: the paper concatenates `f+1` ECDSA signatures instead of
//!   using a threshold or multi-signature scheme; footnote 4).
//!
//! The CPU cost is charged elsewhere, per message: the simulator bills a
//! receiver `cpu_cost_us()` of every delivery, and those figures (a
//! signature check, a proof check, per-transaction ingestion) live with
//! the message types in `smp-replica`'s `wire` module.
//!
//! All operations are deterministic functions of their inputs, which keeps
//! the whole simulation reproducible.

pub mod hash;
pub mod keys;
pub mod proof;
pub mod signature;

pub use hash::{Digest, DigestMap, DigestSet, DigestState, Hasher, DIGEST_BYTES};
pub use keys::{directory, key_derivations, KeyPair, PublicKey, SecretKey};
pub use proof::{ProofError, QuorumProof, SIGNATURE_BYTES};
pub use signature::Signature;
