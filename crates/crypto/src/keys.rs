//! Per-replica key pairs.
//!
//! Keys are deterministic functions of `(system seed, replica index)` so
//! that experiments are reproducible and any component can reconstruct the
//! public key set from the configuration alone.  The secret key is a
//! 64-bit value; the first word of its digest, forced odd, is the key word
//! a [`crate::signature::Signature`] tag multiplies by.
//!
//! The public key set is one [`directory`] per deployment: the replicas
//! built together from one `(seed, n)` share a single table, so building
//! n replicas derives n public keys plus each replica's own pair, not n².

use crate::hash::{Digest, Hasher};
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::sync::{Arc, Weak};

/// Public half of a replica key pair.
///
/// In the simulated scheme the public key is a digest of the secret key;
/// verification recomputes the expected signature tag from its first word
/// (see [`crate::signature`] for the trust argument).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PublicKey {
    /// Index of the replica owning this key.
    pub owner: u32,
    /// Commitment to the secret key.
    pub commitment: Digest,
}

/// Secret half of a replica key pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SecretKey {
    /// Index of the replica owning this key.
    pub owner: u32,
    /// The MAC key.
    pub key: u64,
}

/// A replica key pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeyPair {
    /// Public key.
    pub public: PublicKey,
    /// Secret key.
    pub secret: SecretKey,
}

/// A directory's `(seed, n)` and a weak handle on its table.
type LiveDirectory = ((u64, usize), Weak<[PublicKey]>);

thread_local! {
    static KEY_DERIVATIONS: Cell<u64> = const { Cell::new(0) };
    /// The live directories built on this thread.  Only weak references:
    /// a table lives as long as some replica holds it, never longer.
    static DIRECTORIES: RefCell<Vec<LiveDirectory>> = const { RefCell::new(Vec::new()) };
}

/// Number of [`KeyPair::derive`] calls made on this thread so far.
///
/// Regression tests diff this counter around building a deployment to
/// prove that its key set is derived once, not once per replica.
pub fn key_derivations() -> u64 {
    KEY_DERIVATIONS.with(|c| c.get())
}

/// The public keys of a system of `n` replicas under `system_seed`, by
/// replica index: entry `i` is `KeyPair::derive(system_seed, i).public`.
///
/// Every caller on this thread that asks for the same `(system_seed, n)`
/// while an earlier answer is still held gets that same table.  Once the
/// last holder drops it, the next call derives it afresh: there is no
/// cache beyond the deployment that uses it.
pub fn directory(system_seed: u64, n: usize) -> Arc<[PublicKey]> {
    DIRECTORIES.with(|dirs| {
        let mut dirs = dirs.borrow_mut();
        dirs.retain(|(_, table)| table.strong_count() > 0);
        let live = dirs
            .iter()
            .find(|(key, _)| *key == (system_seed, n))
            .and_then(|(_, table)| table.upgrade());
        live.unwrap_or_else(|| {
            let table: Arc<[PublicKey]> = (0..n as u32)
                .map(|i| KeyPair::derive(system_seed, i).public)
                .collect();
            dirs.push(((system_seed, n), Arc::downgrade(&table)));
            table
        })
    })
}

impl KeyPair {
    /// Derives the key pair for replica `index` under `system_seed`.
    pub fn derive(system_seed: u64, index: u32) -> Self {
        KEY_DERIVATIONS.with(|c| c.set(c.get() + 1));
        let mut h = Hasher::with_domain(0x4b45_5953); // "KEYS"
        h.update_u64(system_seed);
        h.update_u64(index as u64);
        let secret_digest = h.finalize();
        let secret = SecretKey {
            owner: index,
            key: secret_digest.0[0] ^ secret_digest.0[2],
        };
        let public = PublicKey {
            owner: index,
            commitment: Digest::of_u64(secret.key),
        };
        KeyPair { public, secret }
    }

    /// Derives the full key set, secrets included, for a system of `n`
    /// replicas.  Replicas take their public keys from [`directory`] and
    /// derive only their own pair; this stays for the benchmark's probes
    /// and for tests, which sign as any replica.
    pub fn derive_all(system_seed: u64, n: usize) -> Vec<KeyPair> {
        (0..n as u32)
            .map(|i| KeyPair::derive(system_seed, i))
            .collect()
    }
}

impl PublicKey {
    /// The MAC key, read off the public commitment.
    ///
    /// This is obviously not possible for a real signature scheme; the
    /// simulated scheme accepts it because no experiment in the paper
    /// depends on unforgeability — Byzantine behaviour is modelled
    /// explicitly in the protocol logic rather than through forged
    /// messages.
    pub(crate) fn mac_key(&self) -> u64 {
        // The commitment is `Digest::of_u64(secret)`, and the signer keys
        // its tags with that digest's first word — the word returned here,
        // so sign and verify agree without inverting anything.
        self.commitment.0[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(KeyPair::derive(7, 3), KeyPair::derive(7, 3));
    }

    #[test]
    fn different_indices_get_different_keys() {
        let a = KeyPair::derive(7, 0);
        let b = KeyPair::derive(7, 1);
        assert_ne!(a.secret.key, b.secret.key);
        assert_ne!(a.public.commitment, b.public.commitment);
    }

    #[test]
    fn different_seeds_get_different_keys() {
        assert_ne!(
            KeyPair::derive(1, 0).secret.key,
            KeyPair::derive(2, 0).secret.key
        );
    }

    #[test]
    fn a_directory_is_shared_while_held_and_derived_again_after() {
        let before = key_derivations();
        let a = directory(5, 10);
        let b = directory(5, 10);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(key_derivations() - before, 10);
        drop((a, b));
        let c = directory(5, 10);
        assert_eq!(key_derivations() - before, 20);
        assert_eq!(c.len(), 10);
    }

    #[test]
    fn live_directories_of_different_seeds_or_sizes_are_distinct() {
        let a = directory(1, 8);
        let b = directory(2, 8);
        let c = directory(1, 9);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a[0], b[0]);
        assert_eq!(c.len(), 9);
        assert_eq!(a[..], c[..8]);
    }

    #[test]
    fn derive_all_covers_every_replica() {
        let keys = KeyPair::derive_all(99, 10);
        assert_eq!(keys.len(), 10);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(k.public.owner, i as u32);
            assert_eq!(k.secret.owner, i as u32);
        }
    }
}
