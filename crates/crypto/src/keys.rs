//! Per-replica key pairs.
//!
//! Keys are deterministic functions of `(system seed, replica index)` so
//! that experiments are reproducible and any component can reconstruct the
//! public key set from the configuration alone.  The secret key is a
//! 64-bit value; the first word of its digest, forced odd, is the key word
//! a [`crate::signature::Signature`] tag multiplies by.

use crate::hash::{Digest, Hasher};
use serde::{Deserialize, Serialize};

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

impl KeyPair {
    /// Derives the key pair for replica `index` under `system_seed`.
    pub fn derive(system_seed: u64, index: u32) -> Self {
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

    /// Derives the full key set for a system of `n` replicas.
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
    fn derive_all_covers_every_replica() {
        let keys = KeyPair::derive_all(99, 10);
        assert_eq!(keys.len(), 10);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(k.public.owner, i as u32);
            assert_eq!(k.secret.owner, i as u32);
        }
    }
}
