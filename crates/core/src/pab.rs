//! Provably available broadcast (PAB) — Algorithms 1 and 2 of the paper.
//!
//! The engine tracks one instance per microblock.  In the **push phase**
//! the disseminator broadcasts the microblock and collects signed
//! acknowledgements until it holds `q` of them, at which point it
//! aggregates them into an availability proof.  In the **recovery phase**
//! the proof is broadcast; a replica that holds a valid proof but not the
//! data fetches it from a random subset of the proof's signers, retrying
//! after `δ` until satisfied.
//!
//! The engine is transport-agnostic: its methods return the signatures,
//! proofs and fetch targets that the [`crate::mempool::StratusMempool`]
//! turns into wire messages.
//!
//! A proof is held once and verified once: the engine keeps the first
//! verified proof it learns for an id, and a proof presented later — in a
//! `PabProof`, or on a reference of any proposal — that *equals* the held
//! one is valid without a second check.  Equality with the held proof is
//! the only shortcut; every other proof is verified in full.  Every ack is
//! verified singly before it is folded into the aggregate.
//!
//! An instance ends with its microblock: [`PabEngine::forget`] drops the
//! push state and the held proof once the microblock has retired (executed
//! one `δ` ago, see `smp_mempool`'s dissemination core).  A proof for the
//! id that arrives later is verified in full like any proof not held, and
//! the mempool then drops it — the engine never holds state for an id the
//! core has retired.

use rand::rngs::SmallRng;
use rand::Rng;
use smp_crypto::{DigestMap, KeyPair, ProofError, PublicKey, QuorumProof, Signature};
use smp_telemetry::Telemetry;
use smp_types::{Microblock, MicroblockId, ReplicaId, SimTime};
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// Probability `α` of requesting a given proof signer during `PAB-Fetch`
/// (Algorithm 2).
pub const FETCH_ALPHA: f64 = 0.5;

/// State of one PAB instance on the disseminating replica, from the
/// broadcast until the proof is complete.
#[derive(Clone, Debug)]
struct PushState {
    acks: QuorumProof,
    broadcast_at: SimTime,
    /// Original creator if this replica disseminates on behalf of someone
    /// else (DLB proxy), `None` when disseminating its own microblock.
    origin: Option<ReplicaId>,
}

/// The PAB engine of one replica.
#[derive(Clone, Debug)]
pub struct PabEngine {
    me: ReplicaId,
    /// Every replica's public key: the deployment's shared directory.
    keys: Arc<[PublicKey]>,
    my_key: KeyPair,
    quorum: usize,
    fetch_alpha: f64,
    push: DigestMap<MicroblockId, PushState>,
    /// The verified proof held per id: the first one learned.
    proofs: DigestMap<MicroblockId, QuorumProof>,
    telemetry: Telemetry,
}

/// Result of completing a push phase: the proof plus bookkeeping the
/// mempool needs (who to hand the proof to, and how long stability took).
#[derive(Clone, Debug)]
pub struct ProofReady {
    /// The microblock that became provably available.
    pub id: MicroblockId,
    /// The availability proof.
    pub proof: QuorumProof,
    /// Time from broadcast to stability (drives the DLB estimator).
    pub stable_time: SimTime,
    /// Original creator when the push phase was run by a DLB proxy.
    pub origin: Option<ReplicaId>,
}

impl PabEngine {
    /// Creates the engine for replica `me` with availability quorum
    /// `quorum` and fetch sampling probability `fetch_alpha`.
    pub fn new(seed: u64, n: usize, me: ReplicaId, quorum: usize, fetch_alpha: f64) -> Self {
        PabEngine {
            me,
            keys: smp_crypto::directory(seed, n),
            my_key: KeyPair::derive(seed, me.0),
            quorum,
            fetch_alpha: fetch_alpha.clamp(0.0, 1.0),
            push: DigestMap::default(),
            proofs: DigestMap::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Installs the telemetry handle (`pab.proof_verified` and
    /// `pab.proof_known` count [`PabEngine::verify_proof`]'s two paths).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The configured availability quorum.
    pub fn quorum(&self) -> usize {
        self.quorum
    }

    /// Starts the push phase for `mb` with this replica as disseminator.
    /// `origin` is the original creator when acting as a DLB proxy.
    pub fn start_push(&mut self, mb: &Microblock, now: SimTime, origin: Option<ReplicaId>) {
        let mut acks = QuorumProof::new(mb.id.digest());
        // The disseminator's own signature counts toward the quorum.
        acks.add(Signature::sign(&self.my_key.secret, &mb.id.digest()));
        self.push.insert(
            mb.id,
            PushState {
                acks,
                broadcast_at: now,
                origin,
            },
        );
    }

    /// Whether this replica is running the push phase for `id` (it ends
    /// with the proof).
    pub fn is_pushing(&self, id: &MicroblockId) -> bool {
        self.push.contains_key(id)
    }

    /// Produces the acknowledgement this replica sends back when it
    /// receives a pushed microblock.
    pub fn ack_for(&self, id: &MicroblockId) -> Signature {
        Signature::sign(&self.my_key.secret, &id.digest())
    }

    /// Records an acknowledgement received by the disseminator.  Returns
    /// the completed proof exactly once, when the quorum is first reached.
    pub fn on_ack(&mut self, id: MicroblockId, sig: Signature, now: SimTime) -> Option<ProofReady> {
        let state = self.push.get_mut(&id)?;
        let signer_key = self.keys.get(sig.signer as usize)?;
        if !sig.verify(signer_key, &id.digest()) {
            return None;
        }
        state.acks.add(sig);
        if !state.acks.has_quorum(self.quorum) {
            return None;
        }
        // The push phase is over: the collected acks are the proof.
        let state = self.push.remove(&id)?;
        self.proofs.insert(id, state.acks.clone());
        Some(ProofReady {
            id,
            proof: state.acks,
            stable_time: now.saturating_sub(state.broadcast_at),
            origin: state.origin,
        })
    }

    /// Verifies an availability proof against the configured quorum.  A
    /// proof equal to the one held for `id` was verified when it was
    /// stored and is not checked again.
    pub fn verify_proof(&self, id: &MicroblockId, proof: &QuorumProof) -> Result<(), ProofError> {
        if self.proofs.get(id) == Some(proof) {
            self.telemetry.counter_inc("pab.proof_known");
            return Ok(());
        }
        self.telemetry.counter_inc("pab.proof_verified");
        if proof.digest != id.digest() {
            return Err(ProofError::WrongDigest);
        }
        proof.verify(&self.keys, self.quorum)
    }

    /// Records a proof learned from the network (after verification); the
    /// first proof stored for an id is the one kept.
    pub fn store_proof(&mut self, id: MicroblockId, proof: &QuorumProof) {
        if let Entry::Vacant(slot) = self.proofs.entry(id) {
            slot.insert(proof.clone());
        }
    }

    /// Ends the instance of `id`: its microblock retired.
    pub fn forget(&mut self, id: &MicroblockId) {
        self.push.remove(id);
        self.proofs.remove(id);
    }

    /// Push phases in progress.
    pub fn pushing(&self) -> usize {
        self.push.len()
    }

    /// Returns the locally known proof for `id`.
    pub fn proof_of(&self, id: &MicroblockId) -> Option<&QuorumProof> {
        self.proofs.get(id)
    }

    /// Number of proofs known locally.
    pub fn proofs_known(&self) -> usize {
        self.proofs.len()
    }

    /// Selects the replicas to ask for a missing microblock during the
    /// recovery phase (Algorithm 2, `PAB-Fetch`): each signer of the proof
    /// other than this replica is requested with probability `α`; at least
    /// one target is returned whenever there is such a signer, so the
    /// fetch makes progress.  Retries walk the signers through the fetch
    /// core's candidate list, not through here.
    pub fn fetch_targets(&self, proof: &QuorumProof, rng: &mut SmallRng) -> Vec<ReplicaId> {
        let candidates: Vec<ReplicaId> = proof
            .signers()
            .into_iter()
            .map(ReplicaId)
            .filter(|r| *r != self.me)
            .collect();
        if candidates.is_empty() {
            return Vec::new();
        }
        let mut targets: Vec<ReplicaId> = candidates
            .iter()
            .copied()
            .filter(|_| rng.gen::<f64>() < self.fetch_alpha)
            .collect();
        if targets.is_empty() {
            let pick = candidates[rng.gen_range(0..candidates.len())];
            targets.push(pick);
        }
        targets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use smp_types::{ClientId, Transaction};

    const SEED: u64 = 0xA11CE;

    fn make_mb(creator: u32, n: usize) -> Microblock {
        let txs = (0..n)
            .map(|i| Transaction::synthetic(ClientId(creator), i as u64, 128, 0))
            .collect();
        Microblock::seal(ReplicaId(creator), txs, 0)
    }

    fn engines(n: usize, quorum: usize) -> Vec<PabEngine> {
        (0..n as u32)
            .map(|i| PabEngine::new(SEED, n, ReplicaId(i), quorum, FETCH_ALPHA))
            .collect()
    }

    #[test]
    fn push_phase_produces_proof_at_quorum() {
        let mut engines = engines(4, 2); // f = 1, q = f + 1 = 2
        let mb = make_mb(0, 3);
        engines[0].start_push(&mb, 1_000, None);
        assert!(engines[0].is_pushing(&mb.id));
        // One remote ack plus the sender's own signature reaches q = 2.
        let ack1 = engines[1].ack_for(&mb.id);
        let ready = engines[0]
            .on_ack(mb.id, ack1, 5_000)
            .expect("quorum reached");
        assert_eq!(ready.stable_time, 4_000);
        assert_eq!(ready.proof.len(), 2);
        assert!(ready.origin.is_none());
        // The proof ends the push phase: its state is dropped, and
        // further acks do not produce the proof again.
        assert!(!engines[0].is_pushing(&mb.id));
        let ack2 = engines[2].ack_for(&mb.id);
        assert!(engines[0].on_ack(mb.id, ack2, 6_000).is_none());
    }

    #[test]
    fn proof_verifies_everywhere_and_bad_proofs_fail() {
        let mut engines = engines(7, 3);
        let mb = make_mb(0, 2);
        engines[0].start_push(&mb, 0, None);
        let a1 = engines[1].ack_for(&mb.id);
        let a2 = engines[2].ack_for(&mb.id);
        engines[0].on_ack(mb.id, a1, 10);
        let ready = engines[0]
            .on_ack(mb.id, a2, 20)
            .expect("quorum of 3 reached");
        for e in &engines {
            assert!(e.verify_proof(&mb.id, &ready.proof).is_ok());
        }
        // A proof over a different microblock does not verify for this id.
        let other = make_mb(1, 2);
        assert_eq!(
            engines[3].verify_proof(&other.id, &ready.proof),
            Err(ProofError::WrongDigest)
        );
        // A truncated proof fails the quorum check.
        let weak = QuorumProof::new(mb.id.digest());
        assert!(engines[3].verify_proof(&mb.id, &weak).is_err());
    }

    #[test]
    fn malformed_aggregates_are_refused_and_the_held_proof_stays() {
        let mut engines = engines(4, 2);
        let mb = make_mb(0, 2);
        engines[0].start_push(&mb, 0, None);
        let ack = engines[1].ack_for(&mb.id);
        let held = engines[0].on_ack(mb.id, ack, 10).unwrap().proof;
        assert_eq!(held.bitmap(), [0b0011]);
        engines[3].store_proof(mb.id, &held);
        let (digest, aggregate) = (held.digest, held.aggregate());
        // What a decoder hands over for hostile bytes: set bits beyond n
        // (in the counted byte, in a byte of their own), no bit at all,
        // and a quorum of signers under an aggregate one bit off.
        let cases = [
            (vec![0b0101_0011], aggregate, ProofError::UnknownSigner(4)),
            (vec![0b0011, 0b1], aggregate, ProofError::UnknownSigner(8)),
            (
                vec![0, 0],
                aggregate,
                ProofError::QuorumNotReached { have: 0, need: 2 },
            ),
            (
                vec![0b0011],
                aggregate ^ (1 << 40),
                ProofError::BadAggregate,
            ),
            (vec![0b0111], aggregate, ProofError::BadAggregate),
        ];
        for (bitmap, aggregate, verdict) in cases {
            let proof = QuorumProof::from_parts(digest, aggregate, &bitmap).unwrap();
            assert_eq!(engines[3].verify_proof(&mb.id, &proof), Err(verdict));
            assert_eq!(engines[3].proof_of(&mb.id), Some(&held));
        }
        assert_eq!(engines[3].verify_proof(&mb.id, &held), Ok(()));
    }

    #[test]
    fn invalid_acks_are_ignored() {
        let mut engines = engines(4, 3);
        let mb = make_mb(0, 1);
        engines[0].start_push(&mb, 0, None);
        // An ack signed over the wrong digest is rejected.
        let bogus = Signature::sign(
            &KeyPair::derive(SEED, 1).secret,
            &smp_crypto::Digest::of_u64(12345),
        );
        assert!(engines[0].on_ack(mb.id, bogus, 1).is_none());
        // Unknown instance acks are ignored too.
        let ack = engines[1].ack_for(&mb.id);
        let unknown = make_mb(2, 1);
        assert!(engines[0].on_ack(unknown.id, ack, 1).is_none());
    }

    #[test]
    fn duplicate_acks_do_not_count_twice() {
        let mut engines = engines(4, 3);
        let mb = make_mb(0, 1);
        engines[0].start_push(&mb, 0, None);
        let ack1 = engines[1].ack_for(&mb.id);
        assert!(engines[0].on_ack(mb.id, ack1, 1).is_none());
        assert!(
            engines[0].on_ack(mb.id, ack1, 2).is_none(),
            "same signer replayed"
        );
        let ack2 = engines[2].ack_for(&mb.id);
        assert!(engines[0].on_ack(mb.id, ack2, 3).is_some());
    }

    #[test]
    fn proxy_origin_is_preserved() {
        let mut engines = engines(4, 2);
        let mb = make_mb(3, 1); // created by replica 3
        engines[0].start_push(&mb, 100, Some(ReplicaId(3)));
        let ack = engines[1].ack_for(&mb.id);
        let ready = engines[0].on_ack(mb.id, ack, 200).unwrap();
        assert_eq!(ready.origin, Some(ReplicaId(3)));
    }

    #[test]
    fn fetch_targets_are_signers_other_than_self() {
        let mut engines = engines(10, 5);
        let mb = make_mb(0, 1);
        engines[0].start_push(&mb, 0, None);
        for i in 1..5u32 {
            let ack = engines[i as usize].ack_for(&mb.id);
            engines[0].on_ack(mb.id, ack, 10);
        }
        let proof = engines[0].proof_of(&mb.id).unwrap().clone();
        let mut rng = SmallRng::seed_from_u64(9);
        // Replica 1 signed the proof, so it must never ask itself; replica
        // 7 did not, so every signer is a candidate.
        for me in [1, 7] {
            let mut seen = std::collections::BTreeSet::new();
            for _ in 0..20 {
                let targets = engines[me].fetch_targets(&proof, &mut rng);
                assert!(!targets.is_empty());
                for t in &targets {
                    assert!(proof.signers().contains(&t.0));
                    assert_ne!(t.index(), me);
                    seen.insert(t.0);
                }
            }
            let expected = proof.signers().into_iter().filter(|s| *s as usize != me);
            assert_eq!(seen, expected.collect());
        }
    }
}
