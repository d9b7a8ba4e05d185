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
//! The engine keeps what PAB adds to a quorum certificate — when a push
//! began, for whom, and whom to fetch from — and two
//! [`smp_mempool::CertificateBook`]s, as Narwhal keeps echoes and
//! readies: one collects the push phase's acks, each verified singly
//! before it is folded, the other holds the verified proof per id.  The
//! holding book is also where every presented proof is checked: one that
//! *equals* the held proof — in a `PabProof`, or on a reference of any
//! proposal — is valid without a second check; every other proof is
//! verified in full.  A proof this replica completes itself replaces a
//! held one; a proof learned from the network only fills an empty slot.
//!
//! An instance ends with its microblock: [`PabEngine::forget`] drops the
//! push state and the held proof once the microblock has retired (executed
//! one `δ` ago, see `smp_mempool`'s dissemination core).  A proof for the
//! id that arrives later is verified in full like any proof not held, and
//! the mempool then drops it — the engine never holds state for an id the
//! core has retired.

use rand::rngs::SmallRng;
use rand::Rng;
use smp_crypto::{DigestMap, ProofError, QuorumProof, Signature};
use smp_mempool::{CertificateBook, FillStatus, Verified};
use smp_telemetry::Telemetry;
use smp_types::{Microblock, MicroblockId, MicroblockRef, ReplicaId, SimTime};

/// Probability `α` of requesting a given proof signer during `PAB-Fetch`
/// (Algorithm 2).
pub const FETCH_ALPHA: f64 = 0.5;

/// State of one PAB instance on the disseminating replica, from the
/// broadcast until the proof is complete; its acks are in the ack book.
#[derive(Clone, Copy, Debug)]
struct PushState {
    broadcast_at: SimTime,
    /// Original creator if this replica disseminates on behalf of someone
    /// else (DLB proxy), `None` when disseminating its own microblock.
    origin: Option<ReplicaId>,
}

/// The PAB engine of one replica.
#[derive(Clone, Debug)]
pub struct PabEngine {
    me: ReplicaId,
    fetch_alpha: f64,
    push: DigestMap<MicroblockId, PushState>,
    /// The acks of the push phases in progress; the `q`-th makes a proof.
    acks: CertificateBook,
    /// The verified proof held per id.
    held: CertificateBook,
    telemetry: Telemetry,
}

/// Result of completing a push phase: the proof plus bookkeeping the
/// mempool needs (who to hand the proof to, and how long stability took).
#[derive(Clone, Debug)]
pub struct ProofReady {
    /// The availability proof.
    pub proof: QuorumProof,
    /// Time from broadcast to stability (drives the DLB estimator).
    pub stable_time: SimTime,
    /// Original creator when the push phase was run by a DLB proxy.
    pub origin: Option<ReplicaId>,
}

impl PabEngine {
    /// Creates the engine for replica `me` with availability quorum
    /// `quorum` (at least 2) and fetch sampling probability `fetch_alpha`.
    pub fn new(seed: u64, n: usize, me: ReplicaId, quorum: usize, fetch_alpha: f64) -> Self {
        let held = CertificateBook::new(seed, n, me, quorum);
        PabEngine {
            me,
            fetch_alpha: fetch_alpha.clamp(0.0, 1.0),
            push: DigestMap::default(),
            // Same keys and quorum, derived once.
            acks: held.clone(),
            held,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Installs the telemetry handle (`pab.proof_verified` and
    /// `pab.proof_known` count [`PabEngine::verify_proof`]'s two paths).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The book of held proofs: the keys, the quorum `q`, this replica's
    /// signature (its ack) and the verified proof per id.
    pub fn book(&self) -> &CertificateBook {
        &self.held
    }

    /// The book of held proofs, to hold a verified proof in.
    pub fn book_mut(&mut self) -> &mut CertificateBook {
        &mut self.held
    }

    /// Starts the push phase for `mb` with this replica as disseminator.
    /// `origin` is the original creator when acting as a DLB proxy.  A
    /// push of an id already being pushed starts again.
    pub fn start_push(&mut self, mb: &Microblock, now: SimTime, origin: Option<ReplicaId>) {
        self.acks.forget(&mb.id);
        // The disseminator's own signature counts toward the quorum.
        let own = self.acks.sign(&mb.id.digest());
        let _ = self.acks.add(mb.id, own);
        let state = PushState {
            broadcast_at: now,
            origin,
        };
        self.push.insert(mb.id, state);
    }

    /// Records an acknowledgement received by the disseminator.  Returns
    /// the completed proof exactly once, when the quorum is first reached.
    /// An ack for an id this replica is not pushing is not even verified.
    pub fn on_ack(&mut self, id: MicroblockId, sig: Signature, now: SimTime) -> Option<ProofReady> {
        if !self.push.contains_key(&id) {
            return None;
        }
        let proof = self.acks.add(id, sig).ok()??.clone();
        // The push phase is over: the collected acks are the proof, held
        // in place of any proof learned before.
        self.acks.forget(&id);
        self.held.forget(&id);
        self.held.hold(id, &proof);
        let state = self.push.remove(&id)?;
        Some(ProofReady {
            proof,
            stable_time: now.saturating_sub(state.broadcast_at),
            origin: state.origin,
        })
    }

    /// Verifies an availability proof against the configured quorum
    /// ([`CertificateBook::verify`]).
    pub fn verify_proof(&self, id: &MicroblockId, proof: &QuorumProof) -> Result<(), ProofError> {
        let verdict = self.held.verify(id, proof);
        self.count(&verdict);
        verdict.map(drop)
    }

    /// Checks that every reference of a proposal carries a valid
    /// availability proof, counting each check as
    /// [`PabEngine::verify_proof`] does.
    pub fn verify_refs(&self, refs: &[MicroblockRef]) -> Result<(), FillStatus> {
        self.held.verify_refs(refs, |verdict| self.count(verdict))
    }

    fn count(&self, verdict: &Result<Verified, ProofError>) {
        let path = match verdict {
            Ok(Verified::Held) => "pab.proof_known",
            _ => "pab.proof_verified",
        };
        self.telemetry.counter_inc(path);
    }

    /// Ends the instance of `id`: its microblock retired.
    pub fn forget(&mut self, id: &MicroblockId) {
        self.push.remove(id);
        self.acks.forget(id);
        self.held.forget(id);
    }

    /// Push phases in progress (each ends with its proof).
    pub fn pushing(&self) -> usize {
        self.push.len()
    }

    /// When the oldest push phase in progress turns `age` old.
    pub fn next_push_due(&self, age: SimTime) -> Option<SimTime> {
        self.push.values().map(|s| s.broadcast_at + age).min()
    }

    /// Ends every push phase that has been in progress for at least `age`
    /// at `now` and returns each id with its DLB origin, oldest first, to
    /// be pushed again ([`PabEngine::start_push`]).
    pub fn take_stale_pushes(
        &mut self,
        now: SimTime,
        age: SimTime,
    ) -> Vec<(MicroblockId, Option<ReplicaId>)> {
        let mut stale: Vec<(SimTime, MicroblockId, Option<ReplicaId>)> = self
            .push
            .iter()
            .filter(|(_, s)| s.broadcast_at + age <= now)
            .map(|(id, s)| (s.broadcast_at, *id, s.origin))
            .collect();
        stale.sort_unstable();
        for (_, id, _) in &stale {
            self.push.remove(id);
            self.acks.forget(id);
        }
        stale
            .into_iter()
            .map(|(_, id, origin)| (id, origin))
            .collect()
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
    use smp_crypto::KeyPair;
    use smp_types::{ClientId, Transaction};

    const SEED: u64 = 0xA11CE;

    fn make_mb(creator: u32, n: usize) -> Microblock {
        let txs = (0..n)
            .map(|i| Transaction::synthetic(ClientId(creator), i as u64, 128, 0))
            .collect();
        Microblock::seal(ReplicaId(creator), txs, 0)
    }

    /// The ack `engine`'s replica sends for a pushed `id`.
    fn ack(engine: &PabEngine, id: &MicroblockId) -> Signature {
        engine.book().sign(&id.digest())
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
        assert_eq!(engines[0].pushing(), 1);
        // One remote ack plus the sender's own signature reaches q = 2.
        let ack1 = ack(&engines[1], &mb.id);
        let ready = engines[0]
            .on_ack(mb.id, ack1, 5_000)
            .expect("quorum reached");
        assert_eq!(ready.stable_time, 4_000);
        assert_eq!(ready.proof.len(), 2);
        assert!(ready.origin.is_none());
        // The proof ends the push phase: its state is dropped, and
        // further acks do not produce the proof again.
        assert_eq!(engines[0].pushing(), 0);
        let ack2 = ack(&engines[2], &mb.id);
        assert!(engines[0].on_ack(mb.id, ack2, 6_000).is_none());
    }

    #[test]
    fn proof_verifies_everywhere_and_bad_proofs_fail() {
        let mut engines = engines(7, 3);
        let mb = make_mb(0, 2);
        engines[0].start_push(&mb, 0, None);
        let a1 = ack(&engines[1], &mb.id);
        let a2 = ack(&engines[2], &mb.id);
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
        let sig = ack(&engines[1], &mb.id);
        let held = engines[0].on_ack(mb.id, sig, 10).unwrap().proof;
        assert_eq!(held.bitmap(), [0b0011]);
        engines[3].book_mut().hold(mb.id, &held);
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
            assert_eq!(engines[3].book().get(&mb.id), Some(&held));
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
        let sig = ack(&engines[1], &mb.id);
        let unknown = make_mb(2, 1);
        assert!(engines[0].on_ack(unknown.id, sig, 1).is_none());
    }

    #[test]
    fn duplicate_acks_do_not_count_twice() {
        let mut engines = engines(4, 3);
        let mb = make_mb(0, 1);
        engines[0].start_push(&mb, 0, None);
        let ack1 = ack(&engines[1], &mb.id);
        assert!(engines[0].on_ack(mb.id, ack1, 1).is_none());
        assert!(
            engines[0].on_ack(mb.id, ack1, 2).is_none(),
            "same signer replayed"
        );
        let ack2 = ack(&engines[2], &mb.id);
        assert!(engines[0].on_ack(mb.id, ack2, 3).is_some());
    }

    #[test]
    fn proxy_origin_is_preserved() {
        let mut engines = engines(4, 2);
        let mb = make_mb(3, 1); // created by replica 3
        engines[0].start_push(&mb, 100, Some(ReplicaId(3)));
        let sig = ack(&engines[1], &mb.id);
        let ready = engines[0].on_ack(mb.id, sig, 200).unwrap();
        assert_eq!(ready.origin, Some(ReplicaId(3)));
    }

    #[test]
    fn fetch_targets_are_signers_other_than_self() {
        let mut engines = engines(10, 5);
        let mb = make_mb(0, 1);
        engines[0].start_push(&mb, 0, None);
        for i in 1..5u32 {
            let sig = ack(&engines[i as usize], &mb.id);
            engines[0].on_ack(mb.id, sig, 10);
        }
        let proof = engines[0].book().get(&mb.id).unwrap().clone();
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

    #[test]
    fn a_second_push_of_an_id_starts_again_from_the_own_signature() {
        let mut engines = engines(4, 3);
        let mb = make_mb(0, 1);
        let (sig1, sig2) = (ack(&engines[1], &mb.id), ack(&engines[2], &mb.id));
        engines[0].start_push(&mb, 0, None);
        assert!(engines[0].on_ack(mb.id, sig1, 1).is_none());
        engines[0].start_push(&mb, 10, None);
        // Replica 1's ack before the restart is forgotten with the push.
        assert!(engines[0].on_ack(mb.id, sig2, 11).is_none());
        let ready = engines[0].on_ack(mb.id, sig1, 12).expect("own, 2 and 1");
        assert_eq!(
            (ready.proof.signers(), ready.stable_time),
            (vec![0, 1, 2], 2)
        );
    }

    #[test]
    fn an_own_proof_replaces_a_held_one_and_a_learned_one_does_not() {
        let mut engines = engines(4, 2);
        let mb = make_mb(0, 1);
        let (sig1, sig3) = (ack(&engines[1], &mb.id), ack(&engines[3], &mb.id));
        // A proof from a proxy's push (signers 2 and 3) is held first.
        engines[2].start_push(&mb, 0, None);
        let learned = engines[2].on_ack(mb.id, sig3, 1).unwrap().proof;
        engines[0].book_mut().hold(mb.id, &learned);
        // The replica's own push completes: its proof is the one held.
        engines[0].start_push(&mb, 0, None);
        let own = engines[0].on_ack(mb.id, sig1, 2).unwrap().proof;
        assert_eq!(engines[0].book().get(&mb.id), Some(&own));
        // A proof learned later fills no slot that is taken.
        engines[0].book_mut().hold(mb.id, &learned);
        assert_eq!(engines[0].book().get(&mb.id), Some(&own));
        assert_eq!(engines[0].verify_proof(&mb.id, &learned), Ok(()));
    }
}
