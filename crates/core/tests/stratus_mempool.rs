//! Integration tests of the Stratus mempool: several instances exchanging
//! messages through a tiny in-test router, checking the PAB and DLB flows
//! end to end (without the network simulator).

// The message-routing loops below use the index both to address the node
// array and as the replica identity.
#![allow(clippy::needless_range_loop)]

use rand::rngs::SmallRng;
use rand::SeedableRng;
use smp_crypto::{KeyPair, QuorumProof, Signature};
use smp_mempool::{Dest, Effects, FillStatus, Mempool, MempoolEvent};
use smp_telemetry::Telemetry;
use smp_types::{
    BlockId, ClientId, MempoolConfig, MicroblockId, MicroblockRef, Payload, Proposal, ReplicaId,
    SystemConfig, Transaction, View,
};
use stratus::{DlbConfig, StratusConfig, StratusMempool, StratusMsg};

const N: usize = 4;

fn system() -> SystemConfig {
    SystemConfig::new(N).with_mempool(MempoolConfig {
        batch_size_bytes: 168 * 4, // four 128-byte transactions per microblock
        ..MempoolConfig::default()
    })
}

fn network(config: StratusConfig) -> (Vec<StratusMempool>, SmallRng) {
    let sys = system();
    let nodes = (0..N as u32)
        .map(|i| StratusMempool::new(&sys, config, ReplicaId(i)))
        .collect();
    (nodes, SmallRng::seed_from_u64(99))
}

fn txs(base: u64, n: usize) -> Vec<Transaction> {
    (0..n)
        .map(|i| Transaction::synthetic(ClientId(0), base + i as u64, 128, 0))
        .collect()
}

/// Routes every message in `effects` to its destination node, collecting
/// any messages those deliveries produce in turn, until quiescence.
/// Timers are NOT fired (tests drive them explicitly where needed).
fn route(
    nodes: &mut [StratusMempool],
    from: usize,
    effects: Effects<StratusMsg>,
    now: u64,
    rng: &mut SmallRng,
) -> Vec<(usize, MempoolEvent)> {
    let mut events = Vec::new();
    let mut queue: Vec<(usize, usize, StratusMsg)> = Vec::new();
    let push =
        |queue: &mut Vec<(usize, usize, StratusMsg)>, from: usize, fx: &Effects<StratusMsg>| {
            for (dest, msg) in &fx.msgs {
                match dest {
                    Dest::One(r) => queue.push((from, r.index(), msg.clone())),
                    Dest::AllButSelf => {
                        for i in 0..N {
                            if i != from {
                                queue.push((from, i, msg.clone()));
                            }
                        }
                    }
                    Dest::Many(rs) => {
                        for r in rs {
                            queue.push((from, r.index(), msg.clone()));
                        }
                    }
                }
            }
        };
    for (i, ev) in effects.events.iter().enumerate() {
        let _ = i;
        events.push((from, ev.clone()));
    }
    push(&mut queue, from, &effects);
    while let Some((src, dst, msg)) = queue.pop() {
        let fx = nodes[dst].on_message(now, ReplicaId(src as u32), msg, rng);
        for ev in &fx.events {
            events.push((dst, ev.clone()));
        }
        push(&mut queue, dst, &fx);
    }
    events
}

#[test]
fn pab_push_phase_makes_microblock_proposable_everywhere() {
    let (mut nodes, mut rng) = network(StratusConfig::default());
    let fx = nodes[0].on_client_txs(0, txs(0, 4), &mut rng);
    assert!(fx
        .msgs
        .iter()
        .any(|(_, m)| matches!(m, StratusMsg::PabMsg(_))));
    let events = route(&mut nodes, 0, fx, 10, &mut rng);
    // The creator observed stability.
    assert!(events
        .iter()
        .any(|(n, e)| *n == 0 && matches!(e, MempoolEvent::MicroblockStable { .. })));
    // After proof broadcast, every replica can propose the microblock.
    for i in 0..N {
        let payload = nodes[i].make_payload(100);
        assert_eq!(
            payload.ref_count(),
            1,
            "replica {i} should hold one proposable ref"
        );
        match payload {
            Payload::Refs(refs) => assert!(refs[0].proof.is_some()),
            other => panic!("unexpected payload {other:?}"),
        }
    }
}

#[test]
fn proposal_with_valid_proofs_is_ready_even_if_data_missing() {
    let (mut nodes, mut rng) = network(StratusConfig::default());
    let fx = nodes[0].on_client_txs(0, txs(0, 4), &mut rng);
    let _ = route(&mut nodes, 0, fx, 10, &mut rng);
    let payload = nodes[1].make_payload(50);
    let proposal = Proposal::new(View(7), 1, BlockId::GENESIS, ReplicaId(1), payload, true);

    // A brand-new replica that never saw the microblock or the proof can
    // still verify the proposal and proceed without blocking.
    let sys = system();
    let mut fresh = StratusMempool::new(&sys, StratusConfig::default(), ReplicaId(3));
    let (status, fx) = fresh.on_proposal(60, &proposal, &mut rng);
    assert_eq!(
        status,
        FillStatus::Ready,
        "Stratus never blocks consensus on missing data"
    );
    assert!(
        fx.msgs
            .iter()
            .any(|(_, m)| matches!(m, StratusMsg::PabRequest { .. })),
        "missing data is fetched in the background"
    );
    assert!(fx
        .events
        .iter()
        .any(|e| matches!(e, MempoolEvent::FetchIssued { .. })));
}

#[test]
fn proposal_without_proof_is_invalid() {
    let (mut nodes, mut rng) = network(StratusConfig::default());
    let fx = nodes[0].on_client_txs(0, txs(0, 4), &mut rng);
    let _ = route(&mut nodes, 0, fx, 10, &mut rng);
    // Strip the proof from the reference.
    let payload = match nodes[1].make_payload(50) {
        Payload::Refs(mut refs) => {
            refs[0].proof = None;
            Payload::Refs(refs)
        }
        other => panic!("unexpected payload {other:?}"),
    };
    let proposal = Proposal::new(View(7), 1, BlockId::GENESIS, ReplicaId(1), payload, true);
    let (status, _) = nodes[2].on_proposal(60, &proposal, &mut rng);
    assert!(matches!(status, FillStatus::Invalid(_)));
}

#[test]
fn committed_proposals_execute_with_latencies() {
    let (mut nodes, mut rng) = network(StratusConfig::default());
    let fx = nodes[0].on_client_txs(1_000, txs(0, 4), &mut rng);
    let _ = route(&mut nodes, 0, fx, 2_000, &mut rng);
    let payload = nodes[2].make_payload(3_000);
    let proposal = Proposal::new(View(9), 2, BlockId::GENESIS, ReplicaId(2), payload, true);
    let (status, _) = nodes[1].on_proposal(4_000, &proposal, &mut rng);
    assert_eq!(status, FillStatus::Ready);
    let fx = nodes[1].on_commit(10_000, &proposal);
    let executed = fx
        .events
        .iter()
        .find_map(|e| match e {
            MempoolEvent::Executed {
                tx_count,
                receive_times,
                ..
            } => Some((*tx_count, receive_times.clone())),
            _ => None,
        })
        .expect("commit executes");
    assert_eq!(executed.0, 4);
    assert_eq!(executed.1.len(), 4);
    assert!(executed.1.iter().all(|t| *t == 1_000));
    // Once referenced, the microblock is no longer proposable here.
    assert_eq!(nodes[1].make_payload(11_000).ref_count(), 0);
}

#[test]
fn duplicate_proposal_references_are_not_reproposed() {
    let (mut nodes, mut rng) = network(StratusConfig::default());
    let fx = nodes[0].on_client_txs(0, txs(0, 4), &mut rng);
    let _ = route(&mut nodes, 0, fx, 10, &mut rng);
    let payload = nodes[3].make_payload(20);
    assert_eq!(payload.ref_count(), 1);
    let proposal = Proposal::new(View(1), 1, BlockId::GENESIS, ReplicaId(3), payload, true);
    // Every other replica sees the proposal; their queues drop the ref.
    for i in 0..3 {
        let _ = nodes[i].on_proposal(30, &proposal, &mut rng);
        assert_eq!(nodes[i].make_payload(40).ref_count(), 0, "replica {i}");
    }
}

#[test]
fn busy_replica_forwards_load_to_proxy_and_proxy_disseminates() {
    let cfg = StratusConfig::default().with_dlb(DlbConfig::default().with_d(2));
    let (mut nodes, mut rng) = network(cfg);

    // Drive replica 0 busy: first a normal baseline, then inflated stable
    // times by delaying the acks.  The estimator judges only once its
    // window holds a tenth of its capacity plus one sample (11).
    for round in 0..12u64 {
        let fx = nodes[0].on_client_txs(round * 1_000_000, txs(round * 100, 4), &mut rng);
        // Deliver PabMsg manually and return only one ack, late, so the
        // stable time grows round after round.
        let mb = fx.msgs.iter().find_map(|(_, m)| match m {
            StratusMsg::PabMsg(mb) => Some(mb.clone()),
            _ => None,
        });
        let Some(mb) = mb else { continue };
        let delay = if round < 3 { 10_000 } else { 80_000 };
        let ack_fx = nodes[1].on_message(
            round * 1_000_000 + delay,
            ReplicaId(0),
            StratusMsg::PabMsg(mb),
            &mut rng,
        );
        // Route the ack back to node 0 at the delayed time.
        for (_, m) in ack_fx.msgs {
            let _ = nodes[0].on_message(round * 1_000_000 + delay, ReplicaId(1), m, &mut rng);
        }
    }
    assert!(
        nodes[0].estimator().is_busy(),
        "estimator should report busy after ST inflation"
    );

    // The next sealed microblock is load-balanced instead of broadcast.
    let fx = nodes[0].on_client_txs(10_000_000, txs(10_000, 4), &mut rng);
    assert!(
        fx.msgs
            .iter()
            .any(|(_, m)| matches!(m, StratusMsg::LbQuery { .. })),
        "busy replica samples proxies instead of broadcasting"
    );
    assert!(!fx
        .msgs
        .iter()
        .any(|(_, m)| matches!(m, StratusMsg::PabMsg(_))));

    // Route the whole exchange: queries -> infos -> forward -> proxy PAB.
    let events = route(&mut nodes, 0, fx, 10_000_100, &mut rng);
    assert!(
        nodes[0].load_balancer().forwarded_total() >= 1,
        "microblock was forwarded"
    );
    let proxied: u64 = nodes
        .iter()
        .map(|n| n.load_balancer().proxied_total())
        .sum();
    assert_eq!(
        proxied, 1,
        "exactly one proxy disseminated on behalf of the busy sender"
    );
    // The proxy's dissemination still leads to stability.
    assert!(events
        .iter()
        .any(|(_, e)| matches!(e, MempoolEvent::MicroblockStable { .. })));
    // And the microblock ends up proposable at the non-busy replicas.
    let proposable: usize = (0..N)
        .map(|i| nodes[i].make_payload(20_000_000).ref_count())
        .sum();
    assert!(proposable >= 1);
}

#[test]
fn limiter_defers_bulk_broadcasts_under_a_tight_budget() {
    // A tiny data budget: the second microblock must wait for tokens.
    let sys = SystemConfig::new(N)
        .with_network(smp_types::NetworkPreset::Custom {
            bandwidth_bps: 26_667, // data budget ~3 KB burst at the 90% share
            one_way_delay_us: 1000,
            jitter_us: 0,
        })
        .with_mempool(MempoolConfig {
            batch_size_bytes: 168 * 4,
            ..MempoolConfig::default()
        });
    let mut node = StratusMempool::new(&sys, StratusConfig::default(), ReplicaId(0));
    let mut rng = SmallRng::seed_from_u64(5);
    let fx1 = node.on_client_txs(0, txs(0, 4), &mut rng);
    let first_broadcasts = fx1
        .msgs
        .iter()
        .filter(|(_, m)| matches!(m, StratusMsg::PabMsg(_)))
        .count();
    let fx2 = node.on_client_txs(10, txs(100, 4), &mut rng);
    let second_broadcasts = fx2
        .msgs
        .iter()
        .filter(|(_, m)| matches!(m, StratusMsg::PabMsg(_)))
        .count();
    assert_eq!(
        first_broadcasts, 1,
        "first microblock fits the burst budget"
    );
    assert_eq!(
        second_broadcasts, 0,
        "second microblock is deferred by the limiter"
    );
    assert!(fx2
        .timers
        .iter()
        .any(|(_, tag)| *tag == stratus::mempool::LIMITER_TAG));
    // After enough simulated time the deferred microblock is released.
    let fx3 = node.on_timer(5_000_000, stratus::mempool::LIMITER_TAG, &mut rng);
    assert!(fx3
        .msgs
        .iter()
        .any(|(_, m)| matches!(m, StratusMsg::PabMsg(_))));
}

#[test]
fn quorum_override_is_clamped_to_valid_range() {
    for n in [4, 7, 10, 100, 499] {
        let sys = SystemConfig::new(n);
        let f = sys.f;
        let quorum = |q| {
            let cfg = StratusConfig {
                pab_quorum_override: q,
                ..StratusConfig::default()
            };
            StratusMempool::new(&sys, cfg, ReplicaId(0)).pab_quorum()
        };
        assert_eq!(quorum(None), f + 1, "n = {n}: the default is f + 1");
        for q in [0, f, f + 1, 2 * f + 1, 2 * f + 2, 2_000] {
            let expected = q.clamp(f + 1, 2 * f + 1);
            assert_eq!(quorum(Some(q)), expected, "n = {n}, q = {q}");
            assert!(f < expected && expected <= 2 * f + 1 && expected < n);
        }
    }
}

// ---------------------------------------------------------------------
// Held once, verified once: a proof equal to the one a replica already
// holds for an id skips the signature check, and nothing else does.
// ---------------------------------------------------------------------

/// A replica that has seen nothing yet, with its own telemetry.
fn observed() -> (StratusMempool, Telemetry) {
    let telemetry = Telemetry::new();
    let mut node = StratusMempool::new(&system(), StratusConfig::default(), ReplicaId(3));
    node.set_telemetry(telemetry.clone());
    (node, telemetry)
}

/// `(pab.proof_known, pab.proof_verified)`: memo hits and full checks.
fn proof_checks(telemetry: &Telemetry) -> (u64, u64) {
    let snapshot = telemetry.snapshot();
    let counter = |name| snapshot.counter(name).unwrap_or(0);
    (counter("pab.proof_known"), counter("pab.proof_verified"))
}

/// A valid availability proof of `id` signed by `signers`.
fn proof_by(id: MicroblockId, signers: &[usize]) -> QuorumProof {
    let keys = KeyPair::derive_all(system().seed, N);
    QuorumProof::from_signatures(
        id.digest(),
        signers
            .iter()
            .map(|&i| Signature::sign(&keys[i].secret, &id.digest())),
    )
}

/// `proof` with one signer's tag flipped, as it shows in the aggregate.
fn forged(proof: &QuorumProof) -> QuorumProof {
    QuorumProof::from_parts(proof.digest, proof.aggregate() ^ 1, proof.bitmap()).unwrap()
}

fn proposal_of(id: MicroblockId, proof: QuorumProof) -> Proposal {
    let payload = Payload::Refs(vec![MicroblockRef::proven(id, ReplicaId(0), 4, proof)]);
    Proposal::new(View(7), 1, BlockId::GENESIS, ReplicaId(1), payload, true)
}

const ID: MicroblockId = MicroblockId(smp_crypto::Digest([1, 2, 3, 4]));

#[test]
fn held_proof_presented_again_is_not_verified_again() {
    let (mut node, telemetry) = observed();
    let mut rng = SmallRng::seed_from_u64(1);
    let proof = proof_by(ID, &[0, 1]);
    let msg = StratusMsg::PabProof {
        id: ID,
        proof: proof.clone(),
    };
    let _ = node.on_message(10, ReplicaId(0), msg.clone(), &mut rng);
    assert_eq!(proof_checks(&telemetry), (0, 1), "first sight: verified");
    assert_eq!(node.proofs_known(), 1);
    // The same proof again, by broadcast and on a proposal reference.
    let _ = node.on_message(20, ReplicaId(1), msg, &mut rng);
    assert_eq!(proof_checks(&telemetry), (1, 1));
    let (status, _) = node.on_proposal(30, &proposal_of(ID, proof), &mut rng);
    assert_eq!(status, FillStatus::Ready);
    assert_eq!(proof_checks(&telemetry), (2, 1));
}

#[test]
fn forged_proof_for_a_held_id_is_refused_and_changes_nothing() {
    let (mut node, telemetry) = observed();
    let mut rng = SmallRng::seed_from_u64(1);
    let proof = proof_by(ID, &[0, 1]);
    let (status, _) = node.on_proposal(10, &proposal_of(ID, proof.clone()), &mut rng);
    assert_eq!(status, FillStatus::Ready);
    let bad = forged(&proof);
    assert_ne!(bad, proof);
    let (status, fx) = node.on_proposal(20, &proposal_of(ID, bad.clone()), &mut rng);
    assert_eq!(status, FillStatus::Invalid("invalid availability proof"));
    assert!(fx.msgs.is_empty() && fx.events.is_empty());
    let fx = node.on_message(
        30,
        ReplicaId(2),
        StratusMsg::PabProof { id: ID, proof: bad },
        &mut rng,
    );
    assert!(
        fx.msgs.is_empty() && fx.events.is_empty() && !node.is_proposable(&ID),
        "silently dropped"
    );
    assert_eq!(proof_checks(&telemetry), (0, 3), "each one fully checked");
    // The held proof is still the first one: it alone hits the memo.
    let (status, _) = node.on_proposal(40, &proposal_of(ID, proof), &mut rng);
    assert_eq!(status, FillStatus::Ready);
    assert_eq!(proof_checks(&telemetry), (1, 3));
    assert_eq!(node.proofs_known(), 1);
}

#[test]
fn valid_proof_from_other_signers_is_verified_and_the_first_is_kept() {
    let (mut node, telemetry) = observed();
    let mut rng = SmallRng::seed_from_u64(1);
    let (first, other) = (proof_by(ID, &[0, 1]), proof_by(ID, &[2, 3]));
    let pab_proof = |proof: &QuorumProof| StratusMsg::PabProof {
        id: ID,
        proof: proof.clone(),
    };
    let _ = node.on_message(10, ReplicaId(0), pab_proof(&first), &mut rng);
    // Accepted on both entry points, after a full check each time.
    let (status, _) = node.on_proposal(20, &proposal_of(ID, other.clone()), &mut rng);
    assert_eq!(status, FillStatus::Ready);
    let _ = node.on_message(30, ReplicaId(2), pab_proof(&other), &mut rng);
    assert!(
        !node.is_proposable(&ID),
        "the proposal named it: a later PabProof does not queue it again"
    );
    assert_eq!(proof_checks(&telemetry), (0, 3));
    // Only the first-stored proof is the held one.
    let _ = node.on_message(40, ReplicaId(0), pab_proof(&first), &mut rng);
    assert_eq!(proof_checks(&telemetry), (1, 3));
    assert_eq!(node.proofs_known(), 1);
}

#[test]
fn proposal_that_overtakes_its_pab_proof_is_the_one_verification() {
    let (mut node, telemetry) = observed();
    let mut rng = SmallRng::seed_from_u64(1);
    let proof = proof_by(ID, &[0, 1]);
    let (status, _) = node.on_proposal(10, &proposal_of(ID, proof.clone()), &mut rng);
    assert_eq!(status, FillStatus::Ready);
    assert_eq!(proof_checks(&telemetry), (0, 1));
    let _ = node.on_message(
        20,
        ReplicaId(0),
        StratusMsg::PabProof { id: ID, proof },
        &mut rng,
    );
    assert_eq!(
        proof_checks(&telemetry),
        (1, 1),
        "the late PabProof is known"
    );
}

#[test]
fn a_pab_proof_after_a_proposal_named_its_id_does_not_queue_it_again() {
    // A leader that proposes the moment it holds a proof can overtake the
    // creator's `PabProof` broadcast: the proposal names the id first.
    let (mut node, _) = observed();
    let mut rng = SmallRng::seed_from_u64(1);
    let proof = proof_by(ID, &[0, 1]);
    let (status, _) = node.on_proposal(10, &proposal_of(ID, proof.clone()), &mut rng);
    assert_eq!(status, FillStatus::Ready);
    let _ = node.on_message(
        20,
        ReplicaId(0),
        StratusMsg::PabProof { id: ID, proof },
        &mut rng,
    );
    assert!(!node.is_proposable(&ID));
    assert_eq!(node.make_payload(30), Payload::Empty);
}

#[test]
fn a_proof_that_comes_after_its_microblock_retired_is_verified_and_dropped() {
    let fetch_timeout = smp_mempool::FETCH_TIMEOUT;
    let (mut nodes, mut rng) = network(StratusConfig::default());
    let telemetry = Telemetry::new();
    nodes[1].set_telemetry(telemetry.clone());
    let fx = nodes[0].on_client_txs(0, txs(0, 4), &mut rng);
    let _ = route(&mut nodes, 0, fx, 10, &mut rng);
    let payload = nodes[2].make_payload(20);
    let (id, proof) = match &payload {
        Payload::Refs(refs) => (refs[0].id, refs[0].proof.clone().expect("proven")),
        other => panic!("unexpected payload {other:?}"),
    };
    let proposal = Proposal::new(View(1), 1, BlockId::GENESIS, ReplicaId(2), payload, true);
    assert_eq!(
        nodes[1].on_proposal(30, &proposal, &mut rng).0,
        FillStatus::Ready
    );
    // It executes at 1 000 and is held for one fetch timeout …
    let fx = nodes[1].on_commit(1_000, &proposal);
    assert_eq!(fx.timers, vec![(fetch_timeout, smp_mempool::RETIRE_TAG)]);
    assert_eq!(nodes[1].proofs_known(), 1);
    // … until the retire timer fires, which retires body and proof.
    let fx = nodes[1].on_timer(1_000 + fetch_timeout, smp_mempool::RETIRE_TAG, &mut rng);
    assert!(fx.is_empty(), "{fx:?}");
    let stats = nodes[1].stats();
    assert_eq!(
        (stats.stored_microblocks, stats.retired_microblocks),
        (0, 1)
    );
    assert_eq!(nodes[1].proofs_known(), 0);

    // The proof again, late (a slow link, a replay): no longer held, so it is
    // verified in full — and then nothing is stored, queued or fetched.
    let verified = |t: &Telemetry| t.snapshot().counter("pab.proof_verified").unwrap_or(0);
    let before = verified(&telemetry);
    let late = StratusMsg::PabProof { id, proof };
    let fx = nodes[1].on_message(2_000_000, ReplicaId(0), late, &mut rng);
    assert_eq!(verified(&telemetry), before + 1);
    assert!(fx.is_empty(), "no fetch, no event: {fx:?}");
    assert_eq!(nodes[1].proofs_known(), 0);
    assert!(!nodes[1].is_proposable(&id));
    assert_eq!(nodes[1].stats().stored_microblocks, 0);
    // A forged proof for the retired id is still a forged proof: a proposal
    // that carries it is invalid, whatever has been forgotten.
    let forged = MicroblockRef::proven(id, ReplicaId(0), 4, QuorumProof::new(id.digest()));
    let bad = Proposal::new(
        View(3),
        3,
        BlockId::GENESIS,
        ReplicaId(2),
        Payload::Refs(vec![forged]),
        true,
    );
    let (status, _) = nodes[1].on_proposal(2_000_001, &bad, &mut rng);
    assert!(matches!(status, FillStatus::Invalid(_)));
    // A second, honest proposal naming it is ready, fetches nothing and
    // executes nothing twice.
    let again = Proposal::new(
        View(4),
        4,
        BlockId::GENESIS,
        ReplicaId(2),
        proposal.payload.clone(),
        true,
    );
    let (status, fx) = nodes[1].on_proposal(2_000_002, &again, &mut rng);
    assert_eq!(status, FillStatus::Ready);
    assert!(fx.is_empty(), "{fx:?}");
    let fx = nodes[1].on_commit(2_000_003, &again);
    assert!(matches!(
        fx.events[..],
        [MempoolEvent::Executed { tx_count: 0, .. }]
    ));
    assert_eq!(nodes[1].proofs_known(), 0);
}
