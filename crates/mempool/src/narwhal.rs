//! A Narwhal-style shared mempool: Byzantine reliable broadcast of batches
//! with availability certificates.
//!
//! Narwhal (Danezis et al., 2021) disseminates worker batches with a
//! reliable-broadcast pattern and has the consensus layer order *batch
//! certificates*.  The paper compares against Narwhal as the
//! "heavyweight" shared mempool: its availability guarantee is as strong
//! as Stratus's, but the echo/ready phases cost `O(n²)` small messages per
//! batch (Table I), which is what limits its scalability in Figure 7 when
//! primaries and workers share one machine.
//!
//! The implementation here reproduces that mechanism on our substrate:
//!
//! * the creator broadcasts the batch (`Batch`),
//! * every replica broadcasts a signed `Echo`, then — after `2f + 1`
//!   echoes — a signed `Ready`,
//! * `2f + 1` `Ready` signatures form the availability certificate that a
//!   leader embeds next to the batch id in its proposal.

use crate::api::{Effects, FillStatus, Mempool, MempoolEvent, MempoolStats, TimerTag};
use crate::dissemination::{certifiers, CertificateBook, Dissemination, Missing};
use crate::messages::NarwhalMsg;
use rand::rngs::SmallRng;
use smp_crypto::{DigestMap, DigestSet, Signature};
use smp_telemetry::Telemetry;
use smp_types::{
    Microblock, MicroblockId, MicroblockRef, Payload, Proposal, ReplicaId, SimTime, SystemConfig,
    Transaction,
};

/// Narwhal-style reliable-broadcast mempool.
#[derive(Clone, Debug)]
pub struct NarwhalMempool {
    core: Dissemination,
    /// Echo signatures per batch; `2f + 1` of them make this replica ready.
    echoes: CertificateBook,
    /// Ready signatures per batch; `2f + 1` of them are its certificate.
    readies: CertificateBook,
    ready_sent: DigestSet<MicroblockId>,
    meta: DigestMap<MicroblockId, (ReplicaId, u32, SimTime)>,
}

impl NarwhalMempool {
    /// Creates the mempool for replica `me`.
    pub fn new(config: &SystemConfig, me: ReplicaId) -> Self {
        let readies = CertificateBook::new(config.seed, config.n, me, config.consensus_quorum());
        NarwhalMempool {
            core: Dissemination::new(config, me),
            // Same keys and quorum, derived once.
            echoes: readies.clone(),
            readies,
            ready_sent: DigestSet::default(),
            meta: DigestMap::default(),
        }
    }

    /// Whether `id` is certified locally.
    pub fn is_certified(&self, id: &MicroblockId) -> bool {
        self.readies.is_certified(id)
    }

    /// Signs and counts this replica's own echo of `id`.  It never sends
    /// the ready by itself, even as the `2f + 1`-th: the next echo does.
    fn echo(&mut self, id: MicroblockId) -> Signature {
        let sig = self.echoes.sign(&id.digest());
        let _ = self.echoes.add(id, sig);
        sig
    }

    fn note_meta(&mut self, mb: &Microblock) {
        self.meta
            .insert(mb.id, (mb.creator, mb.len() as u32, mb.created_at));
    }

    fn disseminate(&mut self, mb: Microblock, effects: &mut Effects<NarwhalMsg>) {
        self.note_meta(&mb);
        self.core.hold(&mb);
        // Creator's own echo counts toward the quorum.
        self.echo(mb.id);
        effects.broadcast(NarwhalMsg::Batch(mb));
    }

    fn record_echo(
        &mut self,
        now: SimTime,
        id: MicroblockId,
        sig: Signature,
        effects: &mut Effects<NarwhalMsg>,
    ) {
        let echoed = self.echoes.add(id, sig).is_ok() && self.echoes.is_certified(&id);
        if echoed && self.ready_sent.insert(id) {
            let own_ready = self.readies.sign(&id.digest());
            effects.broadcast(NarwhalMsg::Ready { id, sig: own_ready });
            self.record_ready(now, id, own_ready, effects);
        }
    }

    fn record_ready(
        &mut self,
        now: SimTime,
        id: MicroblockId,
        sig: Signature,
        effects: &mut Effects<NarwhalMsg>,
    ) {
        // A batch becomes proposable once `2f + 1` readies certify it and
        // its data is stored.
        let Ok(Some(_)) = self.readies.add(id, sig) else {
            return;
        };
        if self.core.store().contains(&id) {
            self.core.make_proposable(id);
        }
        if let Some((creator, _, created_at)) = self.meta.get(&id) {
            if *creator == self.core.me() {
                effects.event(MempoolEvent::MicroblockStable {
                    id,
                    stable_time: now.saturating_sub(*created_at),
                });
            }
        }
    }
}

impl Mempool for NarwhalMempool {
    type Msg = NarwhalMsg;

    fn on_client_txs(
        &mut self,
        now: SimTime,
        txs: Vec<Transaction>,
        _rng: &mut SmallRng,
    ) -> Effects<NarwhalMsg> {
        let mut effects = Effects::none();
        for mb in self.core.seal_from_clients(now, txs, &mut effects) {
            self.disseminate(mb, &mut effects);
        }
        effects
    }

    fn on_message(
        &mut self,
        now: SimTime,
        from: ReplicaId,
        msg: NarwhalMsg,
        _rng: &mut SmallRng,
    ) -> Effects<NarwhalMsg> {
        let mut effects = Effects::none();
        // A straggler for a batch that executed here — a copy of it, an echo,
        // a ready, its certificate — opens no state: nothing is left to do.
        let about = match &msg {
            NarwhalMsg::Batch(mb) => Some(mb.id),
            NarwhalMsg::Echo { id, .. }
            | NarwhalMsg::Ready { id, .. }
            | NarwhalMsg::Certificate { id, .. } => Some(*id),
            NarwhalMsg::Fetch { .. } | NarwhalMsg::FetchResp { .. } => None,
        };
        if about.is_some_and(|id| self.core.is_retired(&id)) {
            return effects;
        }
        match msg {
            NarwhalMsg::Batch(mb) => {
                let id = mb.id;
                self.note_meta(&mb);
                if self.core.absorb(now, mb, &mut effects) {
                    // Echo the batch to everyone (the O(n²) step).
                    let sig = self.echo(id);
                    effects.broadcast(NarwhalMsg::Echo { id, sig });
                    if self.readies.is_certified(&id) {
                        self.core.make_proposable(id);
                    }
                }
            }
            NarwhalMsg::Echo { id, sig } => self.record_echo(now, id, sig, &mut effects),
            NarwhalMsg::Ready { id, sig } => self.record_ready(now, id, sig, &mut effects),
            NarwhalMsg::Certificate {
                id,
                creator,
                tx_count,
                proof,
            } => {
                if self.readies.verify(&id, &proof).is_ok() {
                    self.readies.hold(id, &proof);
                    self.meta.entry(id).or_insert((creator, tx_count, now));
                    if self.core.store().contains(&id) {
                        self.core.make_proposable(id);
                    }
                }
            }
            NarwhalMsg::Fetch { ids } => self.core.serve_fetch(from, &ids, &mut effects),
            NarwhalMsg::FetchResp { mbs } => self.core.absorb_fetched(now, mbs, &mut effects),
        }
        effects
    }

    fn on_timer(
        &mut self,
        now: SimTime,
        tag: TimerTag,
        _rng: &mut SmallRng,
    ) -> Effects<NarwhalMsg> {
        let mut effects = Effects::none();
        // The retire step drops the echoes, readies and metadata of every
        // batch that leaves the store.
        let (echoes, readies) = (&mut self.echoes, &mut self.readies);
        let (ready_sent, meta) = (&mut self.ready_sent, &mut self.meta);
        let sealed = self.core.on_timer(now, tag, &mut effects, |id| {
            echoes.forget(id);
            readies.forget(id);
            ready_sent.remove(id);
            meta.remove(id);
        });
        if let Some(mb) = sealed {
            self.disseminate(mb, &mut effects);
        }
        effects
    }

    fn make_payload(&mut self, _now: SimTime) -> Payload {
        let (certified, meta) = (&self.readies, &self.meta);
        self.core.drain_refs(|id, _| {
            let (creator, tx_count, _) = meta.get(&id)?;
            let proof = certified.get(&id)?.clone();
            Some(MicroblockRef::proven(id, *creator, *tx_count, proof))
        })
    }

    fn on_proposal(
        &mut self,
        now: SimTime,
        proposal: &Proposal,
        rng: &mut SmallRng,
    ) -> (FillStatus, Effects<NarwhalMsg>) {
        let mut effects = Effects::none();
        // Every reference must carry a valid certificate.  Certified
        // batches are guaranteed recoverable: consensus proceeds and the
        // data is fetched in the background from the certifiers.
        let (me, readies) = (self.core.me(), &self.readies);
        let status = self.core.fill(
            now,
            proposal,
            |refs| readies.verify_refs(refs, |_| ()),
            |missing| certifiers(missing, me, proposal.proposer, rng),
            Missing::Recoverable,
            &mut effects,
        );
        (status, effects)
    }

    fn on_commit(&mut self, now: SimTime, proposal: &Proposal) -> Effects<NarwhalMsg> {
        self.core.on_commit(now, proposal)
    }

    fn has_committed(&self, id: &MicroblockId) -> bool {
        self.core.has_committed(id)
    }

    fn stats(&self) -> MempoolStats {
        self.core.stats()
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.core.set_telemetry(telemetry);
    }
}

#[cfg(test)]
mod tests {
    // The message-routing loops below use the index both to address the
    // node array and as the replica identity.
    #![allow(clippy::needless_range_loop)]
    use super::*;
    use crate::dissemination::DEADLINE_TAG;
    use crate::fetcher::FETCH_TIMEOUT;
    use rand::SeedableRng;
    use smp_crypto::QuorumProof;
    use smp_types::{BlockId, ClientId, MempoolConfig, View};

    fn config() -> SystemConfig {
        SystemConfig::new(4).with_mempool(MempoolConfig {
            batch_size_bytes: 168 * 4,
            ..MempoolConfig::default()
        })
    }

    fn txs(n: usize) -> Vec<Transaction> {
        (0..n)
            .map(|i| Transaction::synthetic(ClientId(7), i as u64, 128, 0))
            .collect()
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(3)
    }

    /// Builds a 4-replica network of Narwhal mempools and runs reliable
    /// broadcast of one batch from replica 0 to completion, returning the
    /// mempools and the certified batch id.
    fn certify_one_batch() -> (Vec<NarwhalMempool>, MicroblockId) {
        let cfg = config();
        let mut nodes: Vec<NarwhalMempool> = (0..4)
            .map(|i| NarwhalMempool::new(&cfg, ReplicaId(i)))
            .collect();
        let mut r = rng();
        let fx = nodes[0].on_client_txs(0, txs(4), &mut r);
        let batch = fx
            .msgs
            .iter()
            .find_map(|(_, m)| match m {
                NarwhalMsg::Batch(mb) => Some(mb.clone()),
                _ => None,
            })
            .expect("batch broadcast");
        let id = batch.id;
        // Deliver the batch to 1..3, collect echoes.
        let mut echoes = Vec::new();
        for i in 1..4usize {
            let fx =
                nodes[i].on_message(10, ReplicaId(0), NarwhalMsg::Batch(batch.clone()), &mut r);
            for (_, m) in fx.msgs {
                if matches!(m, NarwhalMsg::Echo { .. }) {
                    echoes.push((ReplicaId(i as u32), m));
                }
            }
        }
        // Deliver every echo to every node, collect readies.
        let mut readies = Vec::new();
        for (from, echo) in &echoes {
            for i in 0..4usize {
                let fx = nodes[i].on_message(20, *from, echo.clone(), &mut r);
                for (_, m) in fx.msgs {
                    if matches!(m, NarwhalMsg::Ready { .. }) {
                        readies.push((ReplicaId(i as u32), m));
                    }
                }
            }
        }
        for (from, ready) in &readies {
            for i in 0..4usize {
                let _ = nodes[i].on_message(30, *from, ready.clone(), &mut r);
            }
        }
        (nodes, id)
    }

    #[test]
    fn reliable_broadcast_certifies_batches() {
        let (nodes, id) = certify_one_batch();
        for (i, node) in nodes.iter().enumerate() {
            assert!(node.is_certified(&id), "replica {i} did not certify");
        }
    }

    #[test]
    fn certified_batches_are_proposed_with_proofs() {
        let (mut nodes, _) = certify_one_batch();
        let payload = nodes[1].make_payload(100);
        match &payload {
            Payload::Refs(refs) => {
                assert_eq!(refs.len(), 1);
                assert!(refs[0].proof.is_some());
            }
            other => panic!("unexpected payload {other:?}"),
        }
        // A proposal carrying that payload passes verification everywhere
        // and does not block consensus.
        let p = Proposal::new(View(5), 1, BlockId::GENESIS, ReplicaId(1), payload, true);
        let mut r = rng();
        let (status, _) = nodes[2].on_proposal(200, &p, &mut r);
        assert_eq!(status, FillStatus::Ready);
    }

    #[test]
    fn bad_certificates_are_rejected() {
        let (mut nodes, id) = certify_one_batch();
        // Build a ref with a truncated (sub-quorum) proof.
        let weak = QuorumProof::new(id.digest());
        let p = Proposal::new(
            View(5),
            1,
            BlockId::GENESIS,
            ReplicaId(1),
            Payload::Refs(vec![MicroblockRef::proven(id, ReplicaId(0), 4, weak)]),
            true,
        );
        let mut r = rng();
        let (status, _) = nodes[2].on_proposal(200, &p, &mut r);
        assert!(matches!(status, FillStatus::Invalid(_)));
    }

    #[test]
    fn missing_certified_data_is_fetched_in_background() {
        let (mut nodes, id) = certify_one_batch();
        // Node 3 pretends it never stored the batch data.
        let payload = nodes[1].make_payload(100);
        let p = Proposal::new(View(5), 1, BlockId::GENESIS, ReplicaId(1), payload, true);
        let mut fresh = NarwhalMempool::new(&config(), ReplicaId(3));
        // Give the fresh node the certificate knowledge only.
        let cert = nodes[0].readies.get(&id).unwrap().clone();
        let mut r = rng();
        let _ = fresh.on_message(
            50,
            ReplicaId(0),
            NarwhalMsg::Certificate {
                id,
                creator: ReplicaId(0),
                tx_count: 4,
                proof: cert,
            },
            &mut r,
        );
        let (status, fx) = fresh.on_proposal(60, &p, &mut r);
        assert_eq!(status, FillStatus::Ready, "consensus is not blocked");
        assert!(fx
            .msgs
            .iter()
            .any(|(_, m)| matches!(m, NarwhalMsg::Fetch { .. })));
        assert!(fx
            .events
            .iter()
            .any(|e| matches!(e, MempoolEvent::FetchIssued { .. })));
    }

    #[test]
    fn creator_observes_stability() {
        let cfg = config();
        let mut nodes: Vec<NarwhalMempool> = (0..4)
            .map(|i| NarwhalMempool::new(&cfg, ReplicaId(i)))
            .collect();
        let mut r = rng();
        let fx = nodes[0].on_client_txs(0, txs(4), &mut r);
        let batch = match &fx.msgs[0].1 {
            NarwhalMsg::Batch(mb) => mb.clone(),
            other => panic!("unexpected {other:?}"),
        };
        // Deliver batch, echoes and readies back to node 0.
        let mut stable_seen = false;
        let mut pending: Vec<(ReplicaId, NarwhalMsg)> = Vec::new();
        for i in 1..4usize {
            let fx =
                nodes[i].on_message(10, ReplicaId(0), NarwhalMsg::Batch(batch.clone()), &mut r);
            pending.extend(fx.msgs.into_iter().map(|(_, m)| (ReplicaId(i as u32), m)));
        }
        // Two message rounds are enough to certify at the creator.
        for _ in 0..2 {
            let mut next = Vec::new();
            for (from, m) in pending.drain(..) {
                for target in 0..4usize {
                    let fx = nodes[target].on_message(20, from, m.clone(), &mut r);
                    stable_seen |= fx
                        .events
                        .iter()
                        .any(|e| matches!(e, MempoolEvent::MicroblockStable { .. }));
                    if target != from.index() {
                        next.extend(
                            fx.msgs
                                .into_iter()
                                .map(|(_, msg)| (ReplicaId(target as u32), msg)),
                        );
                    }
                }
            }
            pending = next;
        }
        assert!(
            stable_seen,
            "creator should observe stability after certification"
        );
    }

    #[test]
    fn a_retired_batch_leaves_no_echo_ready_or_meta_behind() {
        let (mut nodes, id) = certify_one_batch();
        let payload = nodes[1].make_payload(100);
        let p = Proposal::new(View(5), 1, BlockId::GENESIS, ReplicaId(1), payload, true);
        let mut r = rng();
        let node = &mut nodes[2];
        assert_eq!(node.on_proposal(200, &p, &mut r).0, FillStatus::Ready);
        let fx = node.on_commit(1_000, &p);
        assert_eq!(fx.timers, vec![(FETCH_TIMEOUT, DEADLINE_TAG)]);
        assert!(
            node.is_certified(&id) && node.meta.contains_key(&id),
            "held for δ"
        );
        let _ = node.on_timer(1_000 + FETCH_TIMEOUT, DEADLINE_TAG, &mut r);
        let gone = |n: &NarwhalMempool| {
            n.echoes.get(&id).is_none()
                && !n.is_certified(&id)
                && !n.ready_sent.contains(&id)
                && !n.meta.contains_key(&id)
                && n.stats().stored_microblocks == 0
        };
        assert!(gone(node));
        // Stragglers — the fourth echo and ready, the batch itself, its
        // certificate — are dropped: no tally, no meta, no echo, no fetch.
        let cert = nodes[0].readies.get(&id).unwrap().clone();
        let batch = nodes[0].core.store().get(&id).unwrap().clone();
        let echo = nodes[3].echoes.sign(&id.digest());
        let ready = nodes[3].readies.sign(&id.digest());
        let node = &mut nodes[2];
        for msg in [
            NarwhalMsg::Echo { id, sig: echo },
            NarwhalMsg::Ready { id, sig: ready },
            NarwhalMsg::Batch(batch),
            NarwhalMsg::Certificate {
                id,
                creator: ReplicaId(0),
                tx_count: 4,
                proof: cert,
            },
        ] {
            let fx = node.on_message(2_000_000, ReplicaId(3), msg, &mut r);
            assert!(fx.is_empty(), "{fx:?}");
        }
        assert!(gone(node));
        assert_eq!(node.make_payload(2_000_001), Payload::Empty);
    }
}
