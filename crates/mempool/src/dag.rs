//! `smp-dag`: a Mysticeti-style DAG mempool (the D-HS rows).
//!
//! The paper's Table II never runs the DAG dissemination family that
//! superseded Narwhal-style reliable broadcast.  This backend fills that
//! gap: every replica's batches form a DAG built by consistent broadcast
//! of *blocks*.  A block carries at most one freshly sealed batch (so
//! transaction bodies cross the wire once), references the latest known
//! blocks of at least `2f + 1` peers, and piggybacks signed acks for
//! every batch the emitter delivered since its previous block — there are
//! no separate vote messages.  Commit sets are derived deterministically
//! from DAG *support patterns*: a batch acknowledged by `2f + 1` distinct
//! replicas is supported, and the accumulated ack signatures form a
//! Narwhal-strength availability certificate as a by-product.
//!
//! Two modes share the same DAG ([`DagMode`]):
//!
//! * **Certified** — a batch becomes proposable only once its support
//!   pattern yields a certificate, which is embedded in the proposal
//!   reference and re-verified by every replica (Narwhal-equivalent
//!   guarantees at `O(n)` broadcasts per batch instead of the echo/ready
//!   `O(n²)`).
//! * **FastPath** — a batch is proposable on first delivery; references
//!   are unproven and replicas that miss the data must fetch it before
//!   consensus proceeds (one network hop cheaper, SMP-HS-strength
//!   availability).
//!
//! Block emission is purely message-driven and quiescent: a replica emits
//! a new block only when it holds an unsent batch or unsent acks, and a
//! non-genesis block requires the `2f + 1` parent frontier, so an idle
//! network emits nothing.

use crate::api::{Effects, FillStatus, Mempool, MempoolEvent, MempoolStats, TimerTag};
use crate::dissemination::{
    certifiers, creators_then_proposer, unproven_ref, CertificateBook, Dissemination, FetchWire,
    Missing, RETIRE_TAG,
};
use crate::fetcher::FETCH_TIMEOUT;
use rand::rngs::SmallRng;
use serde::{Deserialize, Serialize};
use smp_crypto::{Digest, DigestSet, Hasher, SecretKey, Signature};
use smp_telemetry::Telemetry;
use smp_types::{
    DagMode, Microblock, MicroblockId, MicroblockRef, Payload, Proposal, ReplicaId, SimTime,
    SystemConfig, Transaction,
};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Reference to the latest known block of a peer (DAG edge).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DagParentRef {
    /// Creator of the referenced block.
    pub creator: ReplicaId,
    /// Round of the referenced block.
    pub round: u64,
}

/// A piggybacked acknowledgement: the emitter's signature over a batch id
/// it has delivered.  `2f + 1` distinct acks certify the batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DagAck {
    /// Acknowledged batch.
    pub id: MicroblockId,
    /// Emitter's signature over the batch id.
    pub sig: Signature,
}

/// One vertex of the mempool DAG.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DagBlock {
    /// Emitting replica.
    pub creator: ReplicaId,
    /// Emission round (strictly increasing per creator; `0` is the
    /// genesis round and the only round allowed fewer than `2f + 1`
    /// parents).
    pub round: u64,
    /// Per-creator emission index: `0, 1, 2, ...` with no gaps.  Rounds
    /// may skip numbers (a block's round tracks the whole frontier), so
    /// `seq` is what lets a receiver reconstruct the creator's exact
    /// emission order regardless of delivery reordering.
    pub seq: u64,
    /// The creator's freshly sealed batch, if one was pending (bodies are
    /// shared exactly once, inside the block that introduces them).
    pub batch: Option<Microblock>,
    /// Latest known blocks of the peers (`>= 2f + 1` entries for every
    /// non-genesis block).
    pub parents: Vec<DagParentRef>,
    /// Acks piggybacked on this block (one per batch delivered since the
    /// creator's previous block, plus a self-ack for `batch`).
    pub acks: Vec<DagAck>,
    /// Creator's signature over [`DagBlock::digest`].
    pub sig: Signature,
}

impl DagBlock {
    /// Builds a block and signs its digest.
    #[allow(clippy::too_many_arguments)]
    pub fn signed(
        creator: ReplicaId,
        round: u64,
        seq: u64,
        batch: Option<Microblock>,
        parents: Vec<DagParentRef>,
        acks: Vec<DagAck>,
        secret: &SecretKey,
    ) -> Self {
        let mut block = DagBlock {
            creator,
            round,
            seq,
            batch,
            parents,
            acks,
            sig: Signature { signer: 0, tag: 0 },
        };
        block.sig = Signature::sign(secret, &block.digest());
        block
    }

    /// Content digest covering everything except the signature itself.
    pub fn digest(&self) -> Digest {
        let mut h = Hasher::with_domain(0x4441_4742); // "DAGB"
        h.update_u64(self.creator.0 as u64);
        h.update_u64(self.round);
        h.update_u64(self.seq);
        match &self.batch {
            Some(mb) => {
                h.update_u64(1);
                h.update_digest(&mb.id.0);
            }
            None => h.update_u64(0),
        }
        h.update_u64(self.parents.len() as u64);
        for p in &self.parents {
            h.update_u64(p.creator.0 as u64);
            h.update_u64(p.round);
        }
        h.update_u64(self.acks.len() as u64);
        for a in &self.acks {
            h.update_digest(&a.id.0);
            h.update_u64(a.sig.signer as u64);
            h.update_u64(a.sig.tag);
        }
        h.finalize()
    }
}

/// Messages exchanged by the DAG mempool.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum DagMsg {
    /// Consistent broadcast of a DAG block.
    Block(DagBlock),
    /// Request for missing batches.
    Fetch {
        /// Identifiers being requested.
        ids: Vec<MicroblockId>,
    },
    /// Response with the requested batches.
    FetchResp {
        /// The returned batches.
        mbs: Vec<Microblock>,
    },
}

impl FetchWire for DagMsg {
    fn fetch(ids: Vec<MicroblockId>) -> Self {
        DagMsg::Fetch { ids }
    }
    fn fetch_resp(mbs: Vec<Microblock>) -> Self {
        DagMsg::FetchResp { mbs }
    }
}

/// Mysticeti-style DAG mempool.
#[derive(Clone, Debug)]
pub struct DagMempool {
    core: Dissemination,
    /// Support patterns: ack signatures per batch, a certificate at `2f + 1`.
    support: CertificateBook,
    mode: DagMode,
    /// Sealed batches waiting for a block slot.
    pending_batches: VecDeque<Microblock>,
    /// Delivered batches to ack on the next emitted block (insertion
    /// order; each id enters at most once, guarded by `my_acked`).
    unacked: Vec<MicroblockId>,
    my_acked: DigestSet<MicroblockId>,
    /// Per-creator emission ledgers.  Batches enter the proposal queue in
    /// their creator's emission (`seq`) order, never in arrival or
    /// certification-completion order: both transports reorder messages
    /// (the simulator adds per-message propagation jitter, and ack
    /// groupings differ between runtimes), so `seq` is the only order
    /// every replica can reconstruct identically — this is what keeps
    /// the socket commit sequence byte-identical to the simulator's.
    ledgers: HashMap<ReplicaId, CreatorLedger>,
    /// Digests of the blocks accepted during the last `δ` (duplicate
    /// suppression that stays correct across crash-restart re-emissions),
    /// and the same digests in acceptance order.  Accepting a block twice
    /// changes nothing — its batch is held or retired, its `seq` noted, its
    /// acks counted — so forgetting a digest after `δ` costs a replayed
    /// block's signature check, not correctness.
    seen: DigestSet<Digest>,
    seen_order: VecDeque<(SimTime, Digest)>,
    /// Latest known round per creator — the parent frontier.  A `BTreeMap`
    /// so parent lists are deterministically ordered.
    latest: BTreeMap<ReplicaId, u64>,
    emitted: bool,
    /// Next `seq` to stamp on an own emission.
    my_seq: u64,
    blocks_out: u64,
}

/// How far past a creator's next expected `seq` a block is still buffered.
/// Delivery jitter reorders a creator's blocks by a handful of positions;
/// this is two orders of magnitude above that and bounds each ledger's
/// look-ahead at a few kilobytes.
const AHEAD_WINDOW: u64 = 1_024;

/// Receiver-side view of one creator's emission sequence: blocks are noted
/// by `seq`, buffered while out of order, and their batches released to
/// the proposal queue strictly in emission order.
#[derive(Clone, Debug, Default)]
struct CreatorLedger {
    /// Next emission index expected from this creator.
    next: u64,
    /// Blocks seen ahead of `next`: `seq -> batch id` (`None` for
    /// batch-less ack blocks).
    ahead: BTreeMap<u64, Option<MicroblockId>>,
    /// Batch ids in emission order, awaiting release eligibility.
    ready: VecDeque<MicroblockId>,
}

impl DagMempool {
    /// Creates the mempool for replica `me` in the certified mode.
    pub fn new(config: &SystemConfig, me: ReplicaId) -> Self {
        Self::with_mode(config, me, DagMode::Certified)
    }

    /// Creates the mempool with an explicit commit-derivation mode.
    pub fn with_mode(config: &SystemConfig, me: ReplicaId, mode: DagMode) -> Self {
        DagMempool {
            core: Dissemination::new(config, me),
            support: CertificateBook::new(config.seed, config.n, me, config.consensus_quorum()),
            mode,
            pending_batches: VecDeque::new(),
            unacked: Vec::new(),
            ledgers: HashMap::new(),
            my_seq: 0,
            my_acked: DigestSet::default(),
            seen: DigestSet::default(),
            seen_order: VecDeque::new(),
            latest: BTreeMap::new(),
            emitted: false,
            blocks_out: 0,
        }
    }

    /// The configured commit-derivation mode.
    pub fn mode(&self) -> DagMode {
        self.mode
    }

    /// The retire step: drops the acks and certificate of every batch that
    /// left the store.
    fn retire(&mut self, now: SimTime, effects: &mut Effects<DagMsg>) {
        let (support, my_acked) = (&mut self.support, &mut self.my_acked);
        self.core.retire(now, effects, |id| {
            support.forget(id);
            my_acked.remove(id);
        });
    }

    /// Whether `id`'s support pattern reached `2f + 1` locally.
    pub fn is_certified(&self, id: &MicroblockId) -> bool {
        self.support.is_certified(id)
    }

    /// The round of this replica's latest emitted block.
    pub fn current_round(&self) -> Option<u64> {
        self.latest.get(&self.core.me()).copied()
    }

    /// Notes one accepted block in its creator's ledger and advances the
    /// in-order prefix.  A `seq` below the cursor (a crash-restarted
    /// creator re-emitting from zero) is ignored here: its batches still
    /// store, certify, and commit through peers' proposals — they just
    /// stop entering this replica's own proposal queue.  The same holds for
    /// a `seq` [`AHEAD_WINDOW`] or more past the cursor, which is not
    /// buffered: a creator cannot park entries here by naming far-future
    /// indices, and an honest one that far past a gap is waiting for block
    /// sync either way.
    fn note_block(&mut self, creator: ReplicaId, seq: u64, batch: Option<MicroblockId>) {
        let ledger = self.ledgers.entry(creator).or_default();
        if seq < ledger.next {
            return;
        }
        if seq - ledger.next >= AHEAD_WINDOW {
            self.core.telemetry().counter_inc("dag.ahead_dropped");
            return;
        }
        // An equivocating creator's second block for a `seq` does not
        // replace the first: its batch is stored and acked like any other,
        // but it cannot choose which one this replica releases.
        ledger.ahead.entry(seq).or_insert(batch);
        while let Some(batch) = ledger.ahead.remove(&ledger.next) {
            if let Some(id) = batch {
                ledger.ready.push_back(id);
            }
            ledger.next += 1;
        }
        self.release_in_order(creator);
    }

    /// Moves the creator's eligible batches from its ledger into the
    /// proposal queue, strictly in emission order.  Eligibility is
    /// mode-dependent: Certified waits for the support certificate,
    /// FastPath only for the stored body.
    fn release_in_order(&mut self, creator: ReplicaId) {
        let Some(ledger) = self.ledgers.get_mut(&creator) else {
            return;
        };
        while let Some(id) = ledger.ready.front() {
            // Committed through a peer's proposal before it was eligible
            // here: nothing left to release, and nothing behind it waits.
            if self.core.is_retired(id) {
                ledger.ready.pop_front();
                continue;
            }
            if !self.core.store().contains(id) {
                break;
            }
            if self.mode == DagMode::Certified && !self.support.is_certified(id) {
                break;
            }
            let id = *id;
            ledger.ready.pop_front();
            self.core.make_proposable(id);
        }
    }

    /// Remembers an accepted block's digest for `δ`.
    fn note_seen(&mut self, now: SimTime, digest: Digest) {
        while let Some((at, old)) = self.seen_order.front() {
            if at + FETCH_TIMEOUT > now {
                break;
            }
            self.seen.remove(old);
            self.seen_order.pop_front();
        }
        self.seen.insert(digest);
        self.seen_order.push_back((now, digest));
    }

    fn ingest_payload(&mut self, now: SimTime, mb: Microblock, effects: &mut Effects<DagMsg>) {
        let id = mb.id;
        if !self.core.absorb(now, mb, effects) {
            return;
        }
        self.core.telemetry().counter_inc("dag.payload_in");
        if self.my_acked.insert(id) {
            self.unacked.push(id);
        }
    }

    fn record_ack(
        &mut self,
        now: SimTime,
        id: MicroblockId,
        sig: Signature,
        effects: &mut Effects<DagMsg>,
    ) {
        // A straggler for a batch that executed: no tally is opened for it.
        if self.core.is_retired(&id) {
            return;
        }
        let Ok(Some(_)) = self.support.add(id, sig) else {
            return;
        };
        self.core.telemetry().counter_inc("dag.certified");
        // Certificates that overtake their batch wait in the ledger.
        let Some(mb) = self.core.store().get(&id) else {
            return;
        };
        let (creator, created_at) = (mb.creator, mb.created_at);
        if self.mode == DagMode::Certified {
            self.release_in_order(creator);
        }
        if creator == self.core.me() {
            let latency = now.saturating_sub(created_at);
            self.core
                .telemetry()
                .observe_us("dag.commit.latency", latency);
            effects.event(MempoolEvent::MicroblockStable {
                id,
                stable_time: latency,
            });
        }
    }

    fn accept_block(&mut self, now: SimTime, block: DagBlock, effects: &mut Effects<DagMsg>) {
        let digest = block.digest();
        if self.seen.contains(&digest) {
            return;
        }
        // A creator outside the replica set has no key: nothing it signs
        // may enter the frontier or open a ledger.
        let keys = self.support.keys();
        let Some(key) = keys.get(block.creator.index()) else {
            return;
        };
        if !block.sig.verify(key, &digest) {
            return;
        }
        // Only the genesis round may reference fewer than 2f + 1 parents,
        // counted as distinct creators inside the replica set.
        if block.round > 0 {
            let mut named = vec![false; keys.len()];
            let distinct = block
                .parents
                .iter()
                .filter(|p| {
                    let slot = named.get_mut(p.creator.index());
                    slot.is_some_and(|seen| !std::mem::replace(seen, true))
                })
                .count();
            if distinct < self.support.quorum() {
                return;
            }
        }
        // A block may only introduce its own creator's batch.
        if let Some(mb) = &block.batch {
            if mb.creator != block.creator {
                return;
            }
        }
        self.note_seen(now, digest);
        let frontier = self.latest.entry(block.creator).or_insert(block.round);
        *frontier = (*frontier).max(block.round);
        self.core.telemetry().counter_inc("dag.block_in");
        let batch_id = block.batch.as_ref().map(|mb| mb.id);
        if let Some(mb) = block.batch {
            self.ingest_payload(now, mb, effects);
        }
        self.note_block(block.creator, block.seq, batch_id);
        for ack in block.acks {
            self.record_ack(now, ack.id, ack.sig, effects);
        }
        self.maybe_emit(now, effects);
    }

    /// Emits blocks while there is something to say (an unsent batch or
    /// unsent acks) and the DAG frontier permits a new round.
    fn maybe_emit(&mut self, now: SimTime, effects: &mut Effects<DagMsg>) {
        loop {
            if self.pending_batches.is_empty() && self.unacked.is_empty() {
                return;
            }
            let round = if self.latest.len() >= self.support.quorum() {
                1 + self
                    .latest
                    .values()
                    .copied()
                    .max()
                    .expect("frontier is non-empty")
            } else if !self.emitted {
                // Genesis: nothing to reference yet, so the parent-quorum
                // rule is waived for a replica's first block.
                0
            } else {
                // Frontier too thin to advance; the batch/acks stay queued
                // until more peers have blocks.
                return;
            };
            let _span = self.core.telemetry().span_at("dag.emit", now);
            let batch = self.pending_batches.pop_front();
            let mut acks: Vec<DagAck> = Vec::with_capacity(self.unacked.len() + 1);
            for id in self.unacked.drain(..) {
                acks.push(DagAck {
                    id,
                    sig: self.support.sign(&id.digest()),
                });
            }
            if let Some(mb) = &batch {
                // Self-ack for the batch this block introduces.
                self.my_acked.insert(mb.id);
                acks.push(DagAck {
                    id: mb.id,
                    sig: self.support.sign(&mb.id.digest()),
                });
            }
            let parents: Vec<DagParentRef> = self
                .latest
                .iter()
                .map(|(c, r)| DagParentRef {
                    creator: *c,
                    round: *r,
                })
                .collect();
            let seq = self.my_seq;
            self.my_seq += 1;
            // Built and signed inline so the digest is computed once and
            // reused for duplicate suppression below.
            let me = self.core.me();
            let mut block = DagBlock {
                creator: me,
                round,
                seq,
                batch,
                parents,
                acks,
                sig: Signature { signer: 0, tag: 0 },
            };
            let digest = block.digest();
            block.sig = self.support.sign(&digest);
            self.emitted = true;
            self.blocks_out += 1;
            self.note_seen(now, digest);
            let frontier = self.latest.entry(me).or_insert(round);
            *frontier = (*frontier).max(round);
            self.core.telemetry().counter_inc("dag.block_out");
            self.core.telemetry().gauge_set("dag.round", round as f64);
            if let Some(mb) = block.batch.clone() {
                self.ingest_payload(now, mb, effects);
            }
            self.note_block(me, seq, block.batch.as_ref().map(|mb| mb.id));
            for ack in block.acks.clone() {
                self.record_ack(now, ack.id, ack.sig, effects);
            }
            effects.broadcast(DagMsg::Block(block));
        }
    }
}

impl Mempool for DagMempool {
    type Msg = DagMsg;

    fn on_client_txs(
        &mut self,
        now: SimTime,
        txs: Vec<Transaction>,
        _rng: &mut SmallRng,
    ) -> Effects<DagMsg> {
        let mut effects = Effects::none();
        let sealed = self.core.seal_from_clients(now, txs, &mut effects);
        self.pending_batches.extend(sealed);
        self.maybe_emit(now, &mut effects);
        effects
    }

    fn on_message(
        &mut self,
        now: SimTime,
        from: ReplicaId,
        msg: DagMsg,
        _rng: &mut SmallRng,
    ) -> Effects<DagMsg> {
        let mut effects = Effects::none();
        match msg {
            DagMsg::Block(block) => self.accept_block(now, block, &mut effects),
            DagMsg::Fetch { ids } => self.core.serve_fetch(from, &ids, &mut effects),
            // Fetched batches are acked like delivered ones.
            DagMsg::FetchResp { mbs } => {
                for mb in mbs {
                    self.ingest_payload(now, mb, &mut effects);
                }
                self.maybe_emit(now, &mut effects);
            }
        }
        effects
    }

    fn on_timer(&mut self, now: SimTime, tag: TimerTag, _rng: &mut SmallRng) -> Effects<DagMsg> {
        let mut effects = Effects::none();
        if tag == RETIRE_TAG {
            self.retire(now, &mut effects);
        } else if let Some(mb) = self.core.on_timer(now, tag, &mut effects) {
            self.pending_batches.push_back(mb);
            self.maybe_emit(now, &mut effects);
        }
        effects
    }

    fn make_payload(&mut self, now: SimTime) -> Payload {
        let _span = self.core.telemetry().span_at("dag.make_payload", now);
        let (mode, certified) = (self.mode, &self.support);
        let payload = self.core.drain_refs(|id, store| match mode {
            DagMode::Certified => {
                let mb = store.get(&id)?;
                let proof = certified.get(&id)?.clone();
                Some(MicroblockRef::proven(
                    id,
                    mb.creator,
                    mb.len() as u32,
                    proof,
                ))
            }
            DagMode::FastPath => unproven_ref(id, store),
        });
        let refs = payload.ref_count() as u64;
        self.core.telemetry().counter_add("dag.refs", refs);
        payload
    }

    fn on_proposal(
        &mut self,
        _now: SimTime,
        proposal: &Proposal,
        rng: &mut SmallRng,
    ) -> (FillStatus, Effects<DagMsg>) {
        let mut effects = Effects::none();
        let (me, proposer) = (self.core.me(), proposal.proposer);
        let support = &self.support;
        let status = match self.mode {
            // Every reference must carry a valid support certificate.
            // Supported batches are recoverable from their ackers:
            // consensus proceeds and the data arrives in the background.
            DagMode::Certified => self.core.fill(
                proposal,
                |refs| support.verify_refs(refs, |_| ()),
                |missing| certifiers(missing, me, proposer, rng),
                Missing::Recoverable,
                &mut effects,
            ),
            // Unproven references: consensus waits for the data, fetched
            // from the creators first, then the proposer.
            DagMode::FastPath => self.core.fill(
                proposal,
                |_| Ok(()),
                |missing| creators_then_proposer(missing, proposer),
                Missing::Blocks,
                &mut effects,
            ),
        };
        (status, effects)
    }

    fn on_commit(&mut self, now: SimTime, proposal: &Proposal) -> Effects<DagMsg> {
        self.core.on_commit(now, proposal)
    }

    fn stats(&self) -> MempoolStats {
        MempoolStats {
            forwarded_microblocks: self.blocks_out,
            ..self.core.stats()
        }
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
    use crate::api::Dest;
    use rand::SeedableRng;
    use smp_crypto::{KeyPair, QuorumProof};
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

    fn nodes(mode: DagMode) -> Vec<DagMempool> {
        let cfg = config();
        (0..4)
            .map(|i| DagMempool::with_mode(&cfg, ReplicaId(i), mode))
            .collect()
    }

    /// Delivers every broadcast/multicast/send in `pending` to its targets,
    /// collecting newly produced messages, until the network is quiescent.
    /// Returns all events observed along the way, tagged with the observer.
    fn pump(
        net: &mut [DagMempool],
        mut pending: Vec<(ReplicaId, Dest, DagMsg)>,
        now: SimTime,
    ) -> Vec<(ReplicaId, MempoolEvent)> {
        let mut r = rng();
        let mut events = Vec::new();
        let mut rounds = 0;
        while !pending.is_empty() {
            rounds += 1;
            assert!(rounds < 64, "network failed to quiesce");
            let mut next = Vec::new();
            for (from, dest, msg) in pending.drain(..) {
                let targets: Vec<usize> = match &dest {
                    Dest::One(t) => vec![t.index()],
                    Dest::AllButSelf => (0..net.len()).filter(|i| *i != from.index()).collect(),
                    Dest::Many(ts) => ts.iter().map(|t| t.index()).collect(),
                };
                for t in targets {
                    let fx = net[t].on_message(now, from, msg.clone(), &mut r);
                    let me = ReplicaId(t as u32);
                    events.extend(fx.events.into_iter().map(|e| (me, e)));
                    next.extend(fx.msgs.into_iter().map(|(d, m)| (me, d, m)));
                }
            }
            pending = next;
        }
        events
    }

    /// Seals one batch at replica 0 and runs the DAG to quiescence,
    /// returning the network, the batch id, and all observed events.
    fn one_batch(
        mode: DagMode,
    ) -> (
        Vec<DagMempool>,
        MicroblockId,
        Vec<(ReplicaId, MempoolEvent)>,
    ) {
        let mut net = nodes(mode);
        let mut r = rng();
        let fx = net[0].on_client_txs(0, txs(4), &mut r);
        let block = fx
            .msgs
            .iter()
            .find_map(|(_, m)| match m {
                DagMsg::Block(b) => Some(b.clone()),
                _ => None,
            })
            .expect("block broadcast");
        let id = block.batch.as_ref().expect("batch rides the block").id;
        let pending = fx
            .msgs
            .into_iter()
            .map(|(d, m)| (ReplicaId(0), d, m))
            .collect();
        let events = pump(&mut net, pending, 10);
        (net, id, events)
    }

    #[test]
    fn support_pattern_certifies_in_one_ack_round() {
        let (net, id, events) = one_batch(DagMode::Certified);
        for (i, node) in net.iter().enumerate() {
            assert!(node.is_certified(&id), "replica {i} did not certify");
        }
        // The creator observes stability of its own batch.
        assert!(events.iter().any(|(who, e)| *who == ReplicaId(0)
            && matches!(e, MempoolEvent::MicroblockStable { id: sid, .. } if *sid == id)));
    }

    #[test]
    fn quiescent_after_certification() {
        let (mut net, _, _) = one_batch(DagMode::Certified);
        // Re-delivering any stored block is a duplicate: no node says
        // anything new, proving emissions terminate with the workload.
        let mut r = rng();
        for i in 0..4usize {
            let stats = net[i].stats();
            assert!(stats.proposable_microblocks <= 1);
            let fx = net[i].on_client_txs(1000, vec![], &mut r);
            assert!(fx.msgs.is_empty(), "replica {i} kept talking");
        }
    }

    #[test]
    fn certified_batches_are_proposed_with_proofs() {
        let (mut net, _, _) = one_batch(DagMode::Certified);
        let payload = net[1].make_payload(100);
        match &payload {
            Payload::Refs(refs) => {
                assert_eq!(refs.len(), 1);
                assert!(refs[0].proof.is_some());
            }
            other => panic!("unexpected payload {other:?}"),
        }
        let p = Proposal::new(View(5), 1, BlockId::GENESIS, ReplicaId(1), payload, true);
        let mut r = rng();
        let (status, _) = net[2].on_proposal(200, &p, &mut r);
        assert_eq!(status, FillStatus::Ready);
    }

    #[test]
    fn fast_path_proposes_on_first_delivery_without_proofs() {
        let cfg = config();
        let mut a = DagMempool::with_mode(&cfg, ReplicaId(0), DagMode::FastPath);
        let mut b = DagMempool::with_mode(&cfg, ReplicaId(1), DagMode::FastPath);
        let mut r = rng();
        let fx = a.on_client_txs(0, txs(4), &mut r);
        let block = match &fx.msgs[0].1 {
            DagMsg::Block(bl) => bl.clone(),
            other => panic!("unexpected {other:?}"),
        };
        // One delivery, no acks yet: already proposable, ref unproven.
        let _ = b.on_message(5, ReplicaId(0), DagMsg::Block(block), &mut r);
        let payload = b.make_payload(10);
        match &payload {
            Payload::Refs(refs) => {
                assert_eq!(refs.len(), 1);
                assert!(refs[0].proof.is_none());
            }
            other => panic!("unexpected payload {other:?}"),
        }
    }

    #[test]
    fn fast_path_missing_data_blocks_until_fetched() {
        let cfg = config();
        let mut a = DagMempool::with_mode(&cfg, ReplicaId(0), DagMode::FastPath);
        let mut fresh = DagMempool::with_mode(&cfg, ReplicaId(3), DagMode::FastPath);
        let mut r = rng();
        let _ = a.on_client_txs(0, txs(4), &mut r);
        let p = Proposal::new(
            View(2),
            1,
            BlockId::GENESIS,
            ReplicaId(5),
            a.make_payload(1),
            true,
        );
        let (status, fx) = fresh.on_proposal(5, &p, &mut r);
        assert!(matches!(status, FillStatus::MustWait(_)));
        // First fetch target is the creator (replica 0), not the proposer.
        match &fx.msgs[0] {
            (Dest::One(target), DagMsg::Fetch { .. }) => assert_eq!(*target, ReplicaId(0)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn certified_mode_rejects_bad_certificates() {
        let (mut net, id, _) = one_batch(DagMode::Certified);
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
        let (status, _) = net[2].on_proposal(200, &p, &mut r);
        assert!(matches!(status, FillStatus::Invalid(_)));
        let unproven = Proposal::new(
            View(6),
            1,
            BlockId::GENESIS,
            ReplicaId(1),
            Payload::Refs(vec![MicroblockRef::unproven(id, ReplicaId(0), 4)]),
            true,
        );
        let (status, _) = net[2].on_proposal(210, &unproven, &mut r);
        assert!(matches!(status, FillStatus::Invalid(_)));
    }

    #[test]
    fn missing_certified_data_is_fetched_in_background() {
        let (mut net, _, _) = one_batch(DagMode::Certified);
        let payload = net[1].make_payload(100);
        let p = Proposal::new(View(5), 1, BlockId::GENESIS, ReplicaId(1), payload, true);
        // A fresh node knows nothing but can still verify the embedded
        // certificate and fetch the data from its signers.
        let mut fresh = DagMempool::new(&config(), ReplicaId(3));
        let mut r = rng();
        let (status, fx) = fresh.on_proposal(60, &p, &mut r);
        assert_eq!(status, FillStatus::Ready, "consensus is not blocked");
        assert!(fx
            .msgs
            .iter()
            .any(|(_, m)| matches!(m, DagMsg::Fetch { .. })));
        assert!(fx
            .events
            .iter()
            .any(|e| matches!(e, MempoolEvent::FetchIssued { .. })));
    }

    #[test]
    fn blocks_with_bad_signatures_are_dropped() {
        let cfg = config();
        let mut a = DagMempool::new(&cfg, ReplicaId(0));
        let mut b = DagMempool::new(&cfg, ReplicaId(1));
        let mut r = rng();
        let fx = a.on_client_txs(0, txs(4), &mut r);
        let mut block = match &fx.msgs[0].1 {
            DagMsg::Block(bl) => bl.clone(),
            other => panic!("unexpected {other:?}"),
        };
        block.round = 7; // tamper: digest no longer matches the signature
        let _ = b.on_message(5, ReplicaId(0), DagMsg::Block(block), &mut r);
        assert_eq!(b.stats().stored_microblocks, 0);
    }

    #[test]
    fn non_genesis_blocks_require_a_parent_quorum() {
        let cfg = config();
        let keys = KeyPair::derive_all(cfg.seed, cfg.n);
        let mut b = DagMempool::new(&cfg, ReplicaId(1));
        let mb = Microblock::seal(ReplicaId(0), txs(4), 0);
        let thin = DagBlock::signed(
            ReplicaId(0),
            3,
            1,
            Some(mb),
            vec![DagParentRef {
                creator: ReplicaId(0),
                round: 2,
            }],
            vec![],
            &keys[0].secret,
        );
        let mut r = rng();
        let _ = b.on_message(5, ReplicaId(0), DagMsg::Block(thin), &mut r);
        assert_eq!(b.stats().stored_microblocks, 0, "thin block accepted");
    }

    #[test]
    fn blocks_from_outside_the_replica_set_or_with_repeated_parents_are_dropped() {
        let cfg = config();
        let keys = KeyPair::derive_all(cfg.seed, cfg.n);
        let parent = |creator: u32| DagParentRef {
            creator: ReplicaId(creator),
            round: 0,
        };
        let mut r = rng();
        // Replica 1 signs genesis blocks in the name of creators 5, 9 and
        // 13, which share its key index modulo n.
        let mut b = DagMempool::new(&cfg, ReplicaId(0));
        for creator in [5u32, 9, 13] {
            let mb = Microblock::seal(ReplicaId(creator), txs(4), 0);
            let forged = DagBlock::signed(
                ReplicaId(creator),
                0,
                0,
                Some(mb),
                vec![],
                vec![],
                &keys[1].secret,
            );
            let _ = b.on_message(5, ReplicaId(1), DagMsg::Block(forged), &mut r);
        }
        assert!(
            b.latest.keys().all(|c| c.index() < cfg.n),
            "frontier holds invented creators: {:?}",
            b.latest
        );
        assert!(b.ledgers.keys().all(|c| c.index() < cfg.n));
        assert_eq!(b.stats().stored_microblocks, 0);
        // Round-1 blocks whose parent lists reach three entries only by
        // repeating a creator or naming one outside the replica set.
        for (seq, parents) in [
            (1, vec![parent(1), parent(1), parent(1)]),
            (2, vec![parent(1), parent(5), parent(9)]),
        ] {
            let mut fresh = DagMempool::new(&cfg, ReplicaId(2));
            let mb = Microblock::seal(ReplicaId(1), txs(4), seq);
            let block = DagBlock::signed(
                ReplicaId(1),
                1,
                seq,
                Some(mb),
                parents,
                vec![],
                &keys[1].secret,
            );
            let _ = fresh.on_message(5, ReplicaId(1), DagMsg::Block(block), &mut r);
            assert_eq!(fresh.stats().stored_microblocks, 0, "thin block accepted");
        }
    }

    #[test]
    fn rounds_advance_and_reference_the_frontier() {
        let (mut net, _, _) = one_batch(DagMode::Certified);
        let first_round = net[0].current_round().expect("emitted");
        let mut r = rng();
        let fx = net[0].on_client_txs(500, txs(4), &mut r);
        let block = fx
            .msgs
            .iter()
            .find_map(|(_, m)| match m {
                DagMsg::Block(b) => Some(b.clone()),
                _ => None,
            })
            .expect("second batch emits a block");
        assert!(block.round > first_round);
        assert!(block.parents.len() >= 3, "frontier references 2f+1 peers");
        let pending = fx
            .msgs
            .into_iter()
            .map(|(d, m)| (ReplicaId(0), d, m))
            .collect();
        let _ = pump(&mut net, pending, 510);
        let id = block.batch.expect("batch rides the block").id;
        for (i, node) in net.iter().enumerate() {
            assert!(node.is_certified(&id), "replica {i} did not certify");
        }
    }

    #[test]
    fn duplicate_blocks_and_acks_do_not_double_count() {
        let cfg = config();
        let mut net = nodes(DagMode::Certified);
        let mut r = rng();
        let fx = net[0].on_client_txs(0, txs(4), &mut r);
        let block = match &fx.msgs[0].1 {
            DagMsg::Block(bl) => bl.clone(),
            other => panic!("unexpected {other:?}"),
        };
        let id = block.batch.as_ref().unwrap().id;
        let fx1 = net[1].on_message(10, ReplicaId(0), DagMsg::Block(block.clone()), &mut r);
        let ack_block = match &fx1.msgs[0].1 {
            DagMsg::Block(bl) => bl.clone(),
            other => panic!("unexpected {other:?}"),
        };
        // Replica 3 sees the creator's self-ack and adds its own on its
        // genesis block: two of three needed.
        let _ = net[3].on_message(20, ReplicaId(0), DagMsg::Block(block.clone()), &mut r);
        assert!(!net[3].is_certified(&id));
        // Duplicate block deliveries are suppressed outright and add no
        // support.
        for _ in 0..3 {
            let fx = net[3].on_message(21, ReplicaId(0), DagMsg::Block(block.clone()), &mut r);
            assert!(fx.msgs.is_empty(), "duplicate block re-processed");
        }
        assert!(!net[3].is_certified(&id), "duplicate acks counted twice");
        // One genuine third ack reaches quorum; replaying it adds nothing.
        for _ in 0..3 {
            let _ = net[3].on_message(22, ReplicaId(1), DagMsg::Block(ack_block.clone()), &mut r);
        }
        assert!(net[3].is_certified(&id));
        assert_eq!(net[3].support.get(&id).unwrap().signers().len(), 3);
        let _ = cfg;
    }

    #[test]
    fn a_far_future_seq_is_not_parked_and_the_honest_sequence_still_releases() {
        let cfg = config();
        let keys = KeyPair::derive_all(cfg.seed, cfg.n);
        let telemetry = Telemetry::new();
        let mut b = DagMempool::with_mode(&cfg, ReplicaId(1), DagMode::FastPath);
        b.set_telemetry(telemetry.clone());
        let mut r = rng();
        // Replica 0 is hostile: well-formed, signed genesis-round blocks
        // whose `seq` starts a million past anything it ever emitted.
        let hostile = |seq: u64| {
            let mb = Microblock::seal(ReplicaId(0), txs(1 + seq as usize % 3), seq);
            DagBlock::signed(
                ReplicaId(0),
                0,
                seq,
                Some(mb),
                vec![],
                vec![],
                &keys[0].secret,
            )
        };
        for seq in 1_000_000..1_000_200 {
            let _ = b.on_message(5, ReplicaId(0), DagMsg::Block(hostile(seq)), &mut r);
        }
        let ledger = &b.ledgers[&ReplicaId(0)];
        assert!(ledger.ahead.is_empty() && ledger.next == 0);
        let dropped = telemetry.snapshot().counter("dag.ahead_dropped");
        assert_eq!(dropped, Some(200));
        assert_eq!(b.stats().proposable_microblocks, 0);
        // Inside the window blocks are buffered as before, and the in-order
        // prefix releases when `seq` 0 arrives.
        for seq in [2, 1, AHEAD_WINDOW - 1, AHEAD_WINDOW] {
            let _ = b.on_message(6, ReplicaId(0), DagMsg::Block(hostile(seq)), &mut r);
        }
        assert_eq!(b.ledgers[&ReplicaId(0)].ahead.len(), 3);
        let _ = b.on_message(7, ReplicaId(0), DagMsg::Block(hostile(0)), &mut r);
        let ledger = &b.ledgers[&ReplicaId(0)];
        assert_eq!((ledger.next, ledger.ahead.len()), (3, 1));
        assert_eq!(b.stats().proposable_microblocks, 3);
    }

    #[test]
    fn an_equivocating_creator_cannot_swap_the_batch_it_released() {
        let cfg = config();
        let keys = KeyPair::derive_all(cfg.seed, cfg.n);
        let mut node = DagMempool::with_mode(&cfg, ReplicaId(1), DagMode::FastPath);
        let mut r = rng();
        // Replica 0 signs two genesis-round blocks for `seq` 1, carrying
        // batches A and B, before its `seq` 0 arrives.
        let block = |seq: u64, batch: Option<Microblock>| {
            DagBlock::signed(ReplicaId(0), 0, seq, batch, vec![], vec![], &keys[0].secret)
        };
        let a = Microblock::seal(ReplicaId(0), txs(1), 1);
        let b = Microblock::seal(ReplicaId(0), txs(2), 1);
        for blk in [block(1, Some(a.clone())), block(1, Some(b)), block(0, None)] {
            let _ = node.on_message(5, ReplicaId(0), DagMsg::Block(blk), &mut r);
        }
        assert_eq!(node.stats().stored_microblocks, 2, "both batches are held");
        match node.make_payload(10) {
            Payload::Refs(refs) => {
                let ids: Vec<MicroblockId> = refs.iter().map(|r| r.id).collect();
                assert_eq!(ids, vec![a.id], "the first block for seq 1 is released");
            }
            other => panic!("unexpected payload {other:?}"),
        }
    }

    #[test]
    fn an_ack_whose_tag_is_not_its_signers_opens_no_certificate() {
        let cfg = config();
        let keys = KeyPair::derive_all(cfg.seed, cfg.n);
        let mut b = DagMempool::new(&cfg, ReplicaId(3));
        let mut r = rng();
        // Creator 0's batch with its self-ack; replica 3 adds its own: two of
        // the three signatures a certificate takes.
        let mb = Microblock::seal(ReplicaId(0), txs(4), 0);
        let ack = |signer: usize| DagAck {
            id: mb.id,
            sig: Signature::sign(&keys[signer].secret, &mb.id.digest()),
        };
        let genesis = |creator: usize, batch, acks| {
            DagBlock::signed(
                ReplicaId(creator as u32),
                0,
                0,
                batch,
                vec![],
                acks,
                &keys[creator].secret,
            )
        };
        let first = genesis(0, Some(mb.clone()), vec![ack(0)]);
        let _ = b.on_message(5, ReplicaId(0), DagMsg::Block(first), &mut r);
        assert!(!b.is_certified(&mb.id));
        // Replica 2 signs a valid block carrying an ack that claims replica
        // 1 as its signer but bears replica 2's tag.
        let mut forged = ack(2);
        forged.sig.signer = 1;
        let _ = b.on_message(
            6,
            ReplicaId(2),
            DagMsg::Block(genesis(2, None, vec![forged])),
            &mut r,
        );
        assert!(!b.is_certified(&mb.id), "a forged ack counted");
        // Replica 1's genuine ack is the third signature, not a repeat.
        let _ = b.on_message(
            7,
            ReplicaId(1),
            DagMsg::Block(genesis(1, None, vec![ack(1)])),
            &mut r,
        );
        assert!(b.is_certified(&mb.id));
        assert_eq!(b.support.get(&mb.id).unwrap().signers(), vec![0, 1, 3]);
    }

    fn commit_refs(node: &mut DagMempool, now: SimTime, view: u64, payload: Payload) {
        let p = Proposal::new(
            View(view),
            view,
            BlockId::GENESIS,
            ReplicaId(1),
            payload,
            true,
        );
        let _ = node.on_commit(now, &p);
    }

    fn retire(node: &mut DagMempool, now: SimTime) {
        let _ = node.on_timer(now, RETIRE_TAG, &mut rng());
    }

    #[test]
    fn a_retired_batch_leaves_no_support_behind_and_does_not_block_its_creator() {
        let (mut net, id, _) = one_batch(DagMode::Certified);
        let mut r = rng();
        let payload = net[1].make_payload(100);
        assert_eq!(payload.ref_count(), 1);
        // Replica 3 executes the batch through replica 1's proposal, and
        // retires it one fetch timeout later.
        commit_refs(&mut net[3], 1_000, 1, payload);
        assert!(net[3].is_certified(&id), "held for δ");
        retire(&mut net[3], 1_000 + FETCH_TIMEOUT);
        assert!(!net[3].is_certified(&id) && !net[3].my_acked.contains(&id));
        assert_eq!(net[3].stats().stored_microblocks, 0);
        // A straggler ack for it — replica 2's, in a block replica 3 had not
        // seen — opens no tally; the block itself is accepted as ever.
        let keys = KeyPair::derive_all(config().seed, 4);
        let sig = Signature::sign(&keys[2].secret, &id.digest());
        let late = DagBlock::signed(
            ReplicaId(2),
            0,
            7,
            None,
            vec![],
            vec![DagAck { id, sig }],
            &keys[2].secret,
        );
        let _ = net[3].on_message(2_000_000, ReplicaId(2), DagMsg::Block(late), &mut r);
        assert!(net[3].support.get(&id).is_none() && !net[3].is_certified(&id));

        // Replica 2 never certified the creator's next batch itself, yet sees
        // it commit: the ledger skips it, and the one after is released.
        let mut fresh = DagMempool::new(&config(), ReplicaId(2));
        let mk = |seq: u64| {
            let mb = Microblock::seal(ReplicaId(0), txs(2 + seq as usize), seq);
            let ack = DagAck {
                id: mb.id,
                sig: Signature::sign(&keys[0].secret, &mb.id.digest()),
            };
            let block = DagBlock::signed(
                ReplicaId(0),
                0,
                seq,
                Some(mb.clone()),
                vec![],
                vec![ack],
                &keys[0].secret,
            );
            (mb, block)
        };
        let ((first, b0), (second, b1)) = (mk(0), mk(1));
        let _ = fresh.on_message(10, ReplicaId(0), DagMsg::Block(b0), &mut r);
        let _ = fresh.on_message(11, ReplicaId(0), DagMsg::Block(b1), &mut r);
        assert_eq!(
            fresh.ledgers[&ReplicaId(0)].ready.len(),
            2,
            "neither certified"
        );
        let proven = |mb: &Microblock| {
            let sigs = (0..3).map(|i| Signature::sign(&keys[i].secret, &mb.id.digest()));
            let proof = QuorumProof::from_signatures(mb.id.digest(), sigs);
            MicroblockRef::proven(mb.id, mb.creator, mb.len() as u32, proof)
        };
        commit_refs(&mut fresh, 1_000, 1, Payload::Refs(vec![proven(&first)]));
        // Two more acks certify the second; it is released past the first.
        for signer in [1usize, 3] {
            let sig = Signature::sign(&keys[signer].secret, &second.id.digest());
            let block = DagBlock::signed(
                ReplicaId(signer as u32),
                0,
                0,
                None,
                vec![],
                vec![DagAck { id: second.id, sig }],
                &keys[signer].secret,
            );
            let from = ReplicaId(signer as u32);
            let _ = fresh.on_message(1_100, from, DagMsg::Block(block), &mut r);
        }
        assert!(fresh.ledgers[&ReplicaId(0)].ready.is_empty());
        match fresh.make_payload(1_200) {
            Payload::Refs(refs) => assert_eq!(refs.len(), 1),
            other => panic!("unexpected payload {other:?}"),
        }
    }

    #[test]
    fn block_digests_are_remembered_for_one_fetch_timeout() {
        let mut net = nodes(DagMode::Certified);
        let mut r = rng();
        let block_of = |fx: &Effects<DagMsg>| match &fx.msgs[0].1 {
            DagMsg::Block(b) => b.clone(),
            other => panic!("unexpected {other:?}"),
        };
        let old = block_of(&net[0].on_client_txs(0, txs(4), &mut r));
        let _ = net[3].on_message(10, ReplicaId(0), DagMsg::Block(old.clone()), &mut r);
        // Its own ack block and the creator's.
        assert_eq!((net[3].seen.len(), net[3].seen_order.len()), (2, 2));
        // Inside δ a second copy is suppressed outright.
        let fx = net[3].on_message(20, ReplicaId(0), DagMsg::Block(old.clone()), &mut r);
        assert!(fx.is_empty() && net[3].seen.len() == 2);
        // The next accepted block, δ later, sweeps both digests; a replay of
        // the old block is then checked and accepted again, and changes
        // nothing: its batch is held, its `seq` noted, its ack counted.
        let now = FETCH_TIMEOUT + 100;
        let new = block_of(&net[1].on_client_txs(now, txs(4), &mut r));
        let _ = net[3].on_message(now, ReplicaId(1), DagMsg::Block(new), &mut r);
        assert!(net[3].seen.len() <= 2 && net[3].seen_order.len() == net[3].seen.len());
        let id = old.batch.as_ref().expect("batch rides the block").id;
        let before = (net[3].stats(), net[3].support.get(&id).cloned());
        let fx = net[3].on_message(now + 1, ReplicaId(0), DagMsg::Block(old), &mut r);
        assert!(fx.is_empty());
        assert_eq!((net[3].stats(), net[3].support.get(&id).cloned()), before);
    }
}
