//! The dissemination core shared by every reference-based mempool.
//!
//! `ReceiveTx/ShareTx/MakeProposal/FillProposal` is one interface, and
//! the five shared mempools differ only in their *availability policy*
//! (see the table in the crate docs).  [`Dissemination`] owns everything
//! else: batching client transactions into microblocks, the microblock
//! store, the proposal queue, proposal fill tracking, serving and issuing
//! fetches with their retry timers, commit handling and the counters.  A
//! backend holds one `Dissemination` next to its policy state and calls
//! into it; nothing here knows which backend it serves.
//!
//! # State ends at the commit frontier
//!
//! A microblock that executed here leaves the store `δ` ([`FETCH_TIMEOUT`])
//! later (the rule is in `store.rs`), whether or not another commit comes:
//! one timer, [`RETIRE_TAG`], is armed for the first executed microblock
//! still held, and when it fires the backend runs [`Dissemination::retire`],
//! whose `forget` drops the policy state it kept for each id that leaves
//! (proofs, certificates, echo and ack sets).  From its execution on, this
//! one place refuses the id:
//! [`Dissemination::make_proposable`] does not queue it,
//! [`Dissemination::missing`] does not report it, a copy of its body is not
//! stored again, and a fetch that names it counts it as done.  A backend
//! asks [`Dissemination::is_retired`] before it opens state of its own for
//! an id — after it has verified whatever carried the id, never instead.
//!
//! **Proposed once, released by an orphan.**  An id that a proposal seen
//! here names is not queued again while that proposal can still commit,
//! even when the proof, certificate or body that makes it proposable
//! arrives after the proposal (a leader that proposes the moment it holds a
//! proof can overtake the creator's broadcast).  A proposal that is not
//! expected to commit any more gives its ids back: when a proposal commits
//! whose parent is one of the last `KEPT_COMMITS` commits seen here
//! (genesis before the first), every proposal seen here with a lower view
//! that did not commit is an orphan.  [`Dissemination::on_commit`] queues
//! each of an orphan's ids again unless a later proposal named it, or it
//! executed or committed here.  The parent need not be the latest commit:
//! a commit that forks off an earlier one abandons the proposals in
//! between.  Over a parent never committed here, a lower proposal may be an
//! ancestor that committed elsewhere, so such a commit releases nothing.
//! An id stays named until it retires or its orphan releases it.
//!
//! The release is a bet, not a proof: no engine forbids a commit below its
//! top committed view.  PBFT commits one block per commit quorum, so view
//! `v` can commit after `v + 1` when `v + 1` was built on `v - 1`, and
//! HotStuff's `commit_through` commits the uncommitted ancestors of its tip,
//! which may lie below the top when the chain forks.  So an orphan keeps its
//! fill tracking, and a late commit — one at or below the highest view
//! committed here — releases nothing and names its ids again: it executes
//! only once its bodies are local, as any commit does, and its ids are not
//! queued again while it waits.  An id that was proposed again meanwhile
//! commits twice and executes once.
//!
//! **What a laggard gets.**  A peer serves a microblock until `δ` after it
//! executed it.  A replica that learns of a reference no later than the
//! serving peer executes it has its first request and its first retry (`δ`
//! later) both land inside that window; one that learns of it up to `δ`
//! later still has its first request served.  A replica further behind
//! than that needs block sync (a ROADMAP item): the engines keep a late
//! proposal and hand it here, so the reference is learned and fetched, but
//! no peer holds the body any more.

use crate::api::{Effects, FillStatus, MempoolEvent, MempoolStats, TimerTag};
use crate::batcher::{TxBatcher, BATCH_TIMEOUT, BATCH_TIMEOUT_TAG};
use crate::fetcher::{FetchAction, FetchRetryState, FETCH_TIMEOUT};
use crate::messages::{NarwhalMsg, SmpMsg};
use crate::store::{FillTracker, MicroblockStore, ProposalQueue, Retired};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use smp_crypto::{Digest, DigestMap, KeyPair, ProofError, PublicKey, QuorumProof, Signature};
use smp_telemetry::Telemetry;
use smp_types::{
    BlockId, Microblock, MicroblockId, MicroblockRef, Payload, Proposal, ReplicaId, SimTime,
    SystemConfig, Transaction, View,
};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::Arc;

/// Timer tag of the retire step (see the module docs).
pub const RETIRE_TAG: TimerTag = 0x5245_5449; // "RETI"

/// How many of the latest commits a commit may extend and still release
/// orphans: as deep as the tail the consensus engines keep (`KEPT_VIEWS`).
pub(crate) const KEPT_COMMITS: usize = 16;

/// The two fetch messages every wire family has, so the core can emit
/// each family's own variants.
pub trait FetchWire: Sized {
    /// The family's request for missing microblocks.
    fn fetch(ids: Vec<MicroblockId>) -> Self;
    /// The family's response carrying microblocks.
    fn fetch_resp(mbs: Vec<Microblock>) -> Self;
}

impl FetchWire for SmpMsg {
    fn fetch(ids: Vec<MicroblockId>) -> Self {
        SmpMsg::Fetch { ids }
    }
    fn fetch_resp(mbs: Vec<Microblock>) -> Self {
        SmpMsg::FetchResp { mbs }
    }
}

impl FetchWire for NarwhalMsg {
    fn fetch(ids: Vec<MicroblockId>) -> Self {
        NarwhalMsg::Fetch { ids }
    }
    fn fetch_resp(mbs: Vec<Microblock>) -> Self {
        NarwhalMsg::FetchResp { mbs }
    }
}

/// What a referenced-but-missing microblock means for consensus.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Missing {
    /// Best-effort dissemination: consensus must wait for the data
    /// (`FillStatus::MustWait`).
    Blocks,
    /// The reference is proven available: consensus proceeds and the data
    /// is fetched in the background.
    Recoverable,
}

/// Batcher, store, commit frontier, proposal queue, fill tracker and
/// fetcher of one replica.
#[derive(Clone, Debug)]
pub struct Dissemination {
    me: ReplicaId,
    batcher: TxBatcher,
    store: MicroblockStore,
    retired: Retired,
    queue: ProposalQueue,
    /// Ids a proposal seen here named, with the highest view that named
    /// each, until they retire or an orphan of that view releases them:
    /// this replica does not propose them again meanwhile, whatever it
    /// learns of them later.
    named: DigestMap<MicroblockId, View>,
    /// The ids each proposal seen here named, by view, until a commit
    /// reaches its view: it committed then, or it is an orphan.
    seen: BTreeMap<(View, BlockId), Vec<MicroblockId>>,
    /// The highest view committed here.
    top_commit: View,
    /// The ids of the last `KEPT_COMMITS` proposals committed here, in
    /// commit order (genesis before the first).
    recent_commits: VecDeque<BlockId>,
    tracker: FillTracker,
    fetcher: FetchRetryState,
    /// Whether the [`RETIRE_TAG`] timer is armed.
    retire_armed: bool,
    created: u64,
    telemetry: Telemetry,
}

impl Dissemination {
    /// Creates the core for replica `me`; missing microblocks are
    /// re-requested every [`FETCH_TIMEOUT`] (the paper's `δ`), and executed
    /// ones are held that long.
    pub fn new(config: &SystemConfig, me: ReplicaId) -> Self {
        Dissemination {
            me,
            batcher: TxBatcher::new(me, config.mempool),
            store: MicroblockStore::new(),
            retired: Retired::new(FETCH_TIMEOUT),
            queue: ProposalQueue::new(),
            named: DigestMap::default(),
            seen: BTreeMap::new(),
            top_commit: View(0),
            recent_commits: VecDeque::from([BlockId::GENESIS]),
            tracker: FillTracker::new(),
            fetcher: FetchRetryState::new(FETCH_TIMEOUT),
            retire_armed: false,
            created: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// The replica this core belongs to.
    pub fn me(&self) -> ReplicaId {
        self.me
    }

    /// The microblocks available locally.
    pub fn store(&self) -> &MicroblockStore {
        &self.store
    }

    /// Whether `id` has executed here: nothing about it is stored, queued
    /// or fetched any more.
    pub fn is_retired(&self, id: &MicroblockId) -> bool {
        self.retired.contains(id)
    }

    /// Whether a proposal committed here named `id`: it executed, or its
    /// proposal waits for the body ([`Mempool::has_committed`]).
    ///
    /// [`Mempool::has_committed`]: crate::api::Mempool::has_committed
    pub fn has_committed(&self, id: &MicroblockId) -> bool {
        self.retired.contains(id) || self.tracker.commits(id)
    }

    /// The telemetry handle, for the backend's own counters.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Installs the telemetry handle.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    fn note_sealed(&mut self, mb: &Microblock) {
        self.created += 1;
        self.telemetry.counter_inc("batcher.sealed");
        self.telemetry
            .counter_add("batcher.sealed_txs", mb.len() as u64);
    }

    /// `ReceiveTx`: buffers client transactions, arms the batch timer for
    /// a partial batch and returns the microblocks sealed by this call for
    /// the backend to share.
    pub fn seal_from_clients<M>(
        &mut self,
        now: SimTime,
        txs: Vec<Transaction>,
        effects: &mut Effects<M>,
    ) -> Vec<Microblock> {
        let _span = self.telemetry.span_at("batcher.add", now);
        let outcome = self.batcher.add(now, txs);
        if outcome.arm_timer {
            effects.timer(BATCH_TIMEOUT, BATCH_TIMEOUT_TAG);
        }
        for mb in &outcome.sealed {
            self.note_sealed(mb);
        }
        outcome.sealed
    }

    /// Handles the core's two timers.  The batch timeout returns the
    /// partial batch it sealed, for the backend to share; a fetch retry
    /// re-requests whatever is still missing from the next candidate.
    pub fn on_timer<M: FetchWire>(
        &mut self,
        now: SimTime,
        tag: TimerTag,
        effects: &mut Effects<M>,
    ) -> Option<Microblock> {
        if tag == BATCH_TIMEOUT_TAG {
            let mb = self.batcher.on_timeout(now)?;
            self.note_sealed(&mb);
            return Some(mb);
        }
        if FetchRetryState::owns_tag(tag) {
            let settled = settled(&self.store, &self.retired);
            if let Some(action) = self.fetcher.on_timer(tag, settled) {
                self.telemetry.counter_inc("fetcher.retry");
                effects.send(action.target, M::fetch(action.ids));
                effects.timer(self.fetcher.timeout, action.tag);
            }
        }
        None
    }

    /// Stores a microblock this replica disseminates itself (its own, or
    /// one it proxies): no proposal can be waiting for it yet.
    pub fn hold(&mut self, mb: &Microblock) {
        self.store.insert(mb.clone());
    }

    fn admit<M>(&mut self, now: SimTime, mb: Microblock, effects: &mut Effects<M>) -> bool {
        let id = mb.id;
        if self.retired.contains(&id) || !self.store.insert(mb) {
            return false;
        }
        self.telemetry.counter_inc("dissemination.mb_in");
        effects.events.extend(
            self.tracker
                .on_microblock(id, &self.store, &mut self.retired, now),
        );
        self.arm_retire(now, effects);
        true
    }

    /// Arms the retire timer for the first executed microblock still held,
    /// unless it is armed already.
    fn arm_retire<M>(&mut self, now: SimTime, effects: &mut Effects<M>) {
        if self.retire_armed {
            return;
        }
        if let Some(due) = self.retired.next_due() {
            effects.timer(due.saturating_sub(now), RETIRE_TAG);
            self.retire_armed = true;
        }
    }

    /// The retire step, for the backend to run when [`RETIRE_TAG`] fires:
    /// every microblock that executed `δ` ago leaves the store, and
    /// `forget` drops the backend's state for it.
    pub fn retire<M>(
        &mut self,
        now: SimTime,
        effects: &mut Effects<M>,
        mut forget: impl FnMut(&MicroblockId),
    ) {
        self.retire_armed = false;
        while let Some(id) = self.retired.pop_due(now) {
            self.store.remove(&id);
            self.named.remove(&id);
            forget(&id);
        }
        self.arm_retire(now, effects);
    }

    fn prune_fetches(&mut self) {
        self.fetcher.prune(settled(&self.store, &self.retired));
    }

    /// Stores a microblock received from a peer, resuming the proposals
    /// that waited for it.  Returns `false` for a duplicate, and for a copy
    /// of a microblock that has executed here already.
    pub fn absorb<M>(&mut self, now: SimTime, mb: Microblock, effects: &mut Effects<M>) -> bool {
        let new = self.admit(now, mb, effects);
        if new {
            self.prune_fetches();
        }
        new
    }

    /// Handles a fetch response.
    pub fn absorb_fetched<M>(
        &mut self,
        now: SimTime,
        mbs: Vec<Microblock>,
        effects: &mut Effects<M>,
    ) {
        for mb in mbs {
            self.admit(now, mb, effects);
        }
        self.prune_fetches();
    }

    /// Answers a fetch request with the requested microblocks held here —
    /// every one that has not executed, or did less than `δ` ago.
    pub fn serve_fetch<M: FetchWire>(
        &self,
        from: ReplicaId,
        ids: &[MicroblockId],
        effects: &mut Effects<M>,
    ) {
        let mbs: Vec<Microblock> = ids
            .iter()
            .filter_map(|id| self.store.get(id).cloned())
            .collect();
        if !mbs.is_empty() {
            effects.send(from, M::fetch_resp(mbs));
        }
    }

    /// Makes `id` eligible for this replica's future proposals, unless it
    /// has executed here or a proposal seen here named it: a microblock is
    /// proposed once, even when a proposal overtakes the proof, certificate
    /// or body that makes it proposable.
    pub fn make_proposable(&mut self, id: MicroblockId) {
        if !self.retired.contains(&id) && !self.named.contains_key(&id) {
            self.queue.push(id);
        }
    }

    /// Whether `id` is waiting in the proposal queue.
    pub fn is_proposable(&self, id: &MicroblockId) -> bool {
        self.queue.contains(id)
    }

    /// `MakeProposal`: drains the whole queue into one payload, as the
    /// paper leaves a proposal's reference count unbounded.  `make_ref`
    /// builds the backend's reference for an id, or drops the id by
    /// returning `None`.
    pub fn drain_refs(
        &mut self,
        mut make_ref: impl FnMut(MicroblockId, &MicroblockStore) -> Option<MicroblockRef>,
    ) -> Payload {
        let mut refs = Vec::new();
        while let Some(id) = self.queue.pop() {
            if let Some(r) = make_ref(id, &self.store) {
                refs.push(r);
            }
        }
        if refs.is_empty() {
            Payload::Empty
        } else {
            Payload::Refs(refs)
        }
    }

    /// The references of `proposal` that have to be verified and filled, or
    /// the verdict for a payload that carries none.
    pub fn refs_of(proposal: &Proposal) -> Result<&[MicroblockRef], FillStatus> {
        match &proposal.payload {
            Payload::Refs(refs) => Ok(refs),
            Payload::Inline(_) | Payload::Empty => Err(FillStatus::Ready),
            // Per-shard groups are split off by the sharded wrapper before
            // a backend sees them; a whole sharded payload reaching an
            // unsharded backend must not bypass reference verification.
            Payload::Sharded(_) => Err(FillStatus::Invalid(
                "sharded payload reached an unsharded mempool",
            )),
        }
    }

    /// Takes the microblocks `proposal` references (`refs`) out of the
    /// proposal queue, and keeps them out while it can commit (they are no
    /// longer proposable by this replica), and returns the references whose
    /// data is still wanted: not held locally, and not executed here
    /// already.
    pub fn missing<'p>(
        &mut self,
        proposal: &Proposal,
        refs: &'p [MicroblockRef],
    ) -> Vec<&'p MicroblockRef> {
        let view = proposal.view;
        let named = self.seen.entry((view, proposal.id)).or_default();
        let mut missing = Vec::new();
        for r in refs {
            self.queue.remove(&r.id);
            if self.retired.contains(&r.id) {
                continue;
            }
            let latest = self.named.entry(r.id).or_insert(view);
            *latest = (*latest).max(view);
            named.push(r.id);
            if !self.store.contains(&r.id) {
                missing.push(r);
            }
        }
        missing
    }

    /// Remembers that `proposal` waits for `missing`.
    pub fn track(&mut self, proposal: &Proposal, missing: Vec<MicroblockId>, policy: Missing) {
        self.tracker
            .track(proposal, missing, policy == Missing::Blocks);
    }

    /// Registers a fetch of `ids` with its ordered candidate list; the
    /// caller sends the request and arms the retry timer `action.tag`.
    pub fn request(&mut self, ids: Vec<MicroblockId>, candidates: Vec<ReplicaId>) -> FetchAction {
        self.telemetry
            .counter_add("fetcher.fetch", ids.len() as u64);
        self.fetcher.register(ids, candidates)
    }

    /// `FillProposal`: has the backend `verify` the references, dequeues
    /// them and, if some are missing, tracks the proposal and fetches them
    /// from the first of `candidates(missing)`.  `policy` decides whether
    /// consensus waits for the data.
    pub fn fill<M: FetchWire>(
        &mut self,
        proposal: &Proposal,
        verify: impl FnOnce(&[MicroblockRef]) -> Result<(), FillStatus>,
        candidates: impl FnOnce(&[&MicroblockRef]) -> Vec<ReplicaId>,
        policy: Missing,
        effects: &mut Effects<M>,
    ) -> FillStatus {
        let refs = match Self::refs_of(proposal) {
            Ok(refs) => refs,
            Err(verdict) => return verdict,
        };
        if let Err(invalid) = verify(refs) {
            return invalid;
        }
        let missing = self.missing(proposal, refs);
        if missing.is_empty() {
            return FillStatus::Ready;
        }
        let ids: Vec<MicroblockId> = missing.iter().map(|r| r.id).collect();
        self.track(proposal, ids.clone(), policy);
        let action = self.request(ids.clone(), candidates(&missing));
        effects.send(action.target, M::fetch(action.ids));
        effects.timer(self.fetcher.timeout, action.tag);
        effects.event(MempoolEvent::FetchIssued {
            count: ids.len() as u32,
        });
        match policy {
            Missing::Blocks => FillStatus::MustWait(ids),
            Missing::Recoverable => FillStatus::Ready,
        }
    }

    /// Consensus committed `proposal`: its references stop being
    /// proposable and it executes as soon as all of its data is local.
    /// The orphans it makes give their ids back (see the module docs).
    pub fn on_commit<M>(&mut self, now: SimTime, proposal: &Proposal) -> Effects<M> {
        if let Payload::Refs(refs) = &proposal.payload {
            for r in refs {
                self.queue.remove(&r.id);
            }
        }
        let mut effects = Effects::none();
        effects.events = self
            .tracker
            .on_commit(proposal, &self.store, &mut self.retired, now);
        self.release_orphans(proposal);
        self.arm_retire(now, &mut effects);
        let t = &self.telemetry;
        t.gauge_set("mempool.store.len", self.store.len() as f64);
        t.gauge_set("mempool.retired.len", self.retired.len() as f64);
        t.gauge_set("mempool.queue.slots", self.queue.slots() as f64);
        t.gauge_set(
            "mempool.fetch.outstanding",
            self.fetcher.outstanding() as f64,
        );
        effects
    }

    /// Forgets every proposal seen here up to `committed`'s view and, if
    /// `committed` extends one of the last `KEPT_COMMITS` commits, queues
    /// again each id whose latest naming is a lower one of them and that
    /// has neither executed nor committed here.  A commit at or below the
    /// highest view committed here is late: it releases nothing, and its
    /// ids are named again.
    fn release_orphans(&mut self, committed: &Proposal) {
        let contiguous = self.recent_commits.contains(&committed.parent);
        if self.recent_commits.len() == KEPT_COMMITS {
            self.recent_commits.pop_front();
        }
        self.recent_commits.push_back(committed.id);
        if committed.view <= self.top_commit {
            if let Payload::Refs(refs) = &committed.payload {
                for r in refs.iter().filter(|r| !self.retired.contains(&r.id)) {
                    let latest = self.named.entry(r.id).or_insert(committed.view);
                    *latest = (*latest).max(committed.view);
                }
            }
            return;
        }
        self.top_commit = committed.view;
        while let Some(entry) = self.seen.first_entry() {
            let view = entry.key().0;
            if view > committed.view {
                break;
            }
            let ids = entry.remove();
            if !contiguous || view == committed.view {
                continue;
            }
            for id in ids {
                if self.named.get(&id) == Some(&view) && !self.has_committed(&id) {
                    self.named.remove(&id);
                    self.queue.push(id);
                }
            }
        }
    }

    /// The core's counters; `forwarded_microblocks` is the backend's to
    /// fill in.
    pub fn stats(&self) -> MempoolStats {
        MempoolStats {
            unbatched_txs: self.batcher.pending_txs(),
            stored_microblocks: self.store.len(),
            proposable_microblocks: self.queue.len(),
            created_microblocks: self.created,
            forwarded_microblocks: 0,
            fetches_issued: self.fetcher.issued(),
            retired_microblocks: self.retired.len(),
        }
    }
}

/// Whether nothing more is to be fetched for an id: held, or retired.
fn settled<'a>(
    store: &'a MicroblockStore,
    retired: &'a Retired,
) -> impl Fn(&MicroblockId) -> bool + 'a {
    |id| store.contains(id) || retired.contains(id)
}

/// The reference of a best-effort backend: no proof, metadata read from
/// the stored microblock.
pub fn unproven_ref(id: MicroblockId, store: &MicroblockStore) -> Option<MicroblockRef> {
    let mb = store.get(&id)?;
    Some(MicroblockRef::unproven(id, mb.creator, mb.len() as u32))
}

/// `replicas` with every repeat after the first occurrence removed.
fn first_occurrences(replicas: impl IntoIterator<Item = ReplicaId>) -> Vec<ReplicaId> {
    let mut seen = HashSet::new();
    replicas.into_iter().filter(|r| seen.insert(*r)).collect()
}

/// Fetch candidates without proofs: the creators of the missing
/// microblocks first, then the proposer, each once.
pub fn creators_then_proposer(missing: &[&MicroblockRef], proposer: ReplicaId) -> Vec<ReplicaId> {
    let creators = missing.iter().map(|r| r.creator);
    first_occurrences(creators.chain([proposer]))
}

/// Fetch candidates of a certified reference: whoever signed the
/// certificates of the missing microblocks other than `me`, each once, in
/// random order; the proposer if nobody else signed.
pub fn certifiers(
    missing: &[&MicroblockRef],
    me: ReplicaId,
    proposer: ReplicaId,
    rng: &mut SmallRng,
) -> Vec<ReplicaId> {
    let signers = missing
        .iter()
        .filter_map(|r| r.proof.as_ref())
        .flat_map(|proof| proof.signers().into_iter().map(ReplicaId))
        .filter(|r| *r != me);
    let mut pool = first_occurrences(signers);
    pool.shuffle(rng);
    if pool.is_empty() {
        pool.push(proposer);
    }
    pool
}

/// How [`CertificateBook::verify`] accepted a certificate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verified {
    /// It equals the certificate held for the id, checked when it was held.
    Held,
    /// The full check ran.
    Checked,
}

/// One quorum certificate per microblock, and the one place where it is
/// collected, held and checked: PAB's acks and proofs, Narwhal's echoes
/// and readies, the certified DAG's acks.  Signatures accumulate until the
/// `quorum`-th, which freezes the certificate — every replica that
/// certifies an id from the same signatures holds the same bytes, whatever
/// arrives later.  A backend's second book is a clone of its first.
#[derive(Clone, Debug)]
pub struct CertificateBook {
    /// Every replica's public key: the deployment's shared directory.
    keys: Arc<[PublicKey]>,
    my_key: KeyPair,
    quorum: usize,
    /// Signatures collected per id, and whether they are its certificate
    /// (frozen, or held whole): a flag, so no lookup reads the bitmap.
    proofs: DigestMap<MicroblockId, (QuorumProof, bool)>,
}

impl CertificateBook {
    /// An empty book for replica `me` of the `n` replicas keyed from
    /// `seed`, certifying at `quorum` (at least 2) signatures.
    pub fn new(seed: u64, n: usize, me: ReplicaId, quorum: usize) -> Self {
        CertificateBook {
            keys: smp_crypto::directory(seed, n),
            my_key: KeyPair::derive(seed, me.0),
            quorum,
            proofs: DigestMap::default(),
        }
    }

    /// Every replica's public key, by replica index.
    pub fn keys(&self) -> &[PublicKey] {
        &self.keys
    }

    /// Signatures a certificate takes.
    pub fn quorum(&self) -> usize {
        self.quorum
    }

    /// This replica's signature over `digest`.
    pub fn sign(&self, digest: &Digest) -> Signature {
        Signature::sign(&self.my_key.secret, digest)
    }

    /// Counts `sig` towards the certificate of `id`.  `Err` if it is not a
    /// replica's signature over `id`; `Ok(Some(certificate))` if it was the
    /// `quorum`-th, which happens once per id; `Ok(None)` otherwise (still
    /// short, a repeated signer, or certified already).
    pub fn add(
        &mut self,
        id: MicroblockId,
        sig: Signature,
    ) -> Result<Option<&QuorumProof>, ProofError> {
        let digest = id.digest();
        let key = self
            .keys
            .get(sig.signer as usize)
            .ok_or(ProofError::UnknownSigner(sig.signer))?;
        if !sig.verify(key, &digest) {
            return Err(ProofError::BadSignature(sig.signer));
        }
        let (proof, certified) = self
            .proofs
            .entry(id)
            .or_insert_with(|| (QuorumProof::new(digest), false));
        let completed = !*certified && proof.add(sig) && proof.has_quorum(self.quorum);
        *certified |= completed;
        Ok(completed.then_some(&*proof))
    }

    /// Whether `proof` is a valid certificate of `id`.  One equal to the
    /// certificate held for `id` is, without a second check
    /// ([`Verified::Held`]); any other goes through the digest check and
    /// [`QuorumProof::verify`], so an `Err` always comes from the full
    /// check.
    #[inline]
    pub fn verify(&self, id: &MicroblockId, proof: &QuorumProof) -> Result<Verified, ProofError> {
        if self.get(id) == Some(proof) {
            return Ok(Verified::Held);
        }
        if proof.digest != id.digest() {
            return Err(ProofError::WrongDigest);
        }
        proof.verify(&self.keys, self.quorum)?;
        Ok(Verified::Checked)
    }

    /// Checks that every reference of a proposal carries a valid
    /// certificate of its own id, telling `seen` each check's verdict.
    pub fn verify_refs(
        &self,
        refs: &[MicroblockRef],
        mut seen: impl FnMut(&Result<Verified, ProofError>),
    ) -> Result<(), FillStatus> {
        for r in refs {
            let Some(proof) = &r.proof else {
                return Err(FillStatus::Invalid("reference without availability proof"));
            };
            let verdict = self.verify(&r.id, proof);
            seen(&verdict);
            if verdict.is_err() {
                return Err(FillStatus::Invalid("invalid availability proof"));
            }
        }
        Ok(())
    }

    /// Keeps `proof`, a certificate of `id` the caller verified, unless
    /// `id` is certified already: the first one learned is held.
    pub fn hold(&mut self, id: MicroblockId, proof: &QuorumProof) {
        let held = self
            .proofs
            .entry(id)
            .or_insert_with(|| (proof.clone(), true));
        if !held.1 {
            *held = (proof.clone(), true);
        }
    }

    /// Drops whatever is held for `id` (it retired).
    pub fn forget(&mut self, id: &MicroblockId) {
        self.proofs.remove(id);
    }

    /// The certificate of `id`, once it has one.
    pub fn get(&self, id: &MicroblockId) -> Option<&QuorumProof> {
        let (proof, certified) = self.proofs.get(id)?;
        certified.then_some(proof)
    }

    /// Whether `id` is certified.
    pub fn is_certified(&self, id: &MicroblockId) -> bool {
        self.get(id).is_some()
    }

    /// Number of ids a certificate or signatures are held for.
    pub fn tracked(&self) -> usize {
        self.proofs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smp_types::{BlockId, ClientId, View};

    /// The `δ` of the cores below.
    const DELTA: SimTime = FETCH_TIMEOUT;

    fn core(me: u32) -> Dissemination {
        Dissemination::new(&SystemConfig::new(4), ReplicaId(me))
    }

    fn mb(creator: u32, seq: u64) -> Microblock {
        let mut tx = Transaction::synthetic(ClientId(creator), seq, 128, 0);
        tx.mark_received(ReplicaId(creator), 10);
        Microblock::seal(ReplicaId(creator), vec![tx], 0)
    }

    fn proposal(view: u64, mbs: &[&Microblock]) -> Proposal {
        let payload = if mbs.is_empty() {
            Payload::Empty
        } else {
            Payload::Refs(
                mbs.iter()
                    .map(|m| MicroblockRef::unproven(m.id, m.creator, m.len() as u32))
                    .collect(),
            )
        };
        Proposal::new(
            View(view),
            view,
            BlockId::GENESIS,
            ReplicaId(0),
            payload,
            true,
        )
    }

    /// Commits `p` at `now`; the transactions reported executed, and the
    /// delay of the retire timer the commit armed, if it armed one.
    fn commit(core: &mut Dissemination, now: SimTime, p: &Proposal) -> (u32, Option<SimTime>) {
        let fx: Effects<SmpMsg> = core.on_commit(now, p);
        let executed = fx.events.iter().map(|e| match e {
            MempoolEvent::Executed { tx_count, .. } => *tx_count,
            other => panic!("unexpected event {other:?}"),
        });
        (executed.sum(), retire_timer(&fx))
    }

    fn retire_timer(fx: &Effects<SmpMsg>) -> Option<SimTime> {
        match fx.timers[..] {
            [] => None,
            [(delay, RETIRE_TAG)] => Some(delay),
            ref other => panic!("unexpected timers {other:?}"),
        }
    }

    /// Runs the retire step at `now`, as its timer does; the ids handed to
    /// the backend, and the delay of the next retire timer.
    fn retire(core: &mut Dissemination, now: SimTime) -> (Vec<MicroblockId>, Option<SimTime>) {
        let (mut forgotten, mut fx) = (Vec::new(), Effects::none());
        core.retire(now, &mut fx, |id| forgotten.push(*id));
        (forgotten, retire_timer(&fx))
    }

    fn served(core: &Dissemination, id: MicroblockId) -> bool {
        let mut fx: Effects<SmpMsg> = Effects::none();
        core.serve_fetch(ReplicaId(3), &[id], &mut fx);
        !fx.msgs.is_empty()
    }

    #[test]
    fn a_microblock_is_served_until_delta_after_it_executed_here() {
        let (mut peer, x) = (core(1), mb(2, 0));
        peer.hold(&x);
        // A laggard that learns of the reference at 900, before the peer
        // executes it at 1 000: its first request and — that one lost — its
        // first retry, δ later, both land inside the peer's window.
        assert!(served(&peer, x.id), "first request, at 900");
        assert_eq!(
            commit(&mut peer, 1_000, &proposal(1, &[&x])),
            (1, Some(DELTA))
        );
        assert!(peer.is_retired(&x.id) && peer.stats().stored_microblocks == 1);
        assert_eq!(retire(&mut peer, 900 + DELTA), (vec![], Some(100)));
        assert!(served(&peer, x.id), "first retry, at 900 + δ");
        // The retire step at 1 000 + δ retires it, and hands the id to the
        // backend: whoever asks from then on is not served.
        assert_eq!(retire(&mut peer, 1_000 + DELTA), (vec![x.id], None));
        assert!(!served(&peer, x.id));
        let stats = peer.stats();
        assert_eq!(
            (stats.stored_microblocks, stats.retired_microblocks),
            (0, 1)
        );
    }

    #[test]
    fn an_executed_body_leaves_the_store_delta_after_execution_with_no_further_commit() {
        let (mut core, x, y) = (core(1), mb(2, 0), mb(3, 0));
        core.hold(&x);
        core.hold(&y);
        // The first execution arms the one retire timer, for δ later; the
        // second, while it is armed, arms nothing.
        assert_eq!(
            commit(&mut core, 1_000, &proposal(1, &[&x])),
            (1, Some(DELTA))
        );
        assert_eq!(commit(&mut core, 5_000, &proposal(2, &[&y])), (1, None));
        // It fires at 1 000 + δ: `x` leaves, and the timer is armed again
        // for `y`, which leaves at 5 000 + δ.  No commit comes in between.
        assert_eq!(retire(&mut core, 1_000 + DELTA), (vec![x.id], Some(4_000)));
        assert!(!served(&core, x.id) && served(&core, y.id));
        assert_eq!(retire(&mut core, 5_000 + DELTA), (vec![y.id], None));
        assert_eq!(core.stats().stored_microblocks, 0);
        // Executions after the queue emptied arm the timer anew.
        let z = mb(2, 1);
        core.hold(&z);
        assert_eq!(
            commit(&mut core, 9_000_000, &proposal(3, &[&z])),
            (1, Some(DELTA))
        );
    }

    #[test]
    fn a_body_that_arrives_after_its_commit_is_held_delta_from_its_arrival() {
        let (mut core, x) = (core(1), mb(2, 0));
        let p = proposal(1, &[&x]);
        let mut fx: Effects<SmpMsg> = Effects::none();
        let status = core.fill(
            &p,
            |_| Ok(()),
            |_| vec![ReplicaId(0)],
            Missing::Recoverable,
            &mut fx,
        );
        assert_eq!(status, FillStatus::Ready);
        // Committed at 1 000 without its data: nothing executes yet, and
        // nothing is to retire.
        assert_eq!(commit(&mut core, 1_000, &p), (0, None));
        assert!(!core.is_retired(&x.id));
        // The body arrives at 400 000 and the proposal executes then.
        let mut fx: Effects<SmpMsg> = Effects::none();
        core.absorb_fetched(400_000, vec![x.clone()], &mut fx);
        assert!(matches!(
            fx.events[..],
            [MempoolEvent::Executed { tx_count: 1, .. }]
        ));
        assert_eq!(retire_timer(&fx), Some(DELTA));
        // δ after the commit it is still served; δ after the arrival it goes.
        assert_eq!(retire(&mut core, 1_000 + DELTA).0, vec![]);
        assert!(served(&core, x.id));
        assert_eq!(retire(&mut core, 400_000 + DELTA), (vec![x.id], None));
        assert!(!served(&core, x.id));
    }

    #[test]
    fn a_retired_id_is_not_stored_queued_reported_missing_or_executed_again() {
        let (mut core, x) = (core(1), mb(2, 0));
        core.hold(&x);
        core.make_proposable(x.id);
        assert!(core.is_proposable(&x.id));
        let p = proposal(1, &[&x]);
        assert_eq!(commit(&mut core, 1_000, &p), (1, Some(DELTA)));
        assert_eq!(retire(&mut core, 1_000 + DELTA), (vec![x.id], None));
        // A late proof or certificate wants it proposable: refused.
        core.make_proposable(x.id);
        assert!(!core.is_proposable(&x.id));
        // A late copy of the body is a duplicate, as it was while held.
        let mut fx: Effects<SmpMsg> = Effects::none();
        assert!(!core.absorb(2_000_000, x.clone(), &mut fx) && fx.is_empty());
        // A second proposal that names it has nothing to fetch, waits for
        // nothing, and executes with nothing new.
        let again = proposal(3, &[&x]);
        let refs = Dissemination::refs_of(&again).unwrap();
        assert!(core.missing(&again, refs).is_empty());
        assert_eq!(commit(&mut core, 2_000_000, &again), (0, None));
        let stats = core.stats();
        assert_eq!(
            (stats.stored_microblocks, stats.retired_microblocks),
            (0, 1)
        );
    }

    #[test]
    fn a_fetch_whose_ids_have_all_retired_completes() {
        let (mut core, x) = (core(1), mb(2, 0));
        // A proof made this replica fetch `x`; then a proposal it never
        // filled (it had judged it invalid) commits and executes with `x`
        // still absent, and a copy that arrives later is refused as retired.
        let action = core.request(vec![x.id], vec![ReplicaId(2), ReplicaId(3)]);
        assert_eq!(commit(&mut core, 1_000, &proposal(1, &[&x])).0, 1);
        let mut fx: Effects<SmpMsg> = Effects::none();
        assert!(!core.absorb(2_000, x.clone(), &mut fx));
        assert_eq!(core.fetcher.outstanding(), 1);
        // Judged by the store alone the entry would ask for `x` again, every
        // δ, for ever.
        let mut fx: Effects<SmpMsg> = Effects::none();
        assert!(core.on_timer(DELTA, action.tag, &mut fx).is_none());
        assert!(fx.is_empty());
        assert_eq!(core.fetcher.outstanding(), 0);
    }

    /// What happens at a replica in a release case, in order.  A proposal
    /// is named by its view; `parent` 0 is genesis, and a view no proposal
    /// of this case has stands for a block this replica never saw.
    #[derive(Clone, Copy)]
    enum Step {
        /// The proposal of `view` extending `parent` is filled here; it
        /// names `x` if `names_x`.
        See(u64, u64, bool),
        /// The proposal of `view` extending `parent` commits here, seen or
        /// not; it names `x` if `names_x`.
        Commit(u64, u64, bool),
        /// `x`'s body arrives.
        Body,
        /// `x`'s proof or certificate arrives: the backend offers it to the
        /// proposal queue.
        Offer,
    }

    /// Runs `steps` on replica 1 for `x`, a microblock of replica 2 whose
    /// body is held from the start if `held`: whether, at the end, `x` is
    /// proposable, the proposal of view 2 still waits for a body, and `x`
    /// has executed.
    fn release_case(held: bool, steps: &[Step]) -> (bool, bool, bool) {
        let (mut core, x) = (core(1), mb(2, 0));
        if held {
            core.hold(&x);
        }
        let mut blocks: BTreeMap<u64, Proposal> = BTreeMap::new();
        let mut block = |view: u64, parent: u64, names_x: bool| {
            let parent = match parent {
                0 => BlockId::GENESIS,
                p => blocks
                    .get(&p)
                    .map_or(BlockId(Digest::of_u64(p)), |b: &Proposal| b.id),
            };
            let mbs: &[&Microblock] = if names_x { &[&x] } else { &[] };
            let p = Proposal::new(
                View(view),
                view,
                parent,
                ReplicaId(0),
                proposal(view, mbs).payload,
                true,
            );
            blocks.entry(view).or_insert(p).clone()
        };
        for (t, step) in steps.iter().enumerate() {
            let now = 1_000 * t as SimTime;
            match *step {
                Step::See(view, parent, names_x) => {
                    let mut fx: Effects<SmpMsg> = Effects::none();
                    let p = block(view, parent, names_x);
                    let fetch_from = |_: &[&MicroblockRef]| vec![ReplicaId(2)];
                    core.fill(&p, |_| Ok(()), fetch_from, Missing::Recoverable, &mut fx);
                }
                Step::Commit(view, parent, names_x) => {
                    let _: Effects<SmpMsg> = core.on_commit(now, &block(view, parent, names_x));
                }
                Step::Body => {
                    let mut fx: Effects<SmpMsg> = Effects::none();
                    core.absorb(now, x.clone(), &mut fx);
                }
                Step::Offer => core.make_proposable(x.id),
            }
        }
        let orphan = blocks.get(&2).map(|p| p.id).unwrap_or_default();
        (
            core.is_proposable(&x.id),
            core.tracker.is_pending(&orphan),
            core.is_retired(&x.id),
        )
    }

    #[test]
    fn an_orphan_gives_back_only_the_ids_nothing_else_holds() {
        use Step::*;
        // In most cases view 1 commits, view 2's proposal names `x`, and
        // view 3 commits extending view 1 (or, in the gap cases, a block
        // this replica never committed), which leaves view 2 an orphan.
        // (rule, body held, steps, `x` proposable, view 2 waits, `x` executed)
        type Case = (&'static str, bool, &'static [Step], bool, bool, bool);
        let cases: [Case; 12] = [
            (
                "an orphan's id is proposable again",
                true,
                &[Commit(1, 0, false), See(2, 1, true), Commit(3, 1, false)],
                true,
                false,
                false,
            ),
            (
                "an id the committed proposal names too is not re-queued",
                true,
                &[
                    Commit(1, 0, false),
                    See(2, 1, true),
                    See(3, 1, true),
                    Commit(3, 1, true),
                ],
                false,
                false,
                true,
            ),
            (
                "an id a later, still open proposal names stays named",
                true,
                &[
                    Commit(1, 0, false),
                    See(2, 1, true),
                    See(3, 1, false),
                    See(4, 3, true),
                    Commit(3, 1, false),
                ],
                false,
                false,
                false,
            ),
            (
                "an executed id is not released",
                false,
                &[
                    See(1, 0, true),
                    Commit(1, 0, true),
                    See(2, 1, true),
                    Body,
                    Commit(3, 1, false),
                ],
                false,
                false,
                true,
            ),
            (
                "a committed id still waiting for its body is not released",
                false,
                &[
                    See(1, 0, true),
                    Commit(1, 0, true),
                    See(2, 1, true),
                    Commit(3, 1, false),
                ],
                false,
                true,
                false,
            ),
            (
                "a commit over a parent never seen here releases nothing",
                false,
                &[Commit(1, 0, false), See(2, 1, true), Commit(3, 9, false)],
                false,
                true,
                false,
            ),
            (
                "a commit over a parent seen but never committed here releases nothing",
                false,
                &[
                    Commit(1, 0, false),
                    See(2, 1, true),
                    See(3, 2, false),
                    Commit(4, 3, false),
                ],
                false,
                true,
                false,
            ),
            (
                "a fork commit over an earlier commit releases the proposals in between",
                true,
                &[
                    Commit(1, 0, false),
                    Commit(2, 1, false),
                    See(3, 2, true),
                    Commit(4, 1, false),
                ],
                true,
                false,
                false,
            ),
            (
                "the orphan's fill tracking is kept",
                false,
                &[Commit(1, 0, false), See(2, 1, true), Commit(3, 1, false)],
                true,
                true,
                false,
            ),
            (
                "an orphan that commits late waits for its body, named again",
                false,
                &[
                    Commit(1, 0, false),
                    See(2, 1, true),
                    Commit(3, 1, false),
                    Commit(2, 1, true),
                    Offer,
                ],
                false,
                true,
                false,
            ),
            (
                "and executes when the body arrives",
                false,
                &[
                    Commit(1, 0, false),
                    See(2, 1, true),
                    Commit(3, 1, false),
                    Commit(2, 1, true),
                    Body,
                ],
                false,
                false,
                true,
            ),
            (
                "a late commit leaves the next commit contiguous",
                false,
                &[
                    Commit(1, 0, false),
                    See(2, 1, false),
                    Commit(3, 1, false),
                    Commit(2, 1, false),
                    See(4, 3, true),
                    Commit(5, 3, false),
                ],
                true,
                false,
                false,
            ),
        ];
        for (rule, held, steps, proposable, waits, executed) in cases {
            let expected = (proposable, waits, executed);
            assert_eq!(release_case(held, steps), expected, "{rule}");
        }
        // The controls: before view 3 commits, `x` is named and view 2
        // waits for its body.
        let before = [Commit(1, 0, false), See(2, 1, true)];
        assert_eq!(release_case(false, &before), (false, true, false));
        // A fork over the commit `depth` commits back: views 1 to 20 commit
        // in a chain, view 21 names `x`, and view 22 extends view
        // 21 - depth.  It releases `x` as deep as `KEPT_COMMITS`.
        let fork = |depth: u64| {
            let mut steps: Vec<Step> = (1..=20).map(|v| Commit(v, v - 1, false)).collect();
            steps.extend([See(21, 20, true), Commit(22, 21 - depth, false)]);
            release_case(true, &steps).0
        };
        assert!(fork(1) && fork(KEPT_COMMITS as u64));
        assert!(!fork(KEPT_COMMITS as u64 + 1));
    }

    /// The books of the replicas of an `n`-replica deployment, certifying
    /// at `quorum` signatures.
    fn books(n: usize, quorum: usize) -> Vec<CertificateBook> {
        let seed = SystemConfig::new(n).seed;
        (0..n as u32)
            .map(|i| CertificateBook::new(seed, n, ReplicaId(i), quorum))
            .collect()
    }

    /// The certificate of `id` signed by the replicas `signers`.
    fn certificate(
        books: &[CertificateBook],
        id: MicroblockId,
        signers: std::ops::Range<usize>,
    ) -> QuorumProof {
        let sigs = signers.map(|i| books[i].sign(&id.digest()));
        QuorumProof::from_signatures(id.digest(), sigs)
    }

    #[test]
    fn fetch_candidates_name_a_creator_once_in_first_seen_order() {
        let (a, b, proposer) = (mb(1, 0), mb(2, 0), ReplicaId(3));
        let refs: Vec<MicroblockRef> = [&a, &b, &a]
            .iter()
            .map(|m| MicroblockRef::unproven(m.id, m.creator, m.len() as u32))
            .collect();
        let missing: Vec<&MicroblockRef> = refs.iter().collect();
        assert_eq!(
            creators_then_proposer(&missing, proposer),
            vec![ReplicaId(1), ReplicaId(2), proposer]
        );
        // A proposer that created one of them is not asked twice either.
        assert_eq!(
            creators_then_proposer(&missing, ReplicaId(1)),
            vec![ReplicaId(1), ReplicaId(2)]
        );
    }

    #[test]
    fn fetch_candidates_name_a_certifier_once() {
        use rand::SeedableRng;
        let books = books(7, 3);
        // Three missing references whose certificates share signers.
        let refs: Vec<MicroblockRef> = (0..3u64)
            .map(|i| {
                let id = MicroblockId(Digest::of_u64(i));
                let signers = i as usize..i as usize + 3;
                MicroblockRef::proven(id, ReplicaId(0), 1, certificate(&books, id, signers))
            })
            .collect();
        let missing: Vec<&MicroblockRef> = refs.iter().collect();
        for seed in 0..16 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut pool = certifiers(&missing, ReplicaId(0), ReplicaId(6), &mut rng);
            pool.sort();
            assert_eq!(pool, (1..5).map(ReplicaId).collect::<Vec<_>>());
        }
    }

    #[test]
    fn certificate_freezes_at_the_quorum_th_signature() {
        let books = books(4, 3);
        let id = MicroblockId(Digest::of_u64(7));
        let sigs: Vec<Signature> = books.iter().map(|b| b.sign(&id.digest())).collect();
        let mut book = books[0].clone();
        assert_eq!(book.add(id, sigs[0]), Ok(None));
        assert_eq!(book.add(id, sigs[0]), Ok(None), "repeated signer");
        assert_eq!(book.add(id, sigs[1]), Ok(None));
        assert!(!book.is_certified(&id) && book.get(&id).is_none());
        // A signature over another id is not a signature over this one.
        let other = books[2].sign(&Digest::of_u64(8));
        assert_eq!(book.add(id, other), Err(ProofError::BadSignature(2)));
        let certificate = book.add(id, sigs[2]).unwrap().cloned();
        assert_eq!(
            certificate.as_ref().map(|c| c.signers()),
            Some(vec![0, 1, 2])
        );
        assert_eq!(
            book.add(id, sigs[3]),
            Ok(None),
            "frozen: a fourth adds nothing"
        );
        assert_eq!(book.get(&id), certificate.as_ref());
        // Held whole: only a valid certificate over the same id verifies.
        let (mut fresh, certificate) = (books[3].clone(), certificate.unwrap());
        let other = MicroblockId(Digest::of_u64(8));
        assert!(fresh.verify(&other, &certificate).is_err());
        assert!(fresh.verify(&id, &QuorumProof::new(id.digest())).is_err());
        assert!(fresh.verify(&id, &certificate).is_ok());
        fresh.hold(id, &certificate);
        assert!(fresh.is_certified(&id));
    }

    #[test]
    fn signer_outside_the_replica_set_is_unknown_not_wrapped() {
        let books = books(4, 3);
        let mut book = books[0].clone();
        let id = MicroblockId(Digest::of_u64(7));
        // Replica 1's signature claiming signer 5 (5 % 4 == 1) and one of a
        // key pair the system does not have.
        let mut wrapped = books[1].sign(&id.digest());
        wrapped.signer = 5;
        let seed = SystemConfig::new(4).seed;
        let stranger = Signature::sign(&KeyPair::derive(seed, 9).secret, &id.digest());
        for sig in [wrapped, stranger] {
            assert_eq!(
                book.add(id, sig),
                Err(ProofError::UnknownSigner(sig.signer))
            );
        }
        assert_eq!(book.tracked(), 0, "nothing was counted");
    }

    #[test]
    fn malformed_certificates_are_not_adopted_and_the_held_one_stays() {
        let books = books(4, 3);
        let mut book = books[3].clone();
        let id = MicroblockId(Digest::of_u64(7));
        let held = certificate(&books, id, 0..3);
        let (digest, aggregate) = (held.digest, held.aggregate());
        // Set bits beyond n, no bits, a quorum under an aggregate one bit
        // off, and an aggregate that does not cover a fourth named signer.
        let malformed = [
            (vec![0b1_0111], aggregate),
            (vec![0b0111, 0b1], aggregate),
            (vec![0, 0], aggregate),
            (vec![0b0111], aggregate ^ 1),
            (vec![0b1111], aggregate),
        ];
        for held_already in [false, true] {
            if held_already {
                book.hold(id, &held);
            }
            for (bitmap, aggregate) in &malformed {
                let proof = QuorumProof::from_parts(digest, *aggregate, bitmap).unwrap();
                assert!(book.verify(&id, &proof).is_err());
                assert_eq!(book.get(&id), held_already.then_some(&held));
            }
        }
    }

    #[test]
    fn a_held_certificate_is_accepted_as_held_and_any_other_is_checked_in_full() {
        // n = 7, f = 2: PAB's default quorum f + 1, and the 2f + 1 of
        // Narwhal, D-HS and PAB's largest.
        for quorum in [3, 5] {
            let books = books(7, quorum);
            let (mut book, id) = (books[6].clone(), MicroblockId(Digest::of_u64(7)));
            let held = certificate(&books, id, 0..quorum);
            assert_eq!(book.verify(&id, &held), Ok(Verified::Checked), "none held");
            book.hold(id, &held);
            assert_eq!(book.verify(&id, &held), Ok(Verified::Held), "q = {quorum}");
            // Another valid signer set: checked in full, accepted, not held.
            let other = certificate(&books, id, 7 - quorum..7);
            assert_ne!(other, held);
            assert_eq!(book.verify(&id, &other), Ok(Verified::Checked));
            book.hold(id, &other);
            assert_eq!(book.get(&id), Some(&held));
            // A wrong digest, a bitmap below quorum, a signer bit outside
            // the replica set and a flipped aggregate, none of them held.
            let (digest, aggregate) = (held.digest, held.aggregate());
            let bitmap = |extra: u8| [held.bitmap()[0] | extra];
            let refused = [
                (
                    certificate(&books, MicroblockId(Digest::of_u64(8)), 0..quorum),
                    ProofError::WrongDigest,
                ),
                (
                    certificate(&books, id, 0..quorum - 1),
                    ProofError::QuorumNotReached {
                        have: quorum - 1,
                        need: quorum,
                    },
                ),
                (
                    QuorumProof::from_parts(digest, aggregate, &bitmap(0b1000_0000)).unwrap(),
                    ProofError::UnknownSigner(7),
                ),
                (
                    QuorumProof::from_parts(digest, aggregate ^ 1, &bitmap(0)).unwrap(),
                    ProofError::BadAggregate,
                ),
            ];
            for (proof, error) in refused {
                assert_eq!(book.verify(&id, &proof), Err(error), "q = {quorum}");
                assert_eq!(book.get(&id), Some(&held));
            }
        }
    }

    #[test]
    fn references_are_checked_in_order_and_each_verdict_is_seen() {
        let books = books(4, 3);
        let mut book = books[3].clone();
        let (id, other) = (
            MicroblockId(Digest::of_u64(7)),
            MicroblockId(Digest::of_u64(8)),
        );
        book.hold(id, &certificate(&books, id, 0..3));
        let proven = |id: MicroblockId, proof| MicroblockRef::proven(id, ReplicaId(0), 1, proof);
        let held = proven(id, certificate(&books, id, 0..3));
        let fresh = proven(other, certificate(&books, other, 1..4));
        let forged = proven(other, QuorumProof::new(other.digest()));
        let check = |refs: &[MicroblockRef]| {
            let mut seen = Vec::new();
            (book.verify_refs(refs, |v| seen.push(*v)), seen)
        };
        let checked = Ok(Verified::Checked);
        assert_eq!(
            check(&[held.clone(), fresh.clone()]),
            (Ok(()), vec![Ok(Verified::Held), checked])
        );
        let short = ProofError::QuorumNotReached { have: 0, need: 3 };
        assert_eq!(
            check(&[fresh.clone(), forged, held.clone()]),
            (
                Err(FillStatus::Invalid("invalid availability proof")),
                vec![checked, Err(short)]
            )
        );
        let bare = MicroblockRef::unproven(id, ReplicaId(0), 1);
        assert_eq!(
            check(&[fresh, bare, held]),
            (
                Err(FillStatus::Invalid("reference without availability proof")),
                vec![checked]
            )
        );
    }
}
