//! The Stratus shared mempool (Algorithm 3), tying together PAB, DLB, the
//! stable-time estimator and the data-rate limiter behind the common
//! [`smp_mempool::Mempool`] interface.

use crate::config::StratusConfig;
use crate::dlb::{
    ForwardDecision, LoadBalancer, BANLIST_RESET_INTERVAL, FORWARD_TIMEOUT, SAMPLE_TIMEOUT,
};
use crate::estimator::StableTimeEstimator;
use crate::limiter::{TokenBucket, DATA_BANDWIDTH_SHARE};
use crate::messages::StratusMsg;
use crate::pab::PabEngine;
use rand::rngs::SmallRng;
use smp_crypto::QuorumProof;
use smp_mempool::{
    Deadlines, Dissemination, Effects, FetchWire, FillStatus, LoadSnapshot, Mempool, MempoolEvent,
    MempoolStats, Missing, TimerTag, FETCH_TIMEOUT,
};
use smp_telemetry::Telemetry;
use smp_types::{
    Microblock, MicroblockId, MicroblockRef, Payload, Proposal, ReplicaId, SimTime, SystemConfig,
    Transaction, WireSize,
};

impl FetchWire for StratusMsg {
    fn fetch(ids: Vec<MicroblockId>) -> Self {
        StratusMsg::PabRequest { ids }
    }
    fn fetch_resp(mbs: Vec<Microblock>) -> Self {
        StratusMsg::PabResponse { mbs }
    }
}

/// Timer tag for the periodic banList reset.
pub const BANLIST_RESET_TAG: u64 = 0x4241_4e52;
/// Timer tag of the Stratus deadline table: push retries, the DLB
/// timeouts `τ` and `τ'`, and the limiter's release.
pub const STRATUS_DEADLINE_TAG: u64 = 0x5354_5241; // "STRA"

/// What comes due in the Stratus deadline table.
#[derive(Clone, Debug)]
enum Due {
    /// A push phase still open `δ` after its last send.
    Push(MicroblockId),
    /// The sampling timeout `τ` of a DLB round.
    Sample(u64),
    /// The forward timeout `τ'` of a DLB forward.
    Forward(u64),
    /// A push the limiter held back, due when the bucket holds its tokens.
    Release(Microblock, Option<ReplicaId>),
}

/// The Stratus shared mempool.
#[derive(Clone, Debug)]
pub struct StratusMempool {
    /// The shared dissemination core.  Its proposal queue is the paper's
    /// `avaQue`: microblock ids whose availability proof is known and
    /// which have not yet been referenced by a proposal.
    core: Dissemination,
    n: usize,
    pab: PabEngine,
    lb: LoadBalancer,
    estimator: StableTimeEstimator,
    limiter: TokenBucket,
    /// One entry per push phase in progress, DLB round and forward, and
    /// push the limiter held back.
    deadlines: Deadlines<Due>,
    started: bool,
    /// Whether the periodic banList reset fired since the last
    /// [`Mempool::load_snapshot`] drain, for cross-shard DLB coordination.
    pending_reset: bool,
}

impl StratusMempool {
    /// Creates the Stratus mempool for replica `me`.
    pub fn new(system: &SystemConfig, config: StratusConfig, me: ReplicaId) -> Self {
        let quorum = config.pab_quorum(system.f);
        let bandwidth_bps = system.network.bandwidth_bps();
        StratusMempool {
            core: Dissemination::new(system, me),
            n: system.n,
            pab: PabEngine::new(system.seed, system.n, me, quorum, 0.0),
            lb: LoadBalancer::new(me, system.n, config.dlb),
            estimator: StableTimeEstimator::default(),
            limiter: TokenBucket::for_bandwidth_share(bandwidth_bps, DATA_BANDWIDTH_SHARE),
            deadlines: Deadlines::new(STRATUS_DEADLINE_TAG),
            started: false,
            pending_reset: false,
        }
    }

    /// The PAB availability quorum in use.
    pub fn pab_quorum(&self) -> usize {
        self.pab.book().quorum()
    }

    /// The workload estimator (exposed for tests and reporting).
    pub fn estimator(&self) -> &StableTimeEstimator {
        &self.estimator
    }

    /// The load balancer (exposed for tests and reporting).
    pub fn load_balancer(&self) -> &LoadBalancer {
        &self.lb
    }

    /// Number of availability proofs known locally.
    pub fn proofs_known(&self) -> usize {
        self.pab.book().tracked()
    }

    /// Whether `id` is currently proposable (provably available and not
    /// yet referenced by a proposal seen by this replica).
    pub fn is_proposable(&self, id: &MicroblockId) -> bool {
        self.core.is_proposable(id)
    }

    fn ensure_started(&mut self, effects: &mut Effects<StratusMsg>) {
        if !self.started {
            self.started = true;
            if self.lb.enabled() {
                effects.timer(BANLIST_RESET_INTERVAL, BANLIST_RESET_TAG);
            }
        }
    }

    /// Handles a freshly sealed microblock (the `NEWMB` event of
    /// Algorithm 4): forward it to a proxy if we are busy, otherwise run
    /// the PAB push phase ourselves.
    fn handle_new_microblock(
        &mut self,
        now: SimTime,
        mb: Microblock,
        rng: &mut SmallRng,
        effects: &mut Effects<StratusMsg>,
    ) {
        self.core.hold(&mb);
        if self.lb.enabled() && self.estimator.is_busy() {
            // Cloning is cheap: the transaction batch is shared via `Arc`.
            if let Some((token, targets)) = self.lb.start_sampling(mb.clone(), rng) {
                for t in &targets {
                    effects.send(*t, StratusMsg::LbQuery { token });
                }
                let timeout = Due::Sample(token);
                self.deadlines.insert(now, SAMPLE_TIMEOUT, timeout, effects);
                return;
            }
            // No eligible proxy: fall through to self-broadcast.
        }
        self.start_pab_broadcast(now, mb, None, effects);
    }

    /// Runs the PAB push phase for `mb` unless the token-bucket limiter
    /// holds bulk data back so that control traffic always has headroom
    /// (Section VI, optimization 2); then the push waits in the deadline
    /// table until enough tokens are available.
    fn start_pab_broadcast(
        &mut self,
        now: SimTime,
        mut mb: Microblock,
        origin: Option<ReplicaId>,
        effects: &mut Effects<StratusMsg>,
    ) {
        mb.disseminator = self.core.me();
        let bytes = mb.wire_size() * self.n.saturating_sub(1);
        if !self.limiter.try_consume(now, bytes) {
            let delay = self.limiter.time_until_available(now, bytes).max(1);
            self.deadlines
                .insert(now, delay, Due::Release(mb, origin), effects);
            return;
        }
        self.core.telemetry().counter_inc("pab.push");
        self.pab.start_push(&mb, now, origin);
        let id = mb.id;
        effects.broadcast(StratusMsg::PabMsg(mb));
        self.cancel_push_retry(&id);
        self.deadlines
            .insert(now, FETCH_TIMEOUT, Due::Push(id), effects);
    }

    /// Drops the retry deadline of `id`'s push phase.
    fn cancel_push_retry(&mut self, id: &MicroblockId) {
        let retry = |due: &mut Due| matches!(due, Due::Push(push) if push == id);
        self.deadlines.retain(|due| !retry(due));
    }

    /// Algorithm 2's retry period on the push side: a push phase still
    /// open `δ` after its last send sends the microblock again to the
    /// replicas whose ack is missing, keeping its acks and DLB origin; the
    /// limiter is charged for those copies, or the retry waits for them.
    fn retry_push(&mut self, now: SimTime, id: MicroblockId, effects: &mut Effects<StratusMsg>) {
        let (Some(owed), Some(mb)) = (self.pab.owed(&id), self.core.store().get(&id)) else {
            return;
        };
        let mut mb = mb.clone();
        mb.disseminator = self.core.me();
        let bytes = mb.wire_size() * owed.len();
        if !self.limiter.try_consume(now, bytes) {
            let delay = self.limiter.time_until_available(now, bytes).max(1);
            self.deadlines.insert(now, delay, Due::Push(id), effects);
            return;
        }
        let telemetry = self.core.telemetry();
        telemetry.counter_inc("pab.retry");
        telemetry.counter_add("pab.retry_peers", owed.len() as u64);
        self.pab.resent(&id, now);
        effects.multicast(owed, StratusMsg::PabMsg(mb));
        self.deadlines
            .insert(now, FETCH_TIMEOUT, Due::Push(id), effects);
    }

    /// PAB recovery phase for one proven microblock that is not held
    /// locally (`PAB-Fetch`): ask one of the proof's signers for it, and
    /// the next one `δ` later until it arrives.  Returns whether a request
    /// went out: none if this replica is the only signer, or if a fetch
    /// still open asks for the id already.
    fn fetch_from_signers(
        &mut self,
        now: SimTime,
        id: MicroblockId,
        proof: &QuorumProof,
        rng: &mut SmallRng,
        effects: &mut Effects<StratusMsg>,
    ) -> bool {
        let candidates = self.pab.fetch_candidates(proof, rng);
        if candidates.is_empty() {
            return false;
        }
        let Some(action) = self.core.request(now, vec![id], candidates, effects) else {
            return false;
        };
        effects.send(action.target, StratusMsg::PabRequest { ids: action.ids });
        true
    }

    /// Handles a verified availability proof that this replica should act
    /// on locally: record it, make the microblock proposable, and fetch the
    /// data in the background if we do not have it.  A proof that comes
    /// after its microblock executed here has nothing left to do.
    fn adopt_proof(
        &mut self,
        now: SimTime,
        id: MicroblockId,
        proof: QuorumProof,
        rng: &mut SmallRng,
        effects: &mut Effects<StratusMsg>,
    ) {
        if self.core.is_retired(&id) {
            return;
        }
        self.pab.book_mut().hold(id, &proof);
        self.core.make_proposable(id);
        if !self.core.store().contains(&id)
            && self.fetch_from_signers(now, id, &proof, rng, effects)
        {
            effects.event(MempoolEvent::FetchIssued { count: 1 });
        }
    }

    fn handle_forward_decision(
        &mut self,
        now: SimTime,
        decision: ForwardDecision,
        effects: &mut Effects<StratusMsg>,
    ) {
        match decision {
            ForwardDecision::Forward { proxy, mb, token } => {
                effects.send(proxy, StratusMsg::LbForward(mb));
                let timeout = Due::Forward(token);
                self.deadlines
                    .insert(now, FORWARD_TIMEOUT, timeout, effects);
            }
            ForwardDecision::SelfBroadcast { mb } => {
                self.start_pab_broadcast(now, mb, None, effects);
            }
        }
    }
}

impl Mempool for StratusMempool {
    type Msg = StratusMsg;

    fn on_client_txs(
        &mut self,
        now: SimTime,
        txs: Vec<Transaction>,
        rng: &mut SmallRng,
    ) -> Effects<StratusMsg> {
        let mut effects = Effects::none();
        self.ensure_started(&mut effects);
        for mb in self.core.seal_from_clients(now, txs, &mut effects) {
            self.handle_new_microblock(now, mb, rng, &mut effects);
        }
        effects
    }

    fn on_message(
        &mut self,
        now: SimTime,
        from: ReplicaId,
        msg: StratusMsg,
        rng: &mut SmallRng,
    ) -> Effects<StratusMsg> {
        let mut effects = Effects::none();
        self.ensure_started(&mut effects);
        match msg {
            StratusMsg::PabMsg(mb) => {
                // Acknowledge to the disseminator (push phase, Algorithm 1).
                let (id, sig) = (mb.id, self.pab.book().sign(&mb.id.digest()));
                effects.send(from, StratusMsg::PabAck { id, sig });
                self.core.absorb(now, mb, &mut effects);
            }
            StratusMsg::PabAck { id, sig } => {
                if let Some(ready) = self.pab.on_ack(id, sig, now) {
                    self.cancel_push_retry(&id);
                    let telemetry = self.core.telemetry();
                    telemetry.counter_inc("pab.stable");
                    telemetry.observe_us("pab.stable_time", ready.stable_time);
                    self.estimator.record(ready.stable_time);
                    effects.event(MempoolEvent::MicroblockStable {
                        id,
                        stable_time: ready.stable_time,
                    });
                    match ready.origin {
                        // Proxy: hand the proof back to the original sender,
                        // which takes over the recovery phase (Algorithm 4).
                        Some(origin) if origin != self.core.me() => {
                            effects.send(
                                origin,
                                StratusMsg::PabProof {
                                    id,
                                    proof: ready.proof,
                                },
                            );
                        }
                        // Normal case: broadcast the proof and adopt it.
                        _ => {
                            effects.broadcast(StratusMsg::PabProof {
                                id,
                                proof: ready.proof.clone(),
                            });
                            self.adopt_proof(now, id, ready.proof, rng, &mut effects);
                        }
                    }
                }
            }
            StratusMsg::PabProof { id, proof } => {
                if self.pab.verify_proof(&id, &proof).is_err() {
                    return effects;
                }
                if self.lb.on_proof_received(&id).is_some() {
                    // We are the original sender of a forwarded microblock:
                    // the proxy finished the push phase; take over recovery.
                    effects.broadcast(StratusMsg::PabProof {
                        id,
                        proof: proof.clone(),
                    });
                }
                self.adopt_proof(now, id, proof, rng, &mut effects);
            }
            StratusMsg::PabRequest { ids } => self.core.serve_fetch(from, &ids, &mut effects),
            StratusMsg::PabResponse { mbs } => self.core.absorb_fetched(now, mbs, &mut effects),
            StratusMsg::LbQuery { token } => {
                effects.send(
                    from,
                    StratusMsg::LbInfo {
                        token,
                        stable_time_us: self.estimator.load_status(),
                    },
                );
            }
            StratusMsg::LbInfo {
                token,
                stable_time_us,
            } => {
                if let Some(decision) = self.lb.on_load_info(token, from, stable_time_us) {
                    self.handle_forward_decision(now, decision, &mut effects);
                }
            }
            StratusMsg::LbForward(mb) => {
                // We are the chosen proxy: disseminate on behalf of the
                // original sender (the microblock's creator).
                self.lb.note_proxied();
                let origin = mb.creator;
                self.core.hold(&mb);
                self.start_pab_broadcast(now, mb, Some(origin), &mut effects);
            }
        }
        effects
    }

    fn on_timer(&mut self, now: SimTime, tag: TimerTag, rng: &mut SmallRng) -> Effects<StratusMsg> {
        let mut effects = Effects::none();
        if tag == BANLIST_RESET_TAG {
            self.lb.reset_banlist();
            self.pending_reset = true;
            effects.timer(BANLIST_RESET_INTERVAL, BANLIST_RESET_TAG);
        }
        for due in self.deadlines.fire(tag, now, &mut effects) {
            match due {
                Due::Push(id) => self.retry_push(now, id, &mut effects),
                Due::Sample(token) => {
                    if let Some(decision) = self.lb.on_sample_timeout(token) {
                        self.handle_forward_decision(now, decision, &mut effects);
                    }
                }
                Due::Forward(token) => {
                    if let Some(mb) = self.lb.on_forward_timeout(token) {
                        // The proxy never returned a proof: try again (it
                        // stays on the banList, so a different proxy will
                        // be sampled).
                        self.handle_new_microblock(now, mb, rng, &mut effects);
                    }
                }
                Due::Release(mb, origin) => {
                    self.start_pab_broadcast(now, mb, origin, &mut effects);
                }
            }
        }
        // The retire step drops the proof and the push of every microblock
        // that leaves the store.
        let (pab, lb, deadlines) = (&mut self.pab, &mut self.lb, &mut self.deadlines);
        let sealed = self.core.on_timer(now, tag, &mut effects, |id| {
            pab.forget(id);
            deadlines.retain(|due| !matches!(due, Due::Push(push) if push == id));
            // A forward still open for a microblock that executed: its
            // proxy delivered.
            lb.on_proof_received(id);
        });
        if let Some(mb) = sealed {
            self.handle_new_microblock(now, mb, rng, &mut effects);
        }
        effects
    }

    fn make_payload(&mut self, _now: SimTime) -> Payload {
        // Ids without a known proof, or proven but not yet fetched
        // locally, stay queued for a later proposal.
        let mut skipped = Vec::new();
        let book = self.pab.book();
        let payload = self.core.drain_refs(|id, store| {
            let Some((proof, mb)) = book.get(&id).zip(store.get(&id)) else {
                skipped.push(id);
                return None;
            };
            Some(MicroblockRef::proven(
                id,
                mb.creator,
                mb.len() as u32,
                proof.clone(),
            ))
        });
        for id in skipped {
            self.core.make_proposable(id);
        }
        payload
    }

    fn on_proposal(
        &mut self,
        now: SimTime,
        proposal: &Proposal,
        rng: &mut SmallRng,
    ) -> (FillStatus, Effects<StratusMsg>) {
        let mut effects = Effects::none();
        let refs = match Dissemination::refs_of(proposal) {
            Ok(refs) => refs,
            Err(status) => return (status, effects),
        };
        // Every reference must carry a valid availability proof, otherwise
        // the proposal triggers a view change (Algorithm 3, lines 22-25).
        if let Err(invalid) = self.pab.verify_refs(refs) {
            return (invalid, effects);
        }
        for r in refs.iter().filter(|r| !self.core.is_retired(&r.id)) {
            let proof = r.proof.as_ref().expect("verified above");
            self.pab.book_mut().hold(r.id, proof);
        }
        let missing = self.core.missing(proposal, refs);
        if !missing.is_empty() {
            // Consensus is NOT blocked: the proofs guarantee the data can be
            // recovered in the background (PAB-Provable Availability).
            let ids = missing.iter().map(|r| r.id).collect();
            self.core.track(proposal, ids, Missing::Recoverable);
            for r in &missing {
                let proof = r.proof.as_ref().expect("verified above");
                self.fetch_from_signers(now, r.id, proof, rng, &mut effects);
            }
            effects.event(MempoolEvent::FetchIssued {
                count: missing.len() as u32,
            });
        }
        (FillStatus::Ready, effects)
    }

    fn on_commit(&mut self, now: SimTime, proposal: &Proposal) -> Effects<StratusMsg> {
        let effects = self.core.on_commit(now, proposal);
        let telemetry = self.core.telemetry();
        telemetry.gauge_set("pab.proofs.len", self.pab.book().tracked() as f64);
        telemetry.gauge_set("pab.push.len", self.pab.pushing() as f64);
        effects
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.lb.set_telemetry(telemetry.clone());
        self.pab.set_telemetry(telemetry.clone());
        self.core.set_telemetry(telemetry);
    }

    fn load_snapshot(&mut self) -> Option<LoadSnapshot> {
        if !self.lb.enabled() {
            return None;
        }
        let mut own_bans: Vec<ReplicaId> = self.lb.own_banned().into_iter().collect();
        own_bans.sort();
        Some(LoadSnapshot {
            own_bans,
            reset: std::mem::take(&mut self.pending_reset),
        })
    }

    fn apply_load_view(&mut self, banned: &[ReplicaId]) {
        self.lb.apply_ban_view(&banned.iter().copied().collect());
    }

    fn has_committed(&self, id: &MicroblockId) -> bool {
        self.core.has_committed(id)
    }

    fn stats(&self) -> MempoolStats {
        MempoolStats {
            forwarded_microblocks: self.lb.forwarded_total(),
            ..self.core.stats()
        }
    }
}
