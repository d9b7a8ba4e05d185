//! The replica: consensus engine + mempool + workload generation wired
//! onto the network simulator (paper Figure 1).

use crate::wire::{MempoolWire, ReplicaMsg, ReplicaPayload, SyncMsg};
use simnet::{Node, NodeCtx, ObsKind, TimerTag};
use smp_consensus::streamlet::EPOCH_DURATION;
use smp_consensus::{
    CDest, CEffects, CEvent, ConsensusEngine, ConsensusMsg, ProposalVerdict, VIEW_TIMEOUT,
};
use smp_mempool::{Dest, Effects, FillStatus, Mempool, MempoolEvent, BATCH_TIMEOUT};
use smp_metrics::LatencyHistogram;
use smp_types::{
    BlockId, MicroblockId, Payload, Proposal, ReplicaId, SimTime, SystemConfig, TxId, View,
};
use smp_workload::TxFactory;
use std::collections::HashSet;

/// Timer tag used for the client-workload tick.
const TICK_TAG: TimerTag = u64::MAX;
/// Timer tag used for crash-recovery sync retries.  Like [`TICK_TAG`] it
/// has bit 63 set, so `on_timer` must match it *before* testing
/// [`MEMPOOL_TAG_FLAG`].
const SYNC_TAG: TimerTag = u64::MAX - 1;
/// Timer tag of a held view's deadline; bit 63 set, like [`SYNC_TAG`].
const HOLD_TAG: TimerTag = u64::MAX - 2;
/// Bit marking a timer as belonging to the mempool (consensus and workload
/// tags never have it set because they are below 2^63).
const MEMPOOL_TAG_FLAG: u64 = 1 << 63;
/// Interval of the workload tick.
const TICK_INTERVAL: SimTime = 5 * smp_types::MICROS_PER_MS;
/// How often a recovering replica re-asks its peers for the committed
/// tail it is missing.
const SYNC_INTERVAL: SimTime = 200 * smp_types::MICROS_PER_MS;
/// Maximum commit-log entries served in one `SyncResponse` (bounds the
/// frame size; the requester keeps asking from its new tail).
const SYNC_CHUNK: usize = 4_096;
/// How long a leader with nothing to propose holds its view for payload
/// before it proposes an empty block.  Longer than one [`BATCH_TIMEOUT`],
/// so that a steady load never ends a hold empty, and a quarter of
/// [`VIEW_TIMEOUT`] — half of Streamlet's [`EPOCH_DURATION`] — so that
/// followers never time out a held view or epoch.
pub const PAYLOAD_HOLD: SimTime = VIEW_TIMEOUT / 4;
const _: () = assert!(BATCH_TIMEOUT < PAYLOAD_HOLD && PAYLOAD_HOLD < EPOCH_DURATION);

/// How a replica behaves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Behavior {
    /// Follows the protocol.
    Honest,
    /// A Byzantine *sender* (Section VII-C): disseminates its microblocks
    /// only to the current leader plus `extra` additional replicas, so
    /// that honest replicas see proposals referencing data they never
    /// received.
    ByzantineSender {
        /// Number of additional replicas (besides the leader) that still
        /// receive the data.  `0` reproduces the SMP-HS attack; Stratus
        /// attackers must use at least `q - 1` to obtain proofs.
        extra: usize,
    },
}

/// Per-replica measurement state that the observation log does not carry.
/// Commits, view changes and fetches are observations (`ObsKind`), emitted
/// once, and counted from the log.
#[derive(Clone, Debug, Default)]
pub struct ReplicaMetrics {
    /// Commit latency histogram (only populated when `record_latencies`).
    pub latency: LatencyHistogram,
    /// Total transactions this replica received from clients.
    pub client_txs: u64,
}

/// A full replica node: consensus + mempool + client workload.
pub struct Replica<E, M>
where
    E: ConsensusEngine,
    M: Mempool,
    M::Msg: MempoolWire,
{
    me: ReplicaId,
    n: usize,
    engine: E,
    mempool: M,
    behavior: Behavior,
    /// Offered client load for this replica, transactions per second.
    rate_tps: f64,
    factory: TxFactory,
    /// Prioritize consensus / control messages on the wire (the Stratus
    /// optimization; disabled for the baselines).
    prioritize_control: bool,
    record_latencies: bool,
    metrics: ReplicaMetrics,
    /// Proposals whose mempool verification is still pending
    /// (`FillStatus::MustWait`).
    pending_verdicts: HashSet<BlockId>,
    /// Cap on the total client transactions this replica offers (used by
    /// the runtime-conformance harness to make workloads finite).
    tx_limit: Option<u64>,
    /// When enabled, every inline transaction id of every committed
    /// proposal, in commit order.  This is the cross-runtime conformance
    /// artifact: a simnet run and an `smp-net` run of the same
    /// configuration must produce byte-identical logs.  It is an output,
    /// not protocol state: the mempool and the engine let go of what has
    /// committed, the log does not, so index-based `Sync` serves the same
    /// entries as before.  Bounding it (a kept tail plus a snapshot for
    /// whoever asks below it) is ROADMAP's checkpointed-commit-log item.
    commit_log: Option<Vec<TxId>>,
    /// Crash-recovery mode: a freshly exec'd process that rejoined with no
    /// state and replays the committed sequence from live peers.  Without
    /// the votes it cast before, it could vote twice in a view, so it
    /// neither votes nor proposes — it only issues `SyncRequest`s and
    /// applies `SyncResponse`s.  A replica restarted with its state (the
    /// simulator's `Restart`) resumes as a full participant instead.
    recovering: bool,
    /// The view this replica leads and holds for payload, and when the hold
    /// ends.  A leader holds when the engine lets it wait (`may_wait`: no
    /// block in flight has a payload left to commit), the mempool is shared
    /// (a peer's transactions can reach it) and it has nothing to propose.
    /// It proposes on the first payload the mempool has after one of its
    /// calls, or whatever it has at the deadline.
    held: Option<(View, SimTime)>,
}

impl<E, M> Replica<E, M>
where
    E: ConsensusEngine,
    M: Mempool,
    M::Msg: MempoolWire,
{
    /// Builds a replica.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        config: &SystemConfig,
        me: ReplicaId,
        engine: E,
        mempool: M,
        behavior: Behavior,
        rate_tps: f64,
        prioritize_control: bool,
        record_latencies: bool,
    ) -> Self {
        Replica {
            me,
            n: config.n,
            engine,
            mempool,
            behavior,
            rate_tps,
            factory: TxFactory::new(me, config.mempool.tx_payload_bytes),
            prioritize_control,
            record_latencies,
            metrics: ReplicaMetrics::default(),
            pending_verdicts: HashSet::new(),
            tx_limit: None,
            commit_log: None,
            recovering: false,
            held: None,
        }
    }

    /// Marks this replica as a crash-recovery rejoin: `on_start` will
    /// skip the consensus engine and workload and instead replay the
    /// committed sequence from live peers via the `Sync` wire family.
    /// Used by a freshly exec'd process rejoining an in-flight cluster.
    pub fn start_recovery(&mut self) {
        self.recovering = true;
    }

    /// Caps the total number of client transactions this replica offers.
    /// Once `limit` transactions have been generated the workload tick
    /// stops producing (the tick timer keeps running).
    pub fn limit_client_txs(&mut self, limit: u64) {
        self.tx_limit = Some(limit);
    }

    /// Starts recording committed inline transaction ids in commit order.
    pub fn enable_commit_log(&mut self) {
        self.commit_log = Some(Vec::new());
    }

    /// The recorded commit log (`None` unless
    /// [`enable_commit_log`](Self::enable_commit_log) was called).
    pub fn commit_log(&self) -> Option<&[TxId]> {
        self.commit_log.as_deref()
    }

    /// The replica's identity.
    pub fn id(&self) -> ReplicaId {
        self.me
    }

    /// Measurement state.
    pub fn metrics(&self) -> &ReplicaMetrics {
        &self.metrics
    }

    /// The consensus engine (for inspection).
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// The mempool (for inspection).
    pub fn mempool(&self) -> &M {
        &self.mempool
    }

    /// The behaviour assigned to this replica.
    pub fn behavior(&self) -> &Behavior {
        &self.behavior
    }

    // ----- effect application ------------------------------------------------

    fn apply_consensus_effects(&mut self, ctx: &mut NodeCtx<'_, ReplicaMsg<M::Msg>>, fx: CEffects) {
        for (dest, msg) in fx.msgs {
            let wrapped = ReplicaMsg::consensus(msg, self.prioritize_control);
            match dest {
                CDest::One(r) => ctx.send(r, wrapped),
                CDest::AllButSelf => ctx.broadcast(wrapped),
            }
        }
        for (delay, tag) in fx.timers {
            ctx.set_timer(delay, tag);
        }
        for ev in fx.events {
            self.handle_consensus_event(ctx, ev);
        }
    }

    fn handle_consensus_event(&mut self, ctx: &mut NodeCtx<'_, ReplicaMsg<M::Msg>>, ev: CEvent) {
        let now = ctx.now();
        match ev {
            CEvent::NeedPayload { view, may_wait } => {
                let payload = self.make_payload(ctx);
                if payload.is_empty() && may_wait && <M::Msg as MempoolWire>::SHARED {
                    self.held = Some((view, now + PAYLOAD_HOLD));
                    ctx.set_timer(PAYLOAD_HOLD, HOLD_TAG);
                } else {
                    self.propose(ctx, view, payload);
                }
            }
            CEvent::VerifyProposal { proposal } => {
                let span = ctx.telemetry().span_at("replica.verify_proposal", now);
                let (status, mfx) = self.mempool.on_proposal(now, &proposal, ctx.rng());
                drop(span);
                self.apply_mempool_effects(ctx, mfx);
                match status {
                    FillStatus::Ready => {
                        let fx = self.engine.on_proposal_verdict(
                            now,
                            proposal.id,
                            ProposalVerdict::Accept,
                        );
                        self.apply_consensus_effects(ctx, fx);
                    }
                    FillStatus::Invalid(_) => {
                        let fx = self.engine.on_proposal_verdict(
                            now,
                            proposal.id,
                            ProposalVerdict::Reject,
                        );
                        self.apply_consensus_effects(ctx, fx);
                    }
                    FillStatus::MustWait(_) => {
                        // Consensus stays blocked until the mempool reports
                        // the proposal ready (the SMP-HS weakness).
                        self.pending_verdicts.insert(proposal.id);
                    }
                }
            }
            CEvent::Committed { proposal } => {
                self.handle_commit(ctx, proposal);
            }
            CEvent::ViewChange { abandoned } => {
                ctx.observe(ObsKind::ViewChange { view: abandoned.0 });
            }
        }
    }

    fn make_payload(&mut self, ctx: &mut NodeCtx<'_, ReplicaMsg<M::Msg>>) -> Payload {
        let now = ctx.now();
        let _span = ctx.telemetry().span_at("replica.make_payload", now);
        self.mempool.make_payload(now)
    }

    /// Hands `payload` to the engine, then the proposal it made of it to
    /// this replica's own mempool, as every other replica's learns of it.
    fn propose(&mut self, ctx: &mut NodeCtx<'_, ReplicaMsg<M::Msg>>, view: View, payload: Payload) {
        let now = ctx.now();
        let fx = self.engine.on_payload(now, view, payload);
        let own = fx.msgs.iter().find_map(|(_, msg)| match msg {
            ConsensusMsg::Propose(p) => Some(p.clone()),
            _ => None,
        });
        self.apply_consensus_effects(ctx, fx);
        if let Some(proposal) = own {
            let (_, mfx) = self.mempool.on_proposal(now, &proposal, ctx.rng());
            self.apply_mempool_effects(ctx, mfx);
        }
    }

    /// After a mempool call: drops a hold on a view the engine has left,
    /// and ends one with the first payload the mempool has — or with
    /// whatever it has once the hold's deadline has passed.
    fn retry_held(&mut self, ctx: &mut NodeCtx<'_, ReplicaMsg<M::Msg>>) {
        let Some((view, deadline)) = self.held else {
            return;
        };
        if self.engine.current_view() != view {
            self.held = None;
            return;
        }
        let payload = self.make_payload(ctx);
        if !payload.is_empty() || deadline <= ctx.now() {
            self.held = None;
            self.propose(ctx, view, payload);
        }
    }

    fn handle_commit(&mut self, ctx: &mut NodeCtx<'_, ReplicaMsg<M::Msg>>, proposal: Proposal) {
        if let Some(log) = self.commit_log.as_mut() {
            let mempool = &self.mempool;
            record_inline_txs(log, &proposal.payload, &|id| mempool.has_committed(id));
        }
        let now = ctx.now();
        let span = ctx.telemetry().span_at("replica.commit", now);
        let fx = self.mempool.on_commit(now, &proposal);
        drop(span);
        if ctx.telemetry().is_enabled() {
            let size = self.engine.state_size();
            let telemetry = ctx.telemetry();
            telemetry.gauge_set("consensus.chain.blocks", size.blocks as f64);
            telemetry.gauge_set("consensus.tallies", size.tallies as f64);
        }
        self.apply_mempool_effects(ctx, fx);
    }

    fn apply_mempool_effects(
        &mut self,
        ctx: &mut NodeCtx<'_, ReplicaMsg<M::Msg>>,
        fx: Effects<M::Msg>,
    ) {
        for (dest, msg) in fx.msgs {
            self.route_mempool_message(ctx, dest, msg);
        }
        for (delay, tag) in fx.timers {
            ctx.set_timer(delay, tag | MEMPOOL_TAG_FLAG);
        }
        for ev in fx.events {
            self.handle_mempool_event(ctx, ev);
        }
    }

    fn route_mempool_message(
        &mut self,
        ctx: &mut NodeCtx<'_, ReplicaMsg<M::Msg>>,
        dest: Dest,
        msg: M::Msg,
    ) {
        let priority = self.prioritize_control && !msg.is_bulk();
        let wrapped = ReplicaMsg::mempool(msg, priority);
        match (&self.behavior, dest) {
            (Behavior::ByzantineSender { extra }, Dest::AllButSelf)
                if wrapped.payload_is_bulk() =>
            {
                // Censoring sender: only the current leader (plus `extra`
                // random replicas) receive the data.
                let leader = self.engine.current_view().leader(self.n);
                let mut targets: Vec<ReplicaId> = vec![leader];
                let mut candidates: Vec<ReplicaId> = (0..self.n as u32)
                    .map(ReplicaId)
                    .filter(|r| *r != self.me && *r != leader)
                    .collect();
                use rand::seq::SliceRandom;
                candidates.shuffle(ctx.rng());
                targets.extend(candidates.into_iter().take(*extra));
                targets.retain(|r| *r != self.me);
                ctx.multicast(&targets, wrapped);
            }
            (_, Dest::One(r)) => ctx.send(r, wrapped),
            (_, Dest::AllButSelf) => ctx.broadcast(wrapped),
            (_, Dest::Many(targets)) => ctx.multicast(&targets, wrapped),
        }
    }

    fn handle_mempool_event(
        &mut self,
        ctx: &mut NodeCtx<'_, ReplicaMsg<M::Msg>>,
        ev: MempoolEvent,
    ) {
        let now = ctx.now();
        match ev {
            MempoolEvent::ProposalReady { proposal } => {
                if self.pending_verdicts.remove(&proposal) {
                    let fx =
                        self.engine
                            .on_proposal_verdict(now, proposal, ProposalVerdict::Accept);
                    self.apply_consensus_effects(ctx, fx);
                }
            }
            MempoolEvent::MicroblockStable { stable_time, .. } => {
                ctx.observe(ObsKind::MicroblockStable {
                    stable_time_us: stable_time,
                });
            }
            MempoolEvent::Executed {
                tx_count,
                receive_times,
                ..
            } => {
                let latencies = || receive_times.iter().map(|t| now.saturating_sub(*t));
                let telemetry = ctx.telemetry();
                telemetry.counter_add("commit.txs", tx_count as u64);
                if telemetry.is_enabled() {
                    for lat in latencies() {
                        telemetry.observe_us("commit.latency", lat);
                    }
                }
                if self.record_latencies {
                    for lat in latencies() {
                        self.metrics.latency.record(lat);
                    }
                }
                ctx.observe(ObsKind::Committed {
                    txs: tx_count,
                    latency_sum_us: latencies().sum(),
                    latency_count: receive_times.len() as u32,
                });
            }
            MempoolEvent::FetchIssued { count } => {
                ctx.observe(ObsKind::MissingFetch { count });
            }
        }
    }

    // ----- crash-recovery sync ----------------------------------------------

    /// Broadcasts a `SyncRequest` for everything past our current tail.
    fn request_sync(&mut self, ctx: &mut NodeCtx<'_, ReplicaMsg<M::Msg>>) {
        let from_index = self.commit_log.as_ref().map_or(0, Vec::len) as u64;
        ctx.broadcast(ReplicaMsg::sync(SyncMsg::Request { from_index }));
    }

    fn handle_sync(
        &mut self,
        ctx: &mut NodeCtx<'_, ReplicaMsg<M::Msg>>,
        from: ReplicaId,
        msg: SyncMsg,
    ) {
        match msg {
            SyncMsg::Request { from_index } => {
                // Serve from whatever committed prefix we hold (a
                // recovering replica may itself answer with its partial
                // log; committed prefixes never conflict).
                let Some(log) = self.commit_log.as_ref() else {
                    return;
                };
                let from_index = from_index as usize;
                if from_index >= log.len() {
                    return;
                }
                let entries: Vec<TxId> =
                    log[from_index..].iter().take(SYNC_CHUNK).copied().collect();
                ctx.send(
                    from,
                    ReplicaMsg::sync(SyncMsg::Response {
                        from_index: from_index as u64,
                        entries,
                    }),
                );
            }
            SyncMsg::Response {
                from_index,
                entries,
            } => {
                // An honest server sends at most `SYNC_CHUNK` entries; a
                // longer chunk can only come from a hostile peer.
                if !self.recovering || entries.len() > SYNC_CHUNK {
                    return;
                }
                let Some(log) = self.commit_log.as_mut() else {
                    return;
                };
                let from_index = from_index as usize;
                if from_index > log.len() {
                    // A gap: wait for a chunk that starts at our tail.
                    return;
                }
                let skip = log.len() - from_index;
                if skip >= entries.len() {
                    return;
                }
                log.extend_from_slice(&entries[skip..]);
            }
        }
    }
}

/// Appends what `payload` commits to `log`, in payload order (shard
/// groups in group order): an inline transaction's id, or a referenced
/// microblock's id standing in for its transactions, unless `committed`
/// says an earlier commit named the microblock.
fn record_inline_txs(
    log: &mut Vec<TxId>,
    payload: &Payload,
    committed: &dyn Fn(&MicroblockId) -> bool,
) {
    match payload {
        Payload::Inline(txs) => log.extend(txs.iter().map(|t| t.id)),
        // Ref payloads commit whole microblocks; the microblock id digest
        // stands in for its transactions so ref-based protocols (SMP,
        // Narwhal, Stratus) still produce a comparable commit sequence
        // across runtimes.  A microblock executes once, so it is listed
        // once.
        Payload::Refs(refs) => log.extend(
            refs.iter()
                .filter(|r| !committed(&r.id))
                .map(|r| TxId(r.id.0)),
        ),
        Payload::Empty => {}
        Payload::Sharded(groups) => {
            for (_, p) in groups {
                record_inline_txs(log, p, committed);
            }
        }
    }
}

impl<M> ReplicaMsg<M>
where
    M: MempoolWire,
{
    fn payload_is_bulk(&self) -> bool {
        match &self.payload {
            ReplicaPayload::Mempool(m) => m.is_bulk(),
            ReplicaPayload::Consensus(_) => false,
            ReplicaPayload::Sync(s) => s.is_bulk(),
        }
    }
}

impl<E, M> Node for Replica<E, M>
where
    E: ConsensusEngine,
    M: Mempool,
    M::Msg: MempoolWire,
{
    type Msg = ReplicaMsg<M::Msg>;

    fn on_start(&mut self, ctx: &mut NodeCtx<'_, Self::Msg>) {
        if self.recovering {
            // Passive rejoin: don't boot the consensus engine or the
            // workload — ask peers for the committed sequence instead.
            self.request_sync(ctx);
            ctx.set_timer(SYNC_INTERVAL, SYNC_TAG);
            return;
        }
        let fx = self.engine.on_start(ctx.now());
        self.apply_consensus_effects(ctx, fx);
        if self.rate_tps > 0.0 {
            ctx.set_timer(TICK_INTERVAL, TICK_TAG);
        }
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_, Self::Msg>, from: ReplicaId, msg: Self::Msg) {
        let now = ctx.now();
        match msg.payload {
            ReplicaPayload::Sync(sm) => self.handle_sync(ctx, from, sm),
            // A recovering process has no vote state: only Sync is live.
            _ if self.recovering => {}
            ReplicaPayload::Consensus(cm) => {
                let span = ctx.telemetry().span_at("replica.consensus.on_message", now);
                let fx = self.engine.on_message(now, from, cm);
                drop(span);
                self.apply_consensus_effects(ctx, fx);
            }
            ReplicaPayload::Mempool(mm) => {
                let span = ctx.telemetry().span_at("replica.mempool.on_message", now);
                let fx = self.mempool.on_message(now, from, mm, ctx.rng());
                drop(span);
                self.apply_mempool_effects(ctx, fx);
                self.retry_held(ctx);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, Self::Msg>, tag: TimerTag) {
        let now = ctx.now();
        // SYNC_TAG and HOLD_TAG have bit 63 set, so they must be matched
        // before the MEMPOOL_TAG_FLAG test below.  Only a recovering
        // process arms SYNC_TAG, and it arms no other timer.
        if tag == SYNC_TAG {
            self.request_sync(ctx);
            ctx.set_timer(SYNC_INTERVAL, SYNC_TAG);
            return;
        }
        if tag == HOLD_TAG {
            // A hold ended early leaves its deadline timer behind.
            if self.held.is_some_and(|(_, deadline)| deadline <= now) {
                self.retry_held(ctx);
            }
            return;
        }
        if tag == TICK_TAG {
            let mut txs = self.factory.tick(now, TICK_INTERVAL, self.rate_tps);
            if let Some(limit) = self.tx_limit {
                let left = limit.saturating_sub(self.metrics.client_txs) as usize;
                txs.truncate(left);
            }
            if !txs.is_empty() {
                self.metrics.client_txs += txs.len() as u64;
                let fx = self.mempool.on_client_txs(now, txs, ctx.rng());
                self.apply_mempool_effects(ctx, fx);
                self.retry_held(ctx);
            }
            ctx.set_timer(TICK_INTERVAL, TICK_TAG);
        } else if tag & MEMPOOL_TAG_FLAG != 0 {
            let fx = self
                .mempool
                .on_timer(now, tag & !MEMPOOL_TAG_FLAG, ctx.rng());
            self.apply_mempool_effects(ctx, fx);
            self.retry_held(ctx);
        } else {
            let fx = self.engine.on_timer(now, tag);
            self.apply_consensus_effects(ctx, fx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{NodeDriver, Telemetry};
    use smp_consensus::HotStuffEngine;
    use smp_mempool::NativeMempool;
    use smp_types::ClientId;

    type Recovering = NodeDriver<Replica<HotStuffEngine, NativeMempool>>;

    /// Replica 3 of 4, rejoining with an empty commit log.
    fn recovering() -> Recovering {
        let config = SystemConfig::new(4);
        let me = ReplicaId(3);
        let mut replica = Replica::new(
            &config,
            me,
            HotStuffEngine::new(&config, me),
            NativeMempool::new(&config, me),
            Behavior::Honest,
            0.0,
            false,
            false,
        );
        replica.enable_commit_log();
        replica.start_recovery();
        let mut driver = NodeDriver::new(replica, me, config.n, 1, Telemetry::disabled());
        driver.start(0, &mut Vec::new());
        driver
    }

    fn ids(client: u32, range: std::ops::Range<u64>) -> Vec<TxId> {
        range
            .map(|seq| TxId::derive(ClientId(client), seq))
            .collect()
    }

    fn respond(driver: &mut Recovering, from: u32, from_index: u64, entries: Vec<TxId>) {
        let msg = ReplicaMsg::sync(SyncMsg::Response {
            from_index,
            entries,
        });
        driver.deliver(1_000, ReplicaId(from), msg, &mut Vec::new());
    }

    fn log(driver: &Recovering) -> &[TxId] {
        driver.node().commit_log().unwrap()
    }

    #[test]
    fn an_oversize_sync_chunk_is_dropped_and_the_next_valid_one_adopted() {
        let mut driver = recovering();
        let n = SYNC_CHUNK as u64;
        respond(&mut driver, 0, 0, ids(9, 0..n + 1));
        assert!(
            log(&driver).is_empty(),
            "a chunk past SYNC_CHUNK was adopted"
        );
        respond(&mut driver, 1, 0, ids(1, 0..n));
        assert_eq!(log(&driver), &ids(1, 0..n)[..]);
    }

    /// Pins today's gap: a recovering replica adopts whichever chunk for
    /// an index arrives first, from any one peer.  The f + 1 agreement on
    /// a checkpoint in ROADMAP's checkpointed commit log closes it.
    #[test]
    fn conflicting_sync_chunks_are_adopted_first_wins() {
        let mut driver = recovering();
        respond(&mut driver, 0, 0, ids(1, 0..8));
        respond(&mut driver, 1, 0, ids(2, 0..8));
        assert_eq!(log(&driver), &ids(1, 0..8)[..]);
        // An overlapping chunk only appends past the current tail.
        respond(&mut driver, 2, 4, ids(2, 0..8));
        assert_eq!(log(&driver)[..8], ids(1, 0..8)[..]);
        assert_eq!(log(&driver)[8..], ids(2, 4..8)[..]);
    }
}
