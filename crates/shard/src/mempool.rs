//! The sharded mempool wrapper.

use crate::envelope::ShardedMsg;
use crate::mux::TimerMux;
use crate::router::ShardRouter;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use smp_mempool::{Effects, FillStatus, Mempool, MempoolEvent, MempoolStats, TimerTag};
use smp_telemetry::Telemetry;
use smp_types::{
    BlockId, MicroblockId, MicroblockRef, Payload, Proposal, ReplicaId, SimTime, SystemConfig,
    Transaction, WireSize, SHARD_GROUP_TAG_BYTES,
};
use std::collections::{HashMap, HashSet, VecDeque};

/// One unit of proposable content drained from a shard, waiting to be
/// placed into a cross-shard payload.
#[derive(Clone, Debug)]
enum PayloadItem {
    /// A microblock reference from a shared-mempool backend.
    Ref(u16, MicroblockRef),
    /// An inline transaction from a native backend.
    Tx(u16, Transaction),
}

impl PayloadItem {
    fn shard(&self) -> u16 {
        match self {
            PayloadItem::Ref(s, _) | PayloadItem::Tx(s, _) => *s,
        }
    }

    fn wire_size(&self) -> usize {
        match self {
            PayloadItem::Ref(_, r) => r.wire_size(),
            PayloadItem::Tx(_, t) => t.wire_size(),
        }
    }

    /// Appends shard `shard`'s drained `payload` to `items`.
    fn extend(items: &mut Vec<PayloadItem>, shard: u16, payload: Payload) {
        match payload {
            Payload::Empty => {}
            Payload::Refs(refs) => {
                items.extend(refs.into_iter().map(|r| PayloadItem::Ref(shard, r)))
            }
            Payload::Inline(txs) => {
                items.extend(txs.iter().cloned().map(|t| PayloadItem::Tx(shard, t)))
            }
            // Backends never emit nested sharded payloads; fold the groups
            // in defensively if one ever does.
            Payload::Sharded(groups) => {
                for (_, p) in groups {
                    Self::extend(items, shard, p);
                }
            }
        }
    }
}

/// The per-shard system configuration: the microblock batch budget is
/// divided across the `k` dissemination pipelines (min-clamped to one
/// transaction) so a sharded replica seals the same total bytes per batch
/// interval as an unsharded one instead of `k` times as many.
pub fn per_shard_config(config: &SystemConfig, shards: usize) -> SystemConfig {
    let k = shards.max(1);
    let mut shard_config = config.clone();
    if k > 1 {
        shard_config.mempool.batch_size_bytes = (config.mempool.batch_size_bytes / k)
            .max(config.mempool.tx_payload_bytes)
            .max(1);
    }
    shard_config
}

/// Derives the RNG seed of one shard's private stream.
///
/// `seed` is the system seed, `salt` distinguishes replicas (the replica
/// id in the standard wiring) so peers do not draw correlated streams,
/// and `shard` separates the streams within one replica.
pub fn shard_rng_seed(seed: u64, salt: u64, shard: usize) -> u64 {
    let mut x = seed
        ^ salt.rotate_left(17).wrapping_mul(0xd605_1c99_2958_9b1f)
        ^ (shard as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    // splitmix64 finalizer.
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A shared mempool running `k` independent dissemination pipelines.
///
/// Wraps `k` instances of any backend mempool `M`.  Client transactions
/// are routed to instances by id hash; instance `j` on this replica
/// exchanges messages only with instance `j` on its peers (the
/// [`ShardedMsg`] envelope carries the index).  Proposals assembled by
/// [`Mempool::make_payload`] interleave content from all shards under the
/// configured byte budget, and incoming proposals are filled by fanning
/// per-shard groups back out to the owning instances.
///
/// The instances are called directly, in job order, on the caller's
/// thread; each draws from its own RNG stream ([`shard_rng_seed`]).
pub struct ShardedMempool<M: Mempool> {
    shards: Vec<M>,
    /// Each shard's private RNG stream.  At `k == 1` the caller's RNG is
    /// used instead, keeping one shard a byte-transparent pass-through.
    rngs: Vec<SmallRng>,
    router: ShardRouter,
    mux: TimerMux,
    /// Round-robin start offset for payload assembly, advanced once per
    /// `make_payload` so no shard is systematically favoured when the
    /// byte budget binds.
    cursor: usize,
    /// Byte budget for one cross-shard payload.
    budget: usize,
    /// Content drained from shards that did not fit into the previous
    /// payload; included first in the next one.
    carry: VecDeque<PayloadItem>,
    /// Wire bytes currently held in `carry`, maintained incrementally so
    /// `make_payload` can tell when a full budget's worth is already
    /// backlogged without walking the queue.
    carry_bytes: usize,
    /// For proposals answered with `MustWait`: the shards whose fill is
    /// still outstanding.  The aggregated `ProposalReady` is emitted when
    /// the set drains.
    pending_fills: HashMap<BlockId, HashSet<u16>>,
    /// Merges the per-shard DLB bans (forwards in flight or timed out)
    /// into one coherent cross-shard view after every event-handling
    /// round, so no two shards disagree on banList membership.
    coordinator: stratus::ShardLoadCoordinator,
    /// Whether the backend participates in load coordination — probed
    /// lazily on the first round ([`Mempool::load_snapshot`] returning
    /// `None` everywhere means never coordinate again).
    load_coordinated: Option<bool>,
    /// Observability only; also handed to every shard (re-prefixed
    /// `shard.<i>`) by [`Mempool::set_telemetry`].
    telemetry: Telemetry,
}

impl<M: Mempool> ShardedMempool<M> {
    /// Builds a sharded mempool with `shards` instances produced by
    /// `make`, which receives the shard index and the per-shard
    /// configuration (batch budget divided by `k`, see
    /// [`per_shard_config`]).  Uses RNG salt 0 — in a multi-replica
    /// deployment use [`Self::sequential`] with the replica id so peers
    /// do not draw correlated per-shard streams.
    pub fn new<F: FnMut(usize, &SystemConfig) -> M>(
        config: &SystemConfig,
        shards: usize,
        make: F,
    ) -> Self {
        Self::sequential(config, shards, 0, make)
    }

    /// Builds a sharded mempool that calls every shard on the caller's
    /// thread.  `salt` distinguishes the per-shard RNG streams of
    /// different replicas (pass the replica id).
    pub fn sequential<F: FnMut(usize, &SystemConfig) -> M>(
        config: &SystemConfig,
        shards: usize,
        salt: u64,
        mut make: F,
    ) -> Self {
        let k = shards.max(1);
        let shard_config = per_shard_config(config, k);
        ShardedMempool {
            shards: (0..k).map(|s| make(s, &shard_config)).collect(),
            rngs: (0..k)
                .map(|s| SmallRng::seed_from_u64(shard_rng_seed(config.seed, salt, s)))
                .collect(),
            router: ShardRouter::new(k),
            mux: TimerMux::new(),
            cursor: 0,
            budget: config.mempool.max_proposal_bytes.max(1),
            carry: VecDeque::new(),
            carry_bytes: 0,
            pending_fills: HashMap::new(),
            coordinator: stratus::ShardLoadCoordinator::new(),
            load_coordinated: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// The same as [`Self::sequential`].  Running shards on threads of
    /// their own made every measured call slower for byte-identical
    /// output, so the thread fan-out is gone; the name stays only while
    /// the benchmark package still calls it.
    pub fn parallel<F: FnMut(usize, &SystemConfig) -> M>(
        config: &SystemConfig,
        shards: usize,
        salt: u64,
        make: F,
    ) -> Self {
        Self::sequential(config, shards, salt, make)
    }

    /// Builds a sharded mempool with the shard count from
    /// [`SystemConfig::shards`].  [`SystemConfig::executor`] does not
    /// change the result: both kinds build [`Self::sequential`].
    ///
    /// `salt` distinguishes the per-shard RNG streams of different
    /// replicas — pass the replica id.  Two replicas built with the same
    /// salt draw identical per-shard streams and make correlated random
    /// choices.
    pub fn from_system<F: FnMut(usize, &SystemConfig) -> M>(
        config: &SystemConfig,
        salt: u64,
        make: F,
    ) -> Self {
        Self::sequential(config, config.shards, salt, make)
    }

    /// The router assigning transactions to shards.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Per-shard counters (the [`Mempool::stats`] roll-up, unaggregated).
    pub fn shard_stats(&self) -> Vec<MempoolStats> {
        self.shards.iter().map(Mempool::stats).collect()
    }

    /// Content drained from shards but not yet placed into a payload.
    pub fn carried_items(&self) -> usize {
        self.carry.len()
    }

    /// A specific backend instance (for inspection and tests).
    pub fn shard(&self, index: usize) -> &M {
        &self.shards[index]
    }

    /// The cross-shard load coordinator's merged ban view (for
    /// inspection and tests).
    pub fn coordinated_bans(&self) -> Vec<ReplicaId> {
        self.coordinator.banned()
    }

    /// One coordination round: drain every shard's load snapshot, fold
    /// its own bans into the merged view, and impose that view back on
    /// every shard.  Backends without load balancing are
    /// detected on the first round and skipped forever after.
    fn coordinate_load(&mut self) {
        if self.shards.len() == 1 || self.load_coordinated == Some(false) {
            return;
        }
        let mut any = false;
        for (shard, mp) in self.shards.iter_mut().enumerate() {
            let Some(snap) = mp.load_snapshot() else {
                continue;
            };
            any = true;
            if snap.reset {
                self.coordinator.reset_banlist();
            }
            self.coordinator
                .absorb_bans(shard as u16, snap.own_bans.into_iter().collect());
        }
        if self.load_coordinated.is_none() {
            self.load_coordinated = Some(any);
        }
        if !any {
            return;
        }
        let banned = self.coordinator.banned();
        for mp in &mut self.shards {
            mp.apply_load_view(&banned);
        }
    }

    /// Re-tags effects coming out of shard `shard`: messages get the
    /// envelope, timers go through the multiplexer, and per-shard
    /// `ProposalReady` events are aggregated so consensus sees exactly one
    /// notification per proposal, after the *last* waiting shard fills.
    fn lift(&mut self, shard: u16, fx: Effects<M::Msg>) -> Effects<ShardedMsg<M::Msg>> {
        let mut out = Effects::none();
        for (dest, msg) in fx.msgs {
            out.msgs.push((dest, ShardedMsg::new(shard, msg)));
        }
        for (delay, tag) in fx.timers {
            out.timers.push((delay, self.mux.arm(shard, tag)));
        }
        for ev in fx.events {
            match ev {
                MempoolEvent::ProposalReady { proposal } => {
                    match self.pending_fills.get_mut(&proposal) {
                        Some(waiting) => {
                            waiting.remove(&shard);
                            if waiting.is_empty() {
                                self.pending_fills.remove(&proposal);
                                out.event(MempoolEvent::ProposalReady { proposal });
                            }
                        }
                        // Not tracked (e.g. the backend re-announced):
                        // forward untouched.
                        None => out.event(MempoolEvent::ProposalReady { proposal }),
                    }
                }
                other => out.event(other),
            }
        }
        out
    }

    /// The sub-proposal handed to one shard: same header and id as the
    /// original (so per-shard `ProposalReady` / commit bookkeeping keys
    /// line up), carrying only that shard's payload group.
    fn sub_proposal(proposal: &Proposal, payload: Payload) -> Proposal {
        Proposal {
            view: proposal.view,
            height: proposal.height,
            id: proposal.id,
            parent: proposal.parent,
            proposer: proposal.proposer,
            payload,
            carries_qc: proposal.carries_qc,
        }
    }

    /// Drops carried refs that `proposal` already orders.  The backends
    /// deduplicate their own queues when they see a proposal, but content
    /// sitting in the wrapper-level carry queue is invisible to them —
    /// without this, a ref drained here and then proposed by another
    /// leader would be proposed (and executed) a second time.
    fn prune_carry(&mut self, proposal: &Proposal) {
        if self.carry.is_empty() {
            return;
        }
        fn collect(payload: &Payload, ids: &mut HashSet<smp_types::MicroblockId>) {
            match payload {
                Payload::Refs(refs) => ids.extend(refs.iter().map(|r| r.id)),
                Payload::Sharded(groups) => {
                    for (_, p) in groups {
                        collect(p, ids);
                    }
                }
                _ => {}
            }
        }
        let mut ids = HashSet::new();
        collect(&proposal.payload, &mut ids);
        if ids.is_empty() {
            return;
        }
        self.carry.retain(|item| match item {
            PayloadItem::Ref(_, r) => !ids.contains(&r.id),
            PayloadItem::Tx(..) => true,
        });
        self.carry_bytes = self.carry.iter().map(PayloadItem::wire_size).sum();
    }

    /// Assembles items into per-shard groups under the byte budget; what
    /// does not fit goes back to the carry queue in order.
    fn assemble(&mut self, items: Vec<PayloadItem>) -> Payload {
        let mut order: Vec<u16> = Vec::new();
        let mut refs: HashMap<u16, Vec<MicroblockRef>> = HashMap::new();
        let mut txs: HashMap<u16, Vec<Transaction>> = HashMap::new();
        let mut used = 0usize;
        let mut full = false;
        for item in items {
            if full {
                self.carry_bytes += item.wire_size();
                self.carry.push_back(item);
                continue;
            }
            let shard = item.shard();
            let group_cost = if order.contains(&shard) {
                0
            } else {
                SHARD_GROUP_TAG_BYTES
            };
            let cost = item.wire_size() + group_cost;
            // Always admit the first item so an oversized single item
            // cannot wedge the pipeline.
            if used > 0 && used + cost > self.budget {
                full = true;
                self.carry_bytes += item.wire_size();
                self.carry.push_back(item);
                continue;
            }
            used += cost;
            if !order.contains(&shard) {
                order.push(shard);
            }
            match item {
                PayloadItem::Ref(_, r) => refs.entry(shard).or_default().push(r),
                PayloadItem::Tx(_, t) => txs.entry(shard).or_default().push(t),
            }
        }
        let mut groups: Vec<(u16, Payload)> = Vec::with_capacity(order.len());
        for shard in order {
            if let Some(r) = refs.remove(&shard) {
                groups.push((shard, Payload::Refs(r)));
            }
            if let Some(t) = txs.remove(&shard) {
                groups.push((shard, Payload::inline(t)));
            }
        }
        Payload::sharded(groups)
    }

    /// Runs `f` on each job's shard, in job order on the caller's thread,
    /// and returns `(shard, output)` in the same order.  At `k == 1` the
    /// job draws from `caller_rng` (when given); otherwise every shard
    /// draws from its own stream.
    fn each<J, R>(
        &mut self,
        jobs: Vec<(u16, J)>,
        mut caller_rng: Option<&mut SmallRng>,
        mut f: impl FnMut(&mut M, &mut SmallRng, J) -> R,
    ) -> Vec<(u16, R)> {
        let k = self.shards.len();
        let mut out = Vec::with_capacity(jobs.len());
        for (s, job) in jobs {
            let rng = match caller_rng.as_deref_mut() {
                Some(rng) if k == 1 => rng,
                _ => &mut self.rngs[s as usize],
            };
            out.push((s, f(&mut self.shards[s as usize], rng, job)));
        }
        out
    }

    /// Runs event-handler jobs, lifts their effects in job order, and
    /// then runs a load-coordination round.
    fn run_effects<J>(
        &mut self,
        jobs: Vec<(u16, J)>,
        rng: Option<&mut SmallRng>,
        f: impl FnMut(&mut M, &mut SmallRng, J) -> Effects<M::Msg>,
    ) -> Effects<ShardedMsg<M::Msg>> {
        if jobs.is_empty() {
            return Effects::none();
        }
        let _span = self.telemetry.span("sharded.exec");
        let outputs = self.each(jobs, rng, f);
        drop(_span);
        let mut out = Effects::none();
        for (shard, fx) in outputs {
            out.merge(self.lift(shard, fx));
        }
        // Event handling may have changed a shard's DLB state (an LbInfo
        // reply arrived, a forward went out, the reset fired): fold it
        // into the merged view before control returns to the replica.
        self.coordinate_load();
        out
    }

    /// Drains every shard's proposable content (round-robin from the
    /// current cursor) into the item queue, after any carried-over items.
    ///
    /// When the carry queue already holds a full budget's worth of
    /// content, shards are left untouched: their content stays inside the
    /// backend (which deduplicates against committed proposals) instead
    /// of accumulating without bound in the carry queue under sustained
    /// overload.
    fn drain_shards(&mut self, now: SimTime) -> Vec<PayloadItem> {
        let k = self.shards.len();
        let backlogged = self.carry_bytes >= self.budget;
        let mut items: Vec<PayloadItem> = self.carry.drain(..).collect();
        self.carry_bytes = 0;
        if backlogged {
            return items;
        }
        let jobs = (0..k)
            .map(|off| (((self.cursor + off) % k) as u16, ()))
            .collect();
        for (s, payload) in self.each(jobs, None, |mp, _, ()| mp.make_payload(now)) {
            PayloadItem::extend(&mut items, s, payload);
        }
        self.cursor = (self.cursor + 1) % k;
        items
    }
}

impl<M: Mempool> Mempool for ShardedMempool<M> {
    type Msg = ShardedMsg<M::Msg>;

    fn on_client_txs(
        &mut self,
        now: SimTime,
        txs: Vec<Transaction>,
        rng: &mut SmallRng,
    ) -> Effects<Self::Msg> {
        let jobs = self
            .router
            .partition(txs)
            .into_iter()
            .map(|(shard, group)| (shard as u16, group))
            .collect();
        self.run_effects(jobs, Some(rng), |mp, rng, txs| {
            mp.on_client_txs(now, txs, rng)
        })
    }

    fn on_message(
        &mut self,
        now: SimTime,
        from: ReplicaId,
        msg: Self::Msg,
        rng: &mut SmallRng,
    ) -> Effects<Self::Msg> {
        if msg.shard as usize >= self.shards.len() {
            // A peer with a different shard count is misconfigured (or
            // Byzantine); drop the message rather than panic.
            return Effects::none();
        }
        let jobs = vec![(msg.shard, msg.inner)];
        self.run_effects(jobs, Some(rng), |mp, rng, inner| {
            mp.on_message(now, from, inner, rng)
        })
    }

    fn on_timer(&mut self, now: SimTime, tag: TimerTag, rng: &mut SmallRng) -> Effects<Self::Msg> {
        match self.mux.fire(tag) {
            Some((shard, inner)) => {
                self.run_effects(vec![(shard, inner)], Some(rng), |mp, rng, tag| {
                    mp.on_timer(now, tag, rng)
                })
            }
            None => Effects::none(),
        }
    }

    fn make_payload(&mut self, now: SimTime) -> Payload {
        if self.shards.len() == 1 && self.carry.is_empty() {
            // Transparent fast path: one shard proposes exactly what the
            // unwrapped backend would.
            return self.shards[0].make_payload(now);
        }
        let _span = self.telemetry.span_at("sharded.make_payload", now);
        let items = self.drain_shards(now);
        let payload = self.assemble(items);
        self.telemetry
            .gauge_set("sharded.carry_items", self.carry.len() as f64);
        self.telemetry
            .gauge_set("sharded.carry_bytes", self.carry_bytes as f64);
        payload
    }

    fn on_proposal(
        &mut self,
        now: SimTime,
        proposal: &Proposal,
        rng: &mut SmallRng,
    ) -> (FillStatus, Effects<Self::Msg>) {
        self.prune_carry(proposal);
        let Payload::Sharded(groups) = &proposal.payload else {
            // Empty / inline / single-shard payloads belong to shard 0.
            let (_, (status, fx)) = self
                .each(vec![(0, ())], Some(rng), |mp, rng, ()| {
                    mp.on_proposal(now, proposal, rng)
                })
                .remove(0);
            if matches!(status, FillStatus::MustWait(_)) {
                self.pending_fills
                    .insert(proposal.id, HashSet::from([0u16]));
            }
            return (status, self.lift(0, fx));
        };
        if groups
            .iter()
            .any(|(shard, _)| *shard as usize >= self.shards.len())
        {
            return (
                FillStatus::Invalid("unknown shard in proposal"),
                Effects::none(),
            );
        }
        // Every referenced shard verifies its group; the verdicts are
        // aggregated afterwards.
        let jobs = groups
            .iter()
            .map(|(shard, sub)| (*shard, Self::sub_proposal(proposal, sub.clone())))
            .collect();
        let outputs = self.each(jobs, Some(rng), |mp, rng, sub| {
            mp.on_proposal(now, &sub, rng)
        });
        let mut out = Effects::none();
        let mut missing = Vec::new();
        let mut waiting: HashSet<u16> = HashSet::new();
        let mut invalid: Option<&'static str> = None;
        for (shard, (status, fx)) in outputs {
            out.merge(self.lift(shard, fx));
            match status {
                FillStatus::Ready => {}
                FillStatus::MustWait(ids) => {
                    missing.extend(ids);
                    waiting.insert(shard);
                }
                FillStatus::Invalid(reason) => {
                    invalid.get_or_insert(reason);
                }
            }
        }
        if let Some(reason) = invalid {
            // Waiting shards are deliberately NOT registered in
            // `pending_fills`: consensus rejects the proposal, so a shard's
            // later per-shard `ProposalReady` is forwarded untracked and
            // dropped by the replica's `pending_verdicts` guard (same as a
            // backend re-announce), while registering it here would leak
            // an entry for a proposal that never commits.
            return (FillStatus::Invalid(reason), out);
        }
        if waiting.is_empty() {
            (FillStatus::Ready, out)
        } else {
            self.pending_fills.insert(proposal.id, waiting);
            (FillStatus::MustWait(missing), out)
        }
    }

    fn on_commit(&mut self, now: SimTime, proposal: &Proposal) -> Effects<Self::Msg> {
        self.pending_fills.remove(&proposal.id);
        self.prune_carry(proposal);
        let jobs = match &proposal.payload {
            Payload::Sharded(groups) => groups
                .iter()
                .filter(|(shard, _)| (*shard as usize) < self.shards.len())
                .map(|(shard, sub)| (*shard, Self::sub_proposal(proposal, sub.clone())))
                .collect(),
            _ => vec![(0, proposal.clone())],
        };
        self.run_effects(jobs, None, |mp, _, sub| mp.on_commit(now, &sub))
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        for (i, shard) in self.shards.iter_mut().enumerate() {
            shard.set_telemetry(telemetry.with_prefix(&format!("shard.{i}")));
        }
        self.telemetry = telemetry;
    }

    fn has_committed(&self, id: &MicroblockId) -> bool {
        self.shards.iter().any(|mp| mp.has_committed(id))
    }

    fn stats(&self) -> MempoolStats {
        let mut total = MempoolStats::default();
        for st in self.shard_stats() {
            total.unbatched_txs += st.unbatched_txs;
            total.stored_microblocks += st.stored_microblocks;
            total.proposable_microblocks += st.proposable_microblocks;
            total.created_microblocks += st.created_microblocks;
            total.forwarded_microblocks += st.forwarded_microblocks;
            total.fetches_issued += st.fetches_issued;
            total.retired_microblocks += st.retired_microblocks;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_rng_seeds_are_distinct() {
        let mut seen = HashSet::new();
        for salt in 0..8u64 {
            for shard in 0..8usize {
                assert!(seen.insert(shard_rng_seed(42, salt, shard)));
            }
        }
    }
}
