//! Distributed load balancing (DLB) — Algorithm 4 of the paper.
//!
//! A busy replica forwards freshly sealed microblocks to a *proxy* chosen
//! with power-of-d-choices sampling: it queries `d` random peers for their
//! load status, picks the least loaded one, and hands it the microblock to
//! disseminate through PAB on its behalf.  The proxy must return the
//! availability proof before a timeout `τ'`, otherwise the microblock is
//! re-forwarded; proxies that are in flight sit on a banList so they are
//! not chosen twice concurrently (and Byzantine proxies that swallow
//! microblocks stay banned until the periodic reset).

use crate::config::DlbConfig;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use smp_crypto::DigestMap;
use smp_telemetry::Telemetry;
use smp_types::{Microblock, MicroblockId, ReplicaId, SimTime};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Decision produced when a sampling round completes.
#[derive(Clone, Debug, PartialEq)]
pub enum ForwardDecision {
    /// Forward the microblock to this proxy.
    Forward {
        /// The chosen proxy.
        proxy: ReplicaId,
        /// The microblock to forward.
        mb: Microblock,
        /// Token identifying the forward (for the `τ'` timer).
        token: u64,
    },
    /// No usable proxy: disseminate the microblock yourself.
    SelfBroadcast {
        /// The microblock to broadcast.
        mb: Microblock,
    },
}

#[derive(Clone, Debug)]
struct SampleRound {
    mb: Microblock,
    targets: Vec<ReplicaId>,
    replies: HashMap<ReplicaId, Option<SimTime>>,
    decided: bool,
}

#[derive(Clone, Debug)]
struct PendingForward {
    mb: Microblock,
    proxy: ReplicaId,
}

/// The load-forwarding state machine of one replica.
#[derive(Clone, Debug)]
pub struct LoadBalancer {
    me: ReplicaId,
    n: usize,
    config: DlbConfig,
    /// Peers this balancer banned itself (forwards in flight / timed
    /// out).  Owned bans are lifted by `on_proof_received`.
    banlist: HashSet<ReplicaId>,
    /// The coherent ban view imposed by a [`ShardLoadCoordinator`],
    /// replaced wholesale on every `apply_ban_view`.  Kept separate from
    /// the owned bans so a stale imposed view can never make an owned
    /// ban permanent (or vice versa).
    imposed: HashSet<ReplicaId>,
    samples: HashMap<u64, SampleRound>,
    forwards: HashMap<u64, PendingForward>,
    forwarded_by_id: DigestMap<MicroblockId, u64>,
    next_token: u64,
    forwarded_total: u64,
    proxied_total: u64,
    /// Observability only — never consulted by any decision path.
    telemetry: Telemetry,
}

impl LoadBalancer {
    /// Creates the load balancer for replica `me` in a system of `n`.
    pub fn new(me: ReplicaId, n: usize, config: DlbConfig) -> Self {
        LoadBalancer {
            me,
            n,
            config,
            banlist: HashSet::new(),
            imposed: HashSet::new(),
            samples: HashMap::new(),
            forwards: HashMap::new(),
            forwarded_by_id: DigestMap::default(),
            next_token: 1,
            forwarded_total: 0,
            proxied_total: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Installs a telemetry handle (counters only; decisions are
    /// unaffected whether the handle is live or disabled).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Whether load balancing is enabled.
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// Number of microblocks forwarded to proxies so far.
    pub fn forwarded_total(&self) -> u64 {
        self.forwarded_total
    }

    /// Number of microblocks disseminated on behalf of other replicas.
    pub fn proxied_total(&self) -> u64 {
        self.proxied_total
    }

    /// Records that this replica disseminated a microblock for someone else.
    pub fn note_proxied(&mut self) {
        self.proxied_total += 1;
    }

    /// Current effective banList contents — the union of owned and
    /// imposed bans (for sampling, tests and reporting).
    pub fn banned(&self) -> Vec<ReplicaId> {
        let mut v: Vec<ReplicaId> = self.banlist.union(&self.imposed).copied().collect();
        v.sort();
        v
    }

    /// The bans this balancer created itself (forwards in flight or
    /// timed out) — the contribution a [`ShardLoadCoordinator`] absorbs.
    /// Imposed bans are excluded so absorbing after a sync cannot echo
    /// the coordinator's own view back as fresh evidence.
    pub fn own_banned(&self) -> HashSet<ReplicaId> {
        self.banlist.clone()
    }

    /// Whether a peer is currently banned (owned or imposed).
    pub fn is_banned(&self, peer: ReplicaId) -> bool {
        self.banlist.contains(&peer) || self.imposed.contains(&peer)
    }

    /// Replaces the imposed ban view with a coordinator-supplied
    /// coherent one.  Owned bans are untouched: a proxy with an
    /// outstanding forward from *this* balancer stays banned here even
    /// if the coordinator's view lags.
    pub fn apply_ban_view(&mut self, banned: &HashSet<ReplicaId>) {
        self.imposed = banned.iter().copied().filter(|r| *r != self.me).collect();
    }

    /// Begins a sampling round for `mb`: returns the token and the peers
    /// to query, or `None` if no candidate peers exist (caller broadcasts
    /// the microblock itself).
    pub fn start_sampling(
        &mut self,
        mb: Microblock,
        rng: &mut SmallRng,
    ) -> Option<(u64, Vec<ReplicaId>)> {
        let mut candidates: Vec<ReplicaId> = (0..self.n as u32)
            .map(ReplicaId)
            .filter(|r| *r != self.me && !self.is_banned(*r))
            .collect();
        if candidates.is_empty() {
            return None;
        }
        candidates.shuffle(rng);
        candidates.truncate(self.config.d);
        let token = self.next_token;
        self.next_token += 1;
        self.samples.insert(
            token,
            SampleRound {
                mb,
                targets: candidates.clone(),
                replies: HashMap::new(),
                decided: false,
            },
        );
        Some((token, candidates))
    }

    /// Records a load-status reply.  Returns a decision once every queried
    /// peer has answered.
    pub fn on_load_info(
        &mut self,
        token: u64,
        from: ReplicaId,
        status: Option<SimTime>,
    ) -> Option<ForwardDecision> {
        let round = self.samples.get_mut(&token)?;
        if round.decided || !round.targets.contains(&from) {
            return None;
        }
        round.replies.insert(from, status);
        if round.replies.len() < round.targets.len() {
            return None;
        }
        self.decide(token)
    }

    /// Handles the sampling timeout `τ`: decide with whatever replies have
    /// arrived.
    pub fn on_sample_timeout(&mut self, token: u64) -> Option<ForwardDecision> {
        self.decide(token)
    }

    fn decide(&mut self, token: u64) -> Option<ForwardDecision> {
        let round = self.samples.get_mut(&token)?;
        if round.decided {
            self.samples.remove(&token);
            return None;
        }
        round.decided = true;
        let round = self.samples.remove(&token).expect("round exists");
        let best = round
            .replies
            .iter()
            .filter_map(|(r, s)| s.map(|w| (w, *r)))
            // Equal loads go to the lowest id, not to whichever reply the
            // map happens to iterate first.
            .min()
            .map(|(_, r)| r);
        match best {
            Some(proxy) => {
                // Every chosen proxy goes on the banList until it returns a
                // proof (Algorithm 4, lines 17 and 21).
                self.banlist.insert(proxy);
                let token = self.next_token;
                self.next_token += 1;
                self.forwards.insert(
                    token,
                    PendingForward {
                        mb: round.mb.clone(),
                        proxy,
                    },
                );
                self.forwarded_by_id.insert(round.mb.id, token);
                self.forwarded_total += 1;
                self.telemetry.counter_inc("dlb.forwarded");
                Some(ForwardDecision::Forward {
                    proxy,
                    mb: round.mb,
                    token,
                })
            }
            None => {
                self.telemetry.counter_inc("dlb.self_broadcast");
                Some(ForwardDecision::SelfBroadcast { mb: round.mb })
            }
        }
    }

    /// Records that the availability proof for a forwarded microblock came
    /// back in time: the proxy is removed from the banList.  Returns the
    /// proxy that is now unbanned.
    pub fn on_proof_received(&mut self, id: &MicroblockId) -> Option<ReplicaId> {
        let token = self.forwarded_by_id.remove(id)?;
        let pending = self.forwards.remove(&token)?;
        self.banlist.remove(&pending.proxy);
        self.telemetry.counter_inc("dlb.unbans");
        Some(pending.proxy)
    }

    /// Handles the forward timeout `τ'`: if the proof never arrived the
    /// microblock must be re-forwarded (the proxy stays banned).
    pub fn on_forward_timeout(&mut self, token: u64) -> Option<Microblock> {
        let pending = self.forwards.remove(&token)?;
        self.forwarded_by_id.remove(&pending.mb.id);
        Some(pending.mb)
    }

    /// Clears the banList — owned and imposed (periodic reset,
    /// Algorithm 4 line 33).
    pub fn reset_banlist(&mut self) {
        self.banlist.clear();
        self.imposed.clear();
        self.telemetry.counter_inc("dlb.banlist_reset");
    }

    /// The banList reset interval from the configuration.
    pub fn banlist_reset_interval(&self) -> SimTime {
        self.config.banlist_reset_interval
    }

    /// The sampling timeout `τ`.
    pub fn sample_timeout(&self) -> SimTime {
        self.config.sample_timeout
    }

    /// The forward timeout `τ'`.
    pub fn forward_timeout(&self) -> SimTime {
        self.config.forward_timeout
    }
}

/// Merges the ban views of the per-shard [`LoadBalancer`]s of a sharded
/// replica (`smp-shard`'s k dissemination pipelines).
///
/// Forward decisions stay shard-local ([`LoadBalancer`] samples and picks
/// its own proxy); what the shards must share is the banList.  Without
/// it, shard `a` may ban proxy `P` (forward in flight) while shard `b` —
/// which never sampled `P` — happily forwards to it too, defeating the
/// banList's purpose of never loading one proxy twice concurrently.  So
/// after every event-handling round the sharded wrapper
///
/// 1. hands each shard's *own* bans to [`absorb_bans`](Self::absorb_bans)
///    (and calls [`reset_banlist`](Self::reset_banlist) if a shard's
///    periodic reset fired), then
/// 2. imposes the merged view, [`banned`](Self::banned), on every shard
///    through [`LoadBalancer::apply_ban_view`], so no shard disagrees on
///    `banned()` membership.
///
/// The sharded wrapper calls its shards in a fixed order, so running
/// both steps after each round keeps coordination deterministic.
#[derive(Clone, Debug, Default)]
pub struct ShardLoadCoordinator {
    /// Each shard's own-ban contribution, **replaced** on every
    /// [`absorb_bans`](Self::absorb_bans) so a ban lifted inside a shard
    /// (proof returned) disappears from the merged view at the next round
    /// instead of sticking forever.
    shard_bans: HashMap<u16, HashSet<ReplicaId>>,
}

impl ShardLoadCoordinator {
    /// An empty coordinator.
    pub fn new() -> Self {
        ShardLoadCoordinator::default()
    }

    /// The merged banList, sorted.
    pub fn banned(&self) -> Vec<ReplicaId> {
        let merged: BTreeSet<ReplicaId> = self.shard_bans.values().flatten().copied().collect();
        merged.into_iter().collect()
    }

    /// Clears the merged banList (the periodic reset, imposed on every
    /// shard with the next merged view).
    pub fn reset_banlist(&mut self) {
        self.shard_bans.clear();
    }

    /// Replaces `shard`'s contribution to the merged view with its
    /// balancer's current *own* bans (forwards in flight or timed out —
    /// [`LoadBalancer::own_banned`]).  Bans the shard has since lifted
    /// drop out of the merged view here.
    pub fn absorb_bans(&mut self, shard: u16, bans: HashSet<ReplicaId>) {
        self.shard_bans.insert(shard, bans);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use smp_types::{ClientId, Transaction};

    fn mb(creator: u32, seq: u64) -> Microblock {
        let txs = vec![Transaction::synthetic(ClientId(creator), seq, 128, 0)];
        Microblock::seal(ReplicaId(creator), txs, 0)
    }

    fn lb(d: usize) -> LoadBalancer {
        LoadBalancer::new(ReplicaId(0), 10, DlbConfig::default().with_d(d))
    }

    #[test]
    fn sampling_targets_exclude_self_and_banned() {
        let mut lb = lb(3);
        let mut rng = SmallRng::seed_from_u64(1);
        let (_, targets) = lb.start_sampling(mb(0, 0), &mut rng).unwrap();
        assert_eq!(targets.len(), 3);
        assert!(!targets.contains(&ReplicaId(0)));
    }

    #[test]
    fn least_loaded_replica_wins() {
        let mut lb = lb(3);
        let mut rng = SmallRng::seed_from_u64(2);
        let (token, targets) = lb.start_sampling(mb(0, 1), &mut rng).unwrap();
        assert!(lb.on_load_info(token, targets[0], Some(500)).is_none());
        assert!(lb.on_load_info(token, targets[1], Some(100)).is_none());
        let decision = lb.on_load_info(token, targets[2], Some(900)).unwrap();
        match decision {
            ForwardDecision::Forward { proxy, .. } => assert_eq!(proxy, targets[1]),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(lb.forwarded_total(), 1);
        assert_eq!(lb.banned(), vec![targets[1]]);
    }

    #[test]
    fn equal_loads_choose_the_lowest_replica_id() {
        // Every `HashMap` hashes with its own keys: a tie broken by the
        // reply map's iteration order would differ from round to round.
        let mut rng = SmallRng::seed_from_u64(5);
        for seq in 0..16 {
            let mut lb = lb(4);
            let (token, targets) = lb.start_sampling(mb(0, seq), &mut rng).unwrap();
            let mut decision = None;
            for t in &targets {
                decision = lb.on_load_info(token, *t, Some(300));
            }
            match decision {
                Some(ForwardDecision::Forward { proxy, .. }) => {
                    assert_eq!(Some(&proxy), targets.iter().min())
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn busy_replies_are_skipped_and_all_busy_means_self_broadcast() {
        let mut lb = lb(2);
        let mut rng = SmallRng::seed_from_u64(3);
        let (token, targets) = lb.start_sampling(mb(0, 2), &mut rng).unwrap();
        lb.on_load_info(token, targets[0], None);
        let decision = lb.on_load_info(token, targets[1], None).unwrap();
        assert!(matches!(decision, ForwardDecision::SelfBroadcast { .. }));
        assert_eq!(lb.forwarded_total(), 0);
    }

    #[test]
    fn sample_timeout_decides_with_partial_replies() {
        let mut lb = lb(3);
        let mut rng = SmallRng::seed_from_u64(4);
        let (token, targets) = lb.start_sampling(mb(0, 3), &mut rng).unwrap();
        lb.on_load_info(token, targets[0], Some(250));
        let decision = lb.on_sample_timeout(token).unwrap();
        match decision {
            ForwardDecision::Forward { proxy, .. } => assert_eq!(proxy, targets[0]),
            other => panic!("unexpected {other:?}"),
        }
        // The timeout can only decide once.
        assert!(lb.on_sample_timeout(token).is_none());
    }

    #[test]
    fn proof_receipt_unbans_proxy() {
        let mut lb = lb(1);
        let mut rng = SmallRng::seed_from_u64(5);
        let m = mb(0, 4);
        let (token, targets) = lb.start_sampling(m.clone(), &mut rng).unwrap();
        let decision = lb.on_load_info(token, targets[0], Some(10)).unwrap();
        let proxy = match decision {
            ForwardDecision::Forward { proxy, .. } => proxy,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(lb.banned(), vec![proxy]);
        assert_eq!(lb.on_proof_received(&m.id), Some(proxy));
        assert!(lb.banned().is_empty());
    }

    #[test]
    fn forward_timeout_returns_microblock_and_keeps_ban() {
        let mut lb = lb(1);
        let mut rng = SmallRng::seed_from_u64(6);
        let m = mb(0, 5);
        let (token, targets) = lb.start_sampling(m.clone(), &mut rng).unwrap();
        let decision = lb.on_load_info(token, targets[0], Some(10)).unwrap();
        let fwd_token = match decision {
            ForwardDecision::Forward { token, .. } => token,
            other => panic!("unexpected {other:?}"),
        };
        let back = lb.on_forward_timeout(fwd_token).unwrap();
        assert_eq!(back.id, m.id);
        // The unresponsive proxy stays banned until the periodic reset.
        assert_eq!(lb.banned().len(), 1);
        lb.reset_banlist();
        assert!(lb.banned().is_empty());
        // After the timeout the proof no longer unbans anything.
        assert_eq!(lb.on_proof_received(&m.id), None);
    }

    /// Imposes the coordinator's merged view on every shard.
    fn impose(coord: &ShardLoadCoordinator, shards: &mut [LoadBalancer]) {
        let view: HashSet<ReplicaId> = coord.banned().into_iter().collect();
        for lb in shards {
            lb.apply_ban_view(&view);
        }
    }

    /// One coordination round, as the sharded wrapper runs it: absorb
    /// every shard's own bans, then impose the merged view on every shard.
    fn round(coord: &mut ShardLoadCoordinator, shards: &mut [LoadBalancer]) {
        for (i, lb) in shards.iter().enumerate() {
            coord.absorb_bans(i as u16, lb.own_banned());
        }
        impose(coord, shards);
    }

    #[test]
    fn absorb_and_sync_leave_no_shard_disagreeing_on_bans() {
        // Four shard-local balancers; shard 0 forwards to a proxy and
        // bans it locally — the other shards know nothing about it.
        let n = 10;
        let mut shards: Vec<LoadBalancer> = (0..4)
            .map(|_| LoadBalancer::new(ReplicaId(0), n, DlbConfig::default().with_d(1)))
            .collect();
        let mut rng = SmallRng::seed_from_u64(11);
        let (token, targets) = shards[0].start_sampling(mb(0, 0), &mut rng).unwrap();
        let decision = shards[0].on_load_info(token, targets[0], Some(10)).unwrap();
        let proxy = match decision {
            ForwardDecision::Forward { proxy, .. } => proxy,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(shards[0].banned(), vec![proxy]);
        assert!(
            shards[1..].iter().all(|lb| lb.banned().is_empty()),
            "shard-local views disagree before coordination"
        );

        // Coordination round: absorb every shard, sync every shard.
        let mut coord = ShardLoadCoordinator::new();
        round(&mut coord, &mut shards);
        for (i, lb) in shards.iter().enumerate() {
            assert_eq!(
                lb.banned(),
                vec![proxy],
                "shard {i} disagrees on banned() membership after sync"
            );
            assert!(lb.is_banned(proxy));
        }

        // No shard will sample the coordinated ban, even those that
        // never talked to the proxy themselves.
        for lb in &mut shards {
            for _ in 0..20 {
                if let Some((_, targets)) = lb.start_sampling(mb(0, 1), &mut rng) {
                    assert!(!targets.contains(&proxy));
                }
            }
        }

        // The periodic reset clears the *imposed* view everywhere; the
        // forwarding shard's own in-flight ban rightly survives until
        // its proof returns or its own periodic reset fires.
        coord.reset_banlist();
        impose(&coord, &mut shards);
        assert_eq!(shards[0].banned(), vec![proxy], "own ban survives");
        for (i, lb) in shards.iter().enumerate().skip(1) {
            assert!(lb.banned().is_empty(), "imposed ban on shard {i} cleared");
        }
        shards[0].reset_banlist();
        assert!(shards[0].banned().is_empty());
    }

    #[test]
    fn lifted_shard_bans_drop_out_of_the_merged_view() {
        // Regression: the merged view must not be grow-only.  A ban
        // created by a forward in flight has to disappear from every
        // shard once the proxy returns its proof — otherwise every
        // honest proxy accumulates in the merged view between periodic
        // resets and the proxy pool shrinks to nothing.
        let mut shards: Vec<LoadBalancer> = (0..2)
            .map(|_| LoadBalancer::new(ReplicaId(0), 6, DlbConfig::default().with_d(1)))
            .collect();
        let mut rng = SmallRng::seed_from_u64(12);
        let m = mb(0, 9);
        let (token, targets) = shards[0].start_sampling(m.clone(), &mut rng).unwrap();
        let proxy = match shards[0].on_load_info(token, targets[0], Some(5)).unwrap() {
            ForwardDecision::Forward { proxy, .. } => proxy,
            other => panic!("unexpected {other:?}"),
        };
        let mut coord = ShardLoadCoordinator::new();
        round(&mut coord, &mut shards);
        assert!(shards.iter().all(|lb| lb.is_banned(proxy)));

        // The proof comes back: shard 0 lifts its own ban, and the next
        // coordination round propagates the lift everywhere.
        assert_eq!(shards[0].on_proof_received(&m.id), Some(proxy));
        round(&mut coord, &mut shards);
        for (i, lb) in shards.iter().enumerate() {
            assert!(
                !lb.is_banned(proxy),
                "shard {i} still bans the proxy after its forward resolved"
            );
        }
        assert!(coord.banned().is_empty());
    }

    #[test]
    fn imposed_bans_never_mask_or_lift_owned_bans() {
        // An owned ban (forward in flight) must survive a stale imposed
        // view that does not contain it.
        let mut lb = lb(1);
        let mut rng = SmallRng::seed_from_u64(13);
        let m = mb(0, 10);
        let (token, targets) = lb.start_sampling(m.clone(), &mut rng).unwrap();
        let proxy = match lb.on_load_info(token, targets[0], Some(5)).unwrap() {
            ForwardDecision::Forward { proxy, .. } => proxy,
            other => panic!("unexpected {other:?}"),
        };
        lb.apply_ban_view(&HashSet::new()); // stale empty view
        assert!(
            lb.is_banned(proxy),
            "an empty imposed view must not lift the in-flight ban"
        );
        assert_eq!(lb.on_proof_received(&m.id), Some(proxy));
        assert!(!lb.is_banned(proxy));
        // An imposed view never bans the balancer's own replica.
        lb.apply_ban_view(&[ReplicaId(0), ReplicaId(2)].into_iter().collect());
        assert_eq!(lb.banned(), vec![ReplicaId(2)]);
    }

    #[test]
    fn banned_peers_are_not_sampled_again() {
        let mut lb = LoadBalancer::new(ReplicaId(0), 3, DlbConfig::default().with_d(2));
        let mut rng = SmallRng::seed_from_u64(7);
        // Ban replica 1 by forwarding to it.
        let m = mb(0, 6);
        let (token, targets) = lb.start_sampling(m, &mut rng).unwrap();
        let first = targets[0];
        lb.on_load_info(token, first, Some(1));
        let _ = lb.on_sample_timeout(token);
        // Next sampling round must avoid the banned proxy.
        let (_, targets2) = lb.start_sampling(mb(0, 7), &mut rng).unwrap();
        assert!(!targets2.contains(&first));
    }
}
