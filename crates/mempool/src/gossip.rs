//! A gossip-based shared mempool (SMP-HS-G in the paper).
//!
//! Instead of having the creator broadcast a microblock to everyone,
//! the creator sends it to [`FANOUT`] random peers, and every replica
//! relays it to [`FANOUT`] further random peers the first time it sees
//! it.  This spreads dissemination cost but adds redundancy and a long
//! tail latency (Section III-E, Solution-II discussion), which is why it
//! underperforms Stratus under skewed load (Figure 11).

use crate::api::{Effects, FillStatus, Mempool, MempoolStats, TimerTag};
use crate::dissemination::{
    creators_then_proposer, unproven_ref, Dissemination, Missing, RETIRE_TAG,
};
use crate::messages::SmpMsg;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use smp_telemetry::Telemetry;
use smp_types::{Microblock, Payload, Proposal, ReplicaId, SimTime, SystemConfig, Transaction};

/// Gossip fan-out: the peers a microblock is sent to, by its creator and
/// by each relay (the evaluation uses 3).
pub const FANOUT: usize = 3;

/// Maximum relay hops.  With fan-out 3 this covers networks far larger
/// than the 400 replicas evaluated in the paper.
pub const MAX_HOPS: u8 = 16;

/// Gossip-based shared mempool.
#[derive(Clone, Debug)]
pub struct GossipSmp {
    core: Dissemination,
    n: usize,
    relayed: u64,
}

impl GossipSmp {
    /// Creates the mempool for replica `me`.
    pub fn new(config: &SystemConfig, me: ReplicaId) -> Self {
        GossipSmp {
            core: Dissemination::new(config, me),
            n: config.n,
            relayed: 0,
        }
    }

    /// Number of microblocks this replica relayed onward.
    pub fn relayed(&self) -> u64 {
        self.relayed
    }

    fn random_peers(&self, rng: &mut SmallRng, exclude: &[ReplicaId]) -> Vec<ReplicaId> {
        let mut peers: Vec<ReplicaId> = (0..self.n as u32)
            .map(ReplicaId)
            .filter(|r| *r != self.core.me() && !exclude.contains(r))
            .collect();
        peers.shuffle(rng);
        peers.truncate(FANOUT);
        peers
    }

    fn gossip_out(
        &mut self,
        mb: Microblock,
        hops: u8,
        exclude: &[ReplicaId],
        rng: &mut SmallRng,
        effects: &mut Effects<SmpMsg>,
    ) {
        if hops == 0 {
            return;
        }
        let peers = self.random_peers(rng, exclude);
        if peers.is_empty() {
            return;
        }
        effects.multicast(peers, SmpMsg::Gossip { mb, hops: hops - 1 });
    }
}

impl Mempool for GossipSmp {
    type Msg = SmpMsg;

    fn on_client_txs(
        &mut self,
        now: SimTime,
        txs: Vec<Transaction>,
        rng: &mut SmallRng,
    ) -> Effects<SmpMsg> {
        let mut effects = Effects::none();
        for mb in self.core.seal_from_clients(now, txs, &mut effects) {
            self.core.make_proposable(mb.id);
            self.core.hold(&mb);
            self.gossip_out(mb, MAX_HOPS, &[], rng, &mut effects);
        }
        effects
    }

    fn on_message(
        &mut self,
        now: SimTime,
        from: ReplicaId,
        msg: SmpMsg,
        rng: &mut SmallRng,
    ) -> Effects<SmpMsg> {
        let mut effects = Effects::none();
        let (mb, hops) = match msg {
            SmpMsg::Gossip { mb, hops } => (mb, hops),
            SmpMsg::Microblock(mb) => (mb, MAX_HOPS),
            SmpMsg::Fetch { ids } => {
                self.core.serve_fetch(from, &ids, &mut effects);
                return effects;
            }
            SmpMsg::FetchResp { mbs } => {
                self.core.absorb_fetched(now, mbs, &mut effects);
                return effects;
            }
        };
        // Duplicates are not relayed again (bounded redundancy).
        if self.core.absorb(now, mb.clone(), &mut effects) {
            self.core.make_proposable(mb.id);
            // Relay on first receipt.
            self.relayed += 1;
            self.core.telemetry().counter_inc("gossip.relayed");
            let exclude = [from, mb.creator];
            self.gossip_out(mb, hops.saturating_sub(1), &exclude, rng, &mut effects);
        }
        effects
    }

    fn on_timer(&mut self, now: SimTime, tag: TimerTag, _rng: &mut SmallRng) -> Effects<SmpMsg> {
        let mut effects = Effects::none();
        if tag == RETIRE_TAG {
            // Nothing is kept per id outside the core.
            self.core.retire(now, &mut effects, |_| {});
        } else if let Some(mb) = self.core.on_timer(now, tag, &mut effects) {
            self.core.make_proposable(mb.id);
            self.core.hold(&mb);
            // The relay uses a dedicated RNG-free path on timeout: pick
            // the first `FANOUT` peers deterministically after a rotation
            // keyed by the microblock id for spread.
            let start = (mb.id.digest().short() % self.n as u64) as u32;
            let peers: Vec<ReplicaId> = (0..self.n as u32)
                .map(|i| ReplicaId((start + i) % self.n as u32))
                .filter(|r| *r != self.core.me())
                .take(FANOUT)
                .collect();
            let hops = MAX_HOPS - 1;
            effects.multicast(peers, SmpMsg::Gossip { mb, hops });
        }
        effects
    }

    fn make_payload(&mut self, _now: SimTime) -> Payload {
        self.core.drain_refs(unproven_ref)
    }

    fn on_proposal(
        &mut self,
        _now: SimTime,
        proposal: &Proposal,
        _rng: &mut SmallRng,
    ) -> (FillStatus, Effects<SmpMsg>) {
        let mut effects = Effects::none();
        let status = self.core.fill(
            proposal,
            |_| Ok(()),
            |missing| creators_then_proposer(missing, proposal.proposer),
            Missing::Blocks,
            &mut effects,
        );
        (status, effects)
    }

    fn on_commit(&mut self, now: SimTime, proposal: &Proposal) -> Effects<SmpMsg> {
        self.core.on_commit(now, proposal)
    }

    fn stats(&self) -> MempoolStats {
        MempoolStats {
            forwarded_microblocks: self.relayed,
            ..self.core.stats()
        }
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.core.set_telemetry(telemetry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use smp_types::{BlockId, ClientId, MempoolConfig, View};

    fn config(n: usize) -> SystemConfig {
        SystemConfig::new(n).with_mempool(MempoolConfig {
            batch_size_bytes: 168 * 4,
            ..MempoolConfig::default()
        })
    }

    fn txs(n: usize) -> Vec<Transaction> {
        (0..n)
            .map(|i| Transaction::synthetic(ClientId(3), i as u64, 128, 0))
            .collect()
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(2)
    }

    #[test]
    fn creator_gossips_to_fanout_peers_only() {
        let mut mp = GossipSmp::new(&config(20), ReplicaId(0));
        let fx = mp.on_client_txs(0, txs(4), &mut rng());
        assert_eq!(fx.msgs.len(), 1);
        match &fx.msgs[0].0 {
            crate::api::Dest::Many(peers) => {
                assert_eq!(peers.len(), FANOUT);
                assert!(!peers.contains(&ReplicaId(0)));
            }
            other => panic!("unexpected dest {other:?}"),
        }
    }

    #[test]
    fn first_receipt_is_relayed_duplicates_are_not() {
        let mut a = GossipSmp::new(&config(20), ReplicaId(0));
        let mut b = GossipSmp::new(&config(20), ReplicaId(1));
        let fx = a.on_client_txs(0, txs(4), &mut rng());
        let mb = match &fx.msgs[0].1 {
            SmpMsg::Gossip { mb, .. } => mb.clone(),
            other => panic!("unexpected {other:?}"),
        };
        let fx1 = b.on_message(
            1,
            ReplicaId(0),
            SmpMsg::Gossip {
                mb: mb.clone(),
                hops: 8,
            },
            &mut rng(),
        );
        assert!(fx1
            .msgs
            .iter()
            .any(|(_, m)| matches!(m, SmpMsg::Gossip { .. })));
        let fx2 = b.on_message(2, ReplicaId(0), SmpMsg::Gossip { mb, hops: 8 }, &mut rng());
        assert!(fx2.msgs.is_empty(), "duplicates are not relayed");
        assert_eq!(b.relayed(), 1);
    }

    #[test]
    fn missing_refs_fetch_from_creator() {
        let mut a = GossipSmp::new(&config(8), ReplicaId(0));
        let mut b = GossipSmp::new(&config(8), ReplicaId(1));
        let _ = a.on_client_txs(0, txs(4), &mut rng());
        let proposal = Proposal::new(
            View(2),
            1,
            BlockId::GENESIS,
            ReplicaId(5),
            a.make_payload(1),
            true,
        );
        let (status, fx) = b.on_proposal(5, &proposal, &mut rng());
        assert!(matches!(status, FillStatus::MustWait(_)));
        // First fetch target is the creator (replica 0), not the proposer.
        match &fx.msgs[0] {
            (crate::api::Dest::One(target), SmpMsg::Fetch { .. }) => {
                assert_eq!(*target, ReplicaId(0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn gossiped_microblocks_are_proposable_by_receivers() {
        let mut a = GossipSmp::new(&config(8), ReplicaId(0));
        let mut b = GossipSmp::new(&config(8), ReplicaId(1));
        let fx = a.on_client_txs(0, txs(4), &mut rng());
        let mb = match &fx.msgs[0].1 {
            SmpMsg::Gossip { mb, .. } => mb.clone(),
            other => panic!("unexpected {other:?}"),
        };
        b.on_message(1, ReplicaId(0), SmpMsg::Gossip { mb, hops: 4 }, &mut rng());
        assert_eq!(b.make_payload(2).ref_count(), 1);
    }
}
