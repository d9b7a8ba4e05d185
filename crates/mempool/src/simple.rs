//! The simple shared mempool (SMP-HS in the paper): best-effort broadcast
//! of microblocks plus fetch-from-the-leader for anything missing.
//!
//! This is the baseline Stratus is compared against in Figures 7–9.  Its
//! weakness (Problem-I, Section III-E) is that a proposal can reference
//! microblocks a replica never received — the replica must then fetch them
//! from the leader *before consensus can make progress*, which congests
//! the leader and triggers view changes under asynchrony or Byzantine
//! senders.

use crate::api::{Effects, FillStatus, Mempool, MempoolStats, TimerTag};
use crate::dissemination::{unproven_ref, Dissemination, Missing};
use crate::messages::SmpMsg;
use crate::store::MicroblockStore;
use rand::rngs::SmallRng;
use smp_telemetry::Telemetry;
use smp_types::{
    Microblock, MicroblockId, Payload, Proposal, ReplicaId, SimTime, SystemConfig, Transaction,
};

/// Best-effort shared mempool.
#[derive(Clone, Debug)]
pub struct SimpleSmp {
    core: Dissemination,
}

impl SimpleSmp {
    /// Creates the mempool for replica `me`.
    pub fn new(config: &SystemConfig, me: ReplicaId) -> Self {
        SimpleSmp {
            core: Dissemination::new(config, me),
        }
    }

    /// Access to the microblock store (used by tests and the replica).
    pub fn store(&self) -> &MicroblockStore {
        self.core.store()
    }

    /// The replica this mempool belongs to.
    pub fn id(&self) -> ReplicaId {
        self.core.me()
    }

    /// Sealed microblocks are proposable at once and broadcast to everyone.
    fn disseminate(&mut self, mb: Microblock, effects: &mut Effects<SmpMsg>) {
        self.core.make_proposable(mb.id);
        self.core.hold(&mb);
        effects.broadcast(SmpMsg::Microblock(mb));
    }
}

impl Mempool for SimpleSmp {
    type Msg = SmpMsg;

    fn on_client_txs(
        &mut self,
        now: SimTime,
        txs: Vec<Transaction>,
        _rng: &mut SmallRng,
    ) -> Effects<SmpMsg> {
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
        msg: SmpMsg,
        _rng: &mut SmallRng,
    ) -> Effects<SmpMsg> {
        let mut effects = Effects::none();
        match msg {
            SmpMsg::Microblock(mb) | SmpMsg::Gossip { mb, .. } => {
                let id = mb.id;
                // Newly learned microblocks become proposable by this replica too.
                if self.core.absorb(now, mb, &mut effects) {
                    self.core.make_proposable(id);
                }
            }
            SmpMsg::Fetch { ids } => self.core.serve_fetch(from, &ids, &mut effects),
            SmpMsg::FetchResp { mbs } => self.core.absorb_fetched(now, mbs, &mut effects),
        }
        effects
    }

    fn on_timer(&mut self, now: SimTime, tag: TimerTag, _rng: &mut SmallRng) -> Effects<SmpMsg> {
        let mut effects = Effects::none();
        // Nothing is kept per id outside the core.
        if let Some(mb) = self.core.on_timer(now, tag, &mut effects, |_| {}) {
            self.disseminate(mb, &mut effects);
        }
        effects
    }

    fn make_payload(&mut self, _now: SimTime) -> Payload {
        self.core.drain_refs(unproven_ref)
    }

    fn on_proposal(
        &mut self,
        now: SimTime,
        proposal: &Proposal,
        _rng: &mut SmallRng,
    ) -> (FillStatus, Effects<SmpMsg>) {
        let mut effects = Effects::none();
        // Best-effort SMP: nothing to verify; consensus is blocked while
        // everything missing is fetched from the leader that proposed it
        // (Section III-E, Problem-I).
        let status = self.core.fill(
            now,
            proposal,
            |_| Ok(()),
            |_| vec![proposal.proposer],
            Missing::Blocks,
            &mut effects,
        );
        (status, effects)
    }

    fn on_commit(&mut self, now: SimTime, proposal: &Proposal) -> Effects<SmpMsg> {
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
    use super::*;
    use crate::api::MempoolEvent;
    use crate::batcher::BATCH_TIMEOUT_TAG;
    use crate::fetcher::FETCH_TIMEOUT;
    use rand::SeedableRng;
    use smp_types::{BlockId, ClientId, MempoolConfig, View};

    fn config() -> SystemConfig {
        SystemConfig::new(4).with_mempool(MempoolConfig {
            batch_size_bytes: 168 * 4, // 4 transactions of 128 B payload
            ..MempoolConfig::default()
        })
    }

    fn txs(base: u64, n: usize) -> Vec<Transaction> {
        (0..n)
            .map(|i| Transaction::synthetic(ClientId(9), base + i as u64, 128, 0))
            .collect()
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1)
    }

    #[test]
    fn sealed_microblocks_are_broadcast_and_queued() {
        let mut mp = SimpleSmp::new(&config(), ReplicaId(0));
        let fx = mp.on_client_txs(0, txs(0, 4), &mut rng());
        assert_eq!(fx.msgs.len(), 1, "one broadcast for the sealed batch");
        assert!(matches!(fx.msgs[0].1, SmpMsg::Microblock(_)));
        let payload = mp.make_payload(1);
        assert_eq!(payload.ref_count(), 1);
    }

    #[test]
    fn partial_batch_is_sealed_on_timeout() {
        let mut mp = SimpleSmp::new(&config(), ReplicaId(0));
        let fx = mp.on_client_txs(0, txs(0, 2), &mut rng());
        assert!(fx.msgs.is_empty());
        assert_eq!(fx.timers, vec![(200_000, BATCH_TIMEOUT_TAG)]);
        let fx = mp.on_timer(200_000, BATCH_TIMEOUT_TAG, &mut rng());
        assert_eq!(fx.msgs.len(), 1);
    }

    #[test]
    fn received_microblocks_become_proposable() {
        let mut a = SimpleSmp::new(&config(), ReplicaId(0));
        let mut b = SimpleSmp::new(&config(), ReplicaId(1));
        let fx = a.on_client_txs(0, txs(0, 4), &mut rng());
        let mb = match &fx.msgs[0].1 {
            SmpMsg::Microblock(mb) => mb.clone(),
            other => panic!("unexpected {other:?}"),
        };
        b.on_message(10, ReplicaId(0), SmpMsg::Microblock(mb), &mut rng());
        assert_eq!(b.make_payload(20).ref_count(), 1);
    }

    #[test]
    fn missing_refs_block_consensus_and_fetch_from_leader() {
        let mut a = SimpleSmp::new(&config(), ReplicaId(0));
        let mut b = SimpleSmp::new(&config(), ReplicaId(1));
        // Replica 0 seals a microblock that replica 1 never receives.
        let _ = a.on_client_txs(0, txs(0, 4), &mut rng());
        let payload = a.make_payload(1);
        let proposal = Proposal::new(View(3), 1, BlockId::GENESIS, ReplicaId(0), payload, true);
        let (status, fx) = b.on_proposal(10, &proposal, &mut rng());
        match status {
            FillStatus::MustWait(ids) => assert_eq!(ids.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
        // Fetch goes to the proposer (leader).
        assert!(fx.msgs.iter().any(|(dest, msg)| {
            matches!(msg, SmpMsg::Fetch { .. }) && *dest == crate::api::Dest::One(ReplicaId(0))
        }));
        assert!(fx
            .events
            .iter()
            .any(|e| matches!(e, MempoolEvent::FetchIssued { count: 1 })));
    }

    #[test]
    fn fetch_response_unblocks_proposal() {
        let mut a = SimpleSmp::new(&config(), ReplicaId(0));
        let mut b = SimpleSmp::new(&config(), ReplicaId(1));
        let fx = a.on_client_txs(0, txs(0, 4), &mut rng());
        let mb = match &fx.msgs[0].1 {
            SmpMsg::Microblock(mb) => mb.clone(),
            other => panic!("unexpected {other:?}"),
        };
        let proposal = Proposal::new(
            View(3),
            1,
            BlockId::GENESIS,
            ReplicaId(0),
            a.make_payload(1),
            true,
        );
        let (_, _) = b.on_proposal(10, &proposal, &mut rng());
        // The leader answers the fetch.
        let fetch_fx = a.on_message(
            20,
            ReplicaId(1),
            SmpMsg::Fetch { ids: vec![mb.id] },
            &mut rng(),
        );
        let resp = fetch_fx.msgs[0].1.clone();
        let fx = b.on_message(30, ReplicaId(0), resp, &mut rng());
        assert!(fx.events.iter().any(
            |e| matches!(e, MempoolEvent::ProposalReady { proposal: p } if *p == proposal.id)
        ));
    }

    #[test]
    fn fetch_timer_retries_until_satisfied() {
        let mut a = SimpleSmp::new(&config(), ReplicaId(0));
        let mut b = SimpleSmp::new(&config(), ReplicaId(1));
        let _ = a.on_client_txs(0, txs(0, 4), &mut rng());
        let proposal = Proposal::new(
            View(3),
            1,
            BlockId::GENESIS,
            ReplicaId(0),
            a.make_payload(1),
            true,
        );
        let (_, fx) = b.on_proposal(10, &proposal, &mut rng());
        let (_, tag) = fx.timers[0];
        // Timer fires with the microblock still missing: a retry is issued.
        let retry_fx = b.on_timer(10 + FETCH_TIMEOUT, tag, &mut rng());
        assert!(retry_fx
            .msgs
            .iter()
            .any(|(_, m)| matches!(m, SmpMsg::Fetch { .. })));
        assert_eq!(b.stats().fetches_issued, 2);
    }

    #[test]
    fn commit_executes_locally_available_proposals() {
        let mut a = SimpleSmp::new(&config(), ReplicaId(0));
        let _ = a.on_client_txs(5, txs(0, 4), &mut rng());
        let proposal = Proposal::new(
            View(3),
            1,
            BlockId::GENESIS,
            ReplicaId(0),
            a.make_payload(1),
            true,
        );
        let fx = a.on_commit(50, &proposal);
        assert!(fx
            .events
            .iter()
            .any(|e| matches!(e, MempoolEvent::Executed { tx_count: 4, .. })));
    }

    #[test]
    fn duplicate_microblocks_are_ignored() {
        let mut b = SimpleSmp::new(&config(), ReplicaId(1));
        let mut a = SimpleSmp::new(&config(), ReplicaId(0));
        let fx = a.on_client_txs(0, txs(0, 4), &mut rng());
        let mb = match &fx.msgs[0].1 {
            SmpMsg::Microblock(mb) => mb.clone(),
            other => panic!("unexpected {other:?}"),
        };
        b.on_message(1, ReplicaId(0), SmpMsg::Microblock(mb.clone()), &mut rng());
        b.on_message(2, ReplicaId(0), SmpMsg::Microblock(mb), &mut rng());
        assert_eq!(b.stats().stored_microblocks, 1);
        assert_eq!(b.stats().proposable_microblocks, 1);
    }
}
