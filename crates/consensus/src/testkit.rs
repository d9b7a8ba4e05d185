//! A tiny in-process network for driving consensus engines in unit tests.
//!
//! The kit delivers messages instantly and in FIFO order, auto-answers
//! `NeedPayload` with an empty payload and `VerifyProposal` with an
//! immediate accept (the real mempool interaction is exercised in the
//! `smp-replica` crate on top of the network simulator).  Timers are
//! recorded and fired on demand so tests can simulate pacemaker timeouts
//! deterministically.

use crate::api::{CDest, CEffects, CEvent, ConsensusEngine, ProposalVerdict};
use smp_types::{BlockId, Payload, ReplicaId};
use std::collections::VecDeque;

/// An in-memory network of engines.
pub struct EngineNet<E: ConsensusEngine> {
    engines: Vec<E>,
    queue: VecDeque<(usize, usize, crate::api::ConsensusMsg)>,
    pending_timers: Vec<(usize, u64)>,
    silenced: Vec<bool>,
    committed: Vec<Vec<BlockId>>,
    now: u64,
}

impl<E: ConsensusEngine> EngineNet<E> {
    /// Builds a network over the given engines (index = replica id).
    pub fn new(engines: Vec<E>) -> Self {
        let n = engines.len();
        EngineNet {
            engines,
            queue: VecDeque::new(),
            pending_timers: Vec::new(),
            silenced: vec![false; n],
            committed: vec![Vec::new(); n],
            now: 0,
        }
    }

    /// Immutable access to the engines.
    pub fn engines(&self) -> &[E] {
        &self.engines
    }

    /// Committed block ids per engine, in commit order.
    pub fn committed_chains(&self) -> &[Vec<BlockId>] {
        &self.committed
    }

    /// Drops all traffic to and from `replica` and stops firing its timers.
    pub fn silence(&mut self, replica: ReplicaId) {
        self.silenced[replica.index()] = true;
    }

    /// Calls `on_start` on every engine and routes the resulting traffic.
    pub fn start(&mut self) {
        for i in 0..self.engines.len() {
            if self.silenced[i] {
                continue;
            }
            let fx = self.engines[i].on_start(self.now);
            self.absorb(i, fx);
        }
    }

    /// Fires every recorded timer once (stale timers are ignored by the
    /// engines themselves).
    pub fn fire_view_timers(&mut self) {
        self.now += 1_000_000;
        let timers = std::mem::take(&mut self.pending_timers);
        for (idx, tag) in timers {
            if self.silenced[idx] {
                continue;
            }
            let fx = self.engines[idx].on_timer(self.now, tag);
            self.absorb(idx, fx);
        }
    }

    /// Delivers queued messages until the queue drains or `budget`
    /// deliveries have been made.  Returns the number of deliveries.
    pub fn run(&mut self, budget: usize) -> usize {
        let mut delivered = 0;
        while delivered < budget {
            let Some((from, to, msg)) = self.queue.pop_front() else {
                break;
            };
            delivered += 1;
            self.now += 100;
            if self.silenced[to] || self.silenced[from] {
                continue;
            }
            let fx = self.engines[to].on_message(self.now, ReplicaId(from as u32), msg);
            self.absorb(to, fx);
        }
        delivered
    }

    fn absorb(&mut self, idx: usize, fx: CEffects) {
        let n = self.engines.len();
        let mut follow_ups: Vec<CEffects> = Vec::new();
        for (dest, msg) in fx.msgs {
            match dest {
                CDest::One(r) => {
                    if r.index() == idx {
                        // Loopback: deliver immediately.
                        let fx2 =
                            self.engines[idx].on_message(self.now, ReplicaId(idx as u32), msg);
                        follow_ups.push(fx2);
                    } else {
                        self.queue.push_back((idx, r.index(), msg));
                    }
                }
                CDest::AllButSelf => {
                    for to in 0..n {
                        if to != idx {
                            self.queue.push_back((idx, to, msg.clone()));
                        }
                    }
                }
            }
        }
        for (_delay, tag) in fx.timers {
            self.pending_timers.push((idx, tag));
        }
        for ev in fx.events {
            match ev {
                CEvent::NeedPayload { view, .. } => {
                    let fx2 = self.engines[idx].on_payload(self.now, view, Payload::Empty);
                    follow_ups.push(fx2);
                }
                CEvent::VerifyProposal { proposal } => {
                    let fx2 = self.engines[idx].on_proposal_verdict(
                        self.now,
                        proposal.id,
                        ProposalVerdict::Accept,
                    );
                    follow_ups.push(fx2);
                }
                CEvent::Committed { proposal } => {
                    self.committed[idx].push(proposal.id);
                }
                CEvent::ViewChange { .. } => {}
            }
        }
        for fx2 in follow_ups {
            self.absorb(idx, fx2);
        }
    }
}

/// Runs the network until no messages remain (or the per-call budget runs
/// out `rounds` times).
pub fn drive_until_quiet<E: ConsensusEngine>(net: &mut EngineNet<E>, rounds: usize) {
    for _ in 0..rounds {
        if net.run(10_000) == 0 {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hotstuff::HotStuffEngine;
    use smp_types::SystemConfig;

    #[test]
    fn testkit_routes_messages_and_collects_commits() {
        let config = SystemConfig::new(4);
        let engines = (0..4u32)
            .map(|i| HotStuffEngine::new(&config, ReplicaId(i)))
            .collect();
        let mut net: EngineNet<HotStuffEngine> = EngineNet::new(engines);
        net.start();
        drive_until_quiet(&mut net, 20);
        assert!(net.committed_chains().iter().any(|c| !c.is_empty()));
    }
}
