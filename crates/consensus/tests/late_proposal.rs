//! A proposal that arrives after its successor, pinned where it happens.
//!
//! TCP orders messages per connection, not across connections, so over
//! sockets a replica can receive view v + 1's proposal before view v's.
//! Four engines of one kind — HotStuff, PBFT or Streamlet, the engines that
//! share `core.rs`'s admission rule — are driven by hand here, as
//! `effects_golden.rs`'s `edges` case calls handlers directly: messages go
//! out in FIFO order, except that replica 3's copy of view `LATE`'s
//! proposal is held back until view `LATE + 1`'s has reached it.  Then the
//! cluster runs a few more views.

use smp_consensus::{
    CDest, CEffects, CEvent, ConsensusEngine, ConsensusMsg, HotStuffEngine, PbftEngine,
    ProposalVerdict, StreamletEngine,
};
use smp_types::{BlockId, Payload, ReplicaId, SystemConfig, View};
use std::collections::{HashMap, VecDeque};

/// The view whose proposal reaches replica 3 late.  Neither it nor the
/// next view is led by replica 3.
const LATE: u64 = 5;
/// Leaders are asked for payloads up to this view; then the run drains.
const LAST: u64 = 14;
const SLOW: usize = 3;

struct Net<E> {
    engines: Vec<E>,
    queue: VecDeque<(usize, usize, ConsensusMsg)>,
    committed: Vec<Vec<BlockId>>,
    view_of: HashMap<BlockId, View>,
    /// Replica 3's copy of view `LATE`'s proposal, while it is held.
    held: Option<(usize, ConsensusMsg)>,
    now: u64,
}

impl<E: ConsensusEngine> Net<E> {
    fn new(new: fn(&SystemConfig, ReplicaId) -> E) -> Self {
        let config = SystemConfig::new(4);
        let engines: Vec<_> = (0..4).map(|i| new(&config, ReplicaId(i))).collect();
        Net {
            committed: vec![Vec::new(); engines.len()],
            engines,
            queue: VecDeque::new(),
            view_of: HashMap::new(),
            held: None,
            now: 0,
        }
    }

    fn deliver(&mut self, from: usize, to: usize, msg: ConsensusMsg) {
        self.now += 100;
        let fx = self.engines[to].on_message(self.now, ReplicaId(from as u32), msg);
        self.absorb(to, fx);
    }

    /// Routes `fx` the way the simulator would, answering every payload
    /// request up to `LAST` with an empty payload and every verification
    /// with an accept.
    fn absorb(&mut self, i: usize, fx: CEffects) {
        for (dest, msg) in fx.msgs {
            if let ConsensusMsg::Propose(p) = &msg {
                self.view_of.insert(p.id, p.view);
            }
            match dest {
                CDest::One(r) if r.index() == i => self.deliver(i, i, msg),
                CDest::One(r) => self.queue.push_back((i, r.index(), msg)),
                CDest::AllButSelf => {
                    for to in (0..self.engines.len()).filter(|&to| to != i) {
                        self.queue.push_back((i, to, msg.clone()));
                    }
                }
            }
        }
        for ev in fx.events {
            let fx = match ev {
                CEvent::NeedPayload { view, .. } if view.0 <= LAST => {
                    self.engines[i].on_payload(self.now, view, Payload::Empty)
                }
                CEvent::VerifyProposal { proposal } => self.engines[i].on_proposal_verdict(
                    self.now,
                    proposal.id,
                    ProposalVerdict::Accept,
                ),
                CEvent::Committed { proposal } => {
                    self.committed[i].push(proposal.id);
                    continue;
                }
                _ => continue,
            };
            self.absorb(i, fx);
        }
    }

    fn run(&mut self) {
        for i in 0..self.engines.len() {
            let fx = self.engines[i].on_start(self.now);
            self.absorb(i, fx);
        }
        while let Some((from, to, msg)) = self.queue.pop_front() {
            let view = match &msg {
                ConsensusMsg::Propose(p) if to == SLOW => Some(p.view.0),
                _ => None,
            };
            if view == Some(LATE) && self.held.is_none() {
                self.held = Some((from, msg));
                continue;
            }
            self.deliver(from, to, msg);
            if view == Some(LATE + 1) {
                let (from, late) = self.held.take().expect("view LATE's proposal was held");
                self.deliver(from, SLOW, late);
            }
        }
    }

    fn committed_views(&self, i: usize) -> Vec<u64> {
        self.committed[i]
            .iter()
            .map(|id| self.view_of[id].0)
            .collect()
    }
}

/// Replica 3 keeps view 5's late proposal as an ancestor, as every engine
/// admits a proposal from its view's leader whatever the current view.
/// Replicas 0 to 2 commit every view their engine's commit rule reaches
/// (HotStuff's three-chain lags three views behind the last one proposed,
/// Streamlet's finalization one), and replica 3 commits the same, except
/// for PBFT's `missing`.
fn late_proposal<E: ConsensusEngine>(
    name: &str,
    new: fn(&SystemConfig, ReplicaId) -> E,
    last_committed: u64,
    missing: &[u64],
) {
    let mut net = Net::new(new);
    net.run();
    assert!(
        net.held.is_none(),
        "{name}: view {LATE}'s proposal was released"
    );
    let full: Vec<u64> = (1..=last_committed).collect();
    for i in 0..SLOW {
        assert_eq!(net.committed_views(i), full, "{name}: replica {i}");
    }
    let slow = net.committed_views(SLOW);
    let lacks: Vec<u64> = full.iter().copied().filter(|v| !slow.contains(v)).collect();
    assert_eq!(lacks, missing, "{name}: replica 3 committed {slow:?}");
    // Every engine moved on past the late view all the same.
    assert!(
        net.engines.iter().all(|e| e.current_view() > View(LAST)),
        "{name}"
    );
}

#[test]
fn a_proposal_that_arrives_after_its_successor_is_committed_through() {
    assert_eq!(View(LATE).leader(4).index(), 1);
    assert_eq!(View(LATE + 1).leader(4).index(), 2);
    late_proposal("HotStuff", HotStuffEngine::new, LAST - 3, &[]);
    late_proposal("Streamlet", StreamletEngine::new, LAST - 1, &[]);
    // Preserved defect (ROADMAP: block sync): PBFT's leader of view 6
    // proposes once view 5's commit quorum formed, so replica 3 counts the
    // others' `Commit`s for view 5 before the block arrives, and a commit
    // quorum that fires before its block never commits it.
    late_proposal("PBFT", PbftEngine::new, LAST, &[LATE]);
}
