//! A proposal that arrives after its successor, pinned where it happens.
//!
//! TCP orders messages per connection, not across connections, so over
//! sockets a replica can receive view v + 1's proposal before view v's.
//! Four chained-HotStuff engines are driven by hand here, as
//! `effects_golden.rs`'s `edges` case calls handlers directly: messages go
//! out in FIFO order, except that replica 3's copy of view `LATE`'s
//! proposal is held back until view `LATE + 1`'s has reached it.  Then the
//! cluster runs a few more views.

use smp_consensus::{
    CDest, CEffects, CEvent, ConsensusEngine, ConsensusMsg, HotStuffEngine, ProposalVerdict,
};
use smp_types::{BlockId, Payload, ReplicaId, SystemConfig, View};
use std::collections::{HashMap, VecDeque};

/// The view whose proposal reaches replica 3 late.  Neither it nor the
/// next view is led by replica 3.
const LATE: u64 = 5;
/// Leaders are asked for payloads up to this view; then the run drains.
const LAST: u64 = 14;
const SLOW: usize = 3;

struct Net {
    engines: Vec<HotStuffEngine>,
    queue: VecDeque<(usize, usize, ConsensusMsg)>,
    committed: Vec<Vec<BlockId>>,
    view_of: HashMap<BlockId, View>,
    /// Replica 3's copy of view `LATE`'s proposal, while it is held.
    held: Option<(usize, ConsensusMsg)>,
    now: u64,
}

impl Net {
    fn new() -> Self {
        let config = SystemConfig::new(4);
        let engines: Vec<_> = (0..4)
            .map(|i| HotStuffEngine::new(&config, ReplicaId(i)))
            .collect();
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
                CEvent::NeedPayload { view } if view.0 <= LAST => {
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

/// Preserved defect (ROADMAP: block sync).  Replica 3 drops view 5's late
/// proposal (`Pacemaker::accepts` refuses a view below its own), so its
/// chain has a hole at view 5.  No three-chain ever certifies views 3 and
/// 4 through the hole, and `commit_through` stops at the first missing
/// ancestor: replica 3 never commits views 2 to 5, which the other three
/// commit.  Block sync makes replica 3's committed chain equal the others';
/// that is the one assertion to flip.
#[test]
fn a_proposal_that_arrives_after_its_successor_leaves_a_commit_gap() {
    let mut net = Net::new();
    net.run();
    assert!(net.held.is_none(), "view {LATE}'s proposal was released");
    assert_eq!(View(LATE).leader(4).index(), 1);
    assert_eq!(View(LATE + 1).leader(4).index(), 2);

    let full: Vec<u64> = (1..=LAST - 3).collect();
    for i in 0..SLOW {
        assert_eq!(net.committed_views(i), full, "replica {i}");
    }
    let slow = net.committed_views(SLOW);
    let missing: Vec<u64> = full.iter().copied().filter(|v| !slow.contains(v)).collect();
    // Preserved defect: with block sync, `missing` is empty.
    assert_eq!(missing, [2, 3, 4, LATE], "replica 3 committed {slow:?}");
    // Every engine moved on past the hole all the same.
    assert!(net.engines.iter().all(|e| e.current_view() > View(LAST)));
}
