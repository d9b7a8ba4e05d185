//! Golden effect digests: every message, timer and event the four
//! consensus engines emit, pinned.
//!
//! A [`Recorder`] wraps an engine and hashes, per handler call, which
//! handler ran and the [`CEffects`] it returned — each `(dest, msg)`, each
//! `(delay, tag)` and each event, in push order.  The constants below were
//! recorded on the commit *before* the engines were rewritten on top of
//! `core.rs`, so a refactor that claims "no effect changed" is proven by
//! plain `cargo test` passing this file untouched.  The Streamlet row was
//! re-recorded when an epoch began to end as soon as its block is
//! notarized (its timer keyed by epoch, one vote per epoch, only in the
//! current one): its fault-free case went from 0 commits to 5 328.  The
//! HotStuff and PBFT ticking, rejecting and edges cases were re-recorded
//! when a proposal below the current view began to be kept and verified
//! (`Pacemaker::admit`) and both engines to vote only in the view they are
//! in; HotStuff ticking went from 59 930 commits to 59 948, the other
//! counts stayed.  HotStuff ticking and PBFT rejecting were re-recorded
//! when a leader stopped asking for a payload for a view it had left (a
//! late vote or `NewView` quorum); their counts stayed.  The
//! system-level goldens cannot stand in for this file:
//! `tests/golden_fingerprints.rs` hashes observations, not messages, and
//! its PBFT, Streamlet and MirBFT rows are fault-free, so their timeout /
//! `NewView` / `Reject` paths never run there.
//!
//! To re-record (only for a deliberate behaviour change):
//! `GOLDEN_PRINT=1 cargo test -p smp-consensus --test effects_golden --
//! --nocapture` prints the table rows.

use smp_consensus::testkit::{drive_until_quiet, EngineNet};
use smp_consensus::{
    CDest, CEffects, CEvent, ConsensusEngine, ConsensusMsg, HotStuffEngine, MirBftEngine,
    PbftEngine, ProposalVerdict, StreamletEngine,
};
use smp_crypto::Hasher;
use smp_types::{
    BlockId, ClientId, Payload, Proposal, ReplicaId, SimTime, SystemConfig, Transaction, View,
};
use std::collections::HashMap;

/// Which proposals a replica's mempool refuses, by `(replica, view)`.
type RejectRule = fn(ReplicaId, View) -> bool;

/// Hashes every effect the wrapped engine returns.  Answers `on_payload`
/// with one small transaction (so MirBFT, which skips empty cadence slots,
/// proposes) and turns the kit's blanket `Accept` into `Reject` where
/// `reject` says so.
struct Recorder<E> {
    engine: E,
    hasher: Hasher,
    reject: RejectRule,
    /// View of every proposal seen, to apply `reject` to a verdict that
    /// names only the block.
    views: HashMap<BlockId, View>,
    /// Tag of the timer armed last (the live view timer, for the engines
    /// that have one).
    last_tag: u64,
}

impl<E: ConsensusEngine> Recorder<E> {
    fn new(engine: E, reject: RejectRule) -> Self {
        Recorder {
            engine,
            hasher: Hasher::with_domain(0x4346_5853), // "CFXS"
            reject,
            views: HashMap::new(),
            last_tag: 0,
        }
    }

    fn record(&mut self, handler: u64, fx: &CEffects) {
        let h = &mut self.hasher;
        h.update_u64(handler);
        h.update_u64(fx.msgs.len() as u64);
        for (dest, msg) in &fx.msgs {
            match dest {
                CDest::One(r) => h.update_u64(r.0 as u64),
                CDest::AllButSelf => h.update_u64(u64::MAX),
            }
            hash_msg(h, msg);
        }
        h.update_u64(fx.timers.len() as u64);
        for (delay, tag) in &fx.timers {
            h.update_u64(*delay);
            h.update_u64(*tag);
            self.last_tag = *tag;
        }
        h.update_u64(fx.events.len() as u64);
        for ev in &fx.events {
            match ev {
                CEvent::NeedPayload { view, .. } => {
                    h.update_u64(1);
                    h.update_u64(view.0);
                }
                CEvent::VerifyProposal { proposal } => {
                    h.update_u64(2);
                    hash_proposal(h, proposal);
                }
                CEvent::Committed { proposal } => {
                    h.update_u64(3);
                    hash_proposal(h, proposal);
                }
                CEvent::ViewChange { abandoned } => {
                    h.update_u64(4);
                    h.update_u64(abandoned.0);
                }
            }
        }
    }
}

fn hash_proposal(h: &mut Hasher, p: &Proposal) {
    h.update_u64(p.view.0);
    h.update_u64(p.height);
    h.update_digest(&p.id.0);
    h.update_digest(&p.parent.0);
    h.update_u64(p.proposer.0 as u64);
    h.update_digest(&p.payload.root());
    h.update_u64(p.carries_qc as u64);
}

fn hash_msg(h: &mut Hasher, msg: &ConsensusMsg) {
    match msg {
        ConsensusMsg::Propose(p) => {
            h.update_u64(1);
            hash_proposal(h, p);
        }
        ConsensusMsg::Vote { view, block, voter } => {
            h.update_u64(2);
            h.update_u64(view.0);
            h.update_digest(&block.0);
            h.update_u64(voter.0 as u64);
        }
        ConsensusMsg::Prepare {
            view,
            block,
            voter,
            instance,
        } => {
            h.update_u64(3);
            h.update_u64(view.0);
            h.update_digest(&block.0);
            h.update_u64(voter.0 as u64);
            h.update_u64(instance.0 as u64);
        }
        ConsensusMsg::Commit {
            view,
            block,
            voter,
            instance,
        } => {
            h.update_u64(4);
            h.update_u64(view.0);
            h.update_digest(&block.0);
            h.update_u64(voter.0 as u64);
            h.update_u64(instance.0 as u64);
        }
        ConsensusMsg::NewView {
            view,
            voter,
            high_qc_view,
        } => {
            h.update_u64(5);
            h.update_u64(view.0);
            h.update_u64(voter.0 as u64);
            h.update_u64(high_qc_view.0);
        }
    }
}

/// One transaction, distinct per `(replica, view)`.
fn small_payload(me: ReplicaId, view: View, now: SimTime) -> Payload {
    Payload::inline(vec![Transaction::synthetic(
        ClientId(me.0),
        view.0,
        128,
        now,
    )])
}

impl<E: ConsensusEngine> ConsensusEngine for Recorder<E> {
    fn on_start(&mut self, now: SimTime) -> CEffects {
        let fx = self.engine.on_start(now);
        self.record(1, &fx);
        fx
    }

    fn on_message(&mut self, now: SimTime, from: ReplicaId, msg: ConsensusMsg) -> CEffects {
        if let ConsensusMsg::Propose(p) = &msg {
            self.views.insert(p.id, p.view);
        }
        let fx = self.engine.on_message(now, from, msg);
        self.record(2, &fx);
        fx
    }

    fn on_timer(&mut self, now: SimTime, tag: u64) -> CEffects {
        let fx = self.engine.on_timer(now, tag);
        self.record(3, &fx);
        fx
    }

    fn on_payload(&mut self, now: SimTime, view: View, _empty: Payload) -> CEffects {
        let payload = small_payload(self.engine.id(), view, now);
        let fx = self.engine.on_payload(now, view, payload);
        self.record(4, &fx);
        fx
    }

    fn on_proposal_verdict(
        &mut self,
        now: SimTime,
        block: BlockId,
        verdict: ProposalVerdict,
    ) -> CEffects {
        let refused = self
            .views
            .get(&block)
            .is_some_and(|view| (self.reject)(self.engine.id(), *view));
        let verdict = if refused {
            ProposalVerdict::Reject
        } else {
            verdict
        };
        let fx = self.engine.on_proposal_verdict(now, block, verdict);
        self.record(5, &fx);
        fx
    }

    fn id(&self) -> ReplicaId {
        self.engine.id()
    }

    fn current_view(&self) -> View {
        self.engine.current_view()
    }

    fn committed_count(&self) -> u64 {
        self.engine.committed_count()
    }
}

/// How to build an engine, and the one counter it exposes beyond the trait
/// (`view_changes()`; `next_seq()` for MirBFT).
struct Kind<E> {
    new: fn(&SystemConfig, ReplicaId) -> E,
    extra: fn(&E) -> u64,
}

fn net_of<E: ConsensusEngine>(
    kind: &Kind<E>,
    n: usize,
    reject: RejectRule,
) -> EngineNet<Recorder<E>> {
    let config = SystemConfig::new(n);
    EngineNet::new(
        (0..n as u32)
            .map(|i| Recorder::new((kind.new)(&config, ReplicaId(i)), reject))
            .collect(),
    )
}

/// One digest over every replica's effect stream, committed chain and
/// final counters.
fn digest_of<E: ConsensusEngine>(kind: &Kind<E>, net: &EngineNet<Recorder<E>>) -> String {
    let mut h = Hasher::with_domain(0x4e45_5453); // "NETS"
    let mut commits = 0;
    for (rec, chain) in net.engines().iter().zip(net.committed_chains()) {
        h.update_digest(&rec.hasher.clone().finalize());
        h.update_u64(chain.len() as u64);
        for id in chain {
            h.update_digest(&id.0);
        }
        h.update_u64(rec.current_view().0);
        h.update_u64(rec.committed_count());
        h.update_u64((kind.extra)(&rec.engine));
        commits += chain.len();
    }
    let d = h.finalize();
    format!("{:016x}{:016x}-{commits}", d.0[0], d.0[1])
}

fn never(_: ReplicaId, _: View) -> bool {
    false
}

/// Fault-free, n = 4, to quiescence (the chained engines never go quiet
/// with a payload on offer, so the delivery budget ends the run).
fn fault_free<E: ConsensusEngine>(kind: &Kind<E>) -> String {
    let mut net = net_of(kind, 4, never);
    net.start();
    drive_until_quiet(&mut net, 2);
    digest_of(kind, &net)
}

/// Fault-free, n = 4, with every armed timer fired eight times: MirBFT's
/// cadence ticks; HotStuff, PBFT and Streamlet time out with every replica
/// live, among stale timers of views already left.
fn ticking<E: ConsensusEngine>(kind: &Kind<E>) -> String {
    let mut net = net_of(kind, 4, never);
    net.start();
    for _ in 0..8 {
        drive_until_quiet(&mut net, 1);
        net.fire_view_timers();
    }
    drive_until_quiet(&mut net, 1);
    digest_of(kind, &net)
}

/// n = 5 with the view-1 leader silent: timeout, `NewView` quorum at the
/// next leader, and the self-counted `NewView` when the next leader is the
/// replica that timed out.
fn silent_leader<E: ConsensusEngine>(kind: &Kind<E>) -> String {
    let mut net = net_of(kind, 5, never);
    net.start();
    net.silence(ReplicaId(1));
    for _ in 0..5 {
        drive_until_quiet(&mut net, 1);
        net.fire_view_timers();
    }
    drive_until_quiet(&mut net, 1);
    digest_of(kind, &net)
}

/// n = 4; replicas 2 and 3 refuse the proposals of views 2 and 5, so those
/// views cannot gather a quorum and the `Reject` verdict's view change runs.
fn rejecting<E: ConsensusEngine>(kind: &Kind<E>) -> String {
    let mut net = net_of(kind, 4, |me, view| {
        me.0 >= 2 && (view == View(2) || view == View(5))
    });
    net.start();
    for _ in 0..4 {
        drive_until_quiet(&mut net, 1);
        net.fire_view_timers();
    }
    drive_until_quiet(&mut net, 1);
    digest_of(kind, &net)
}

/// One replica (0 of 4) fed by hand: stale, duplicate and mis-led
/// proposals, stale and foreign timers, an unknown verdict, a payload for
/// the wrong view, votes it should not count, and a commit quorum that
/// fires before its block arrives.
fn edges<E: ConsensusEngine>(kind: &Kind<E>) -> String {
    let config = SystemConfig::new(4);
    let me = ReplicaId(0);
    let mut e = Recorder::new((kind.new)(&config, me), never);
    let propose = |view: u64, height: u64, parent: BlockId, proposer: u32| {
        let proposer = ReplicaId(proposer);
        let payload = small_payload(proposer, View(view), 0);
        Proposal::new(View(view), height, parent, proposer, payload, true)
    };
    let started = e.on_start(0);
    // A proposal two views ahead, accepted: the replica moves on.
    let p3 = propose(3, 1, BlockId::GENESIS, 3);
    e.on_message(10, p3.proposer, ConsensusMsg::Propose(p3.clone()));
    e.on_proposal_verdict(11, p3.id, ProposalVerdict::Accept);
    // Stale (view 1 < current), duplicate, and not from the view's leader.
    let p1 = propose(1, 1, BlockId::GENESIS, 1);
    e.on_message(20, p1.proposer, ConsensusMsg::Propose(p1.clone()));
    e.on_proposal_verdict(21, p1.id, ProposalVerdict::Accept);
    e.on_message(22, p3.proposer, ConsensusMsg::Propose(p3.clone()));
    let misled = propose(5, 2, p3.id, 2);
    e.on_message(23, misled.proposer, ConsensusMsg::Propose(misled));
    // The timers armed at start (stale for the view-timer engines), and a
    // tag no engine owns.
    for (_, tag) in &started.timers {
        e.on_timer(30, *tag);
    }
    e.on_timer(31, 7);
    // A verdict for a block never seen; a payload for a view not current.
    e.on_proposal_verdict(
        40,
        BlockId(smp_crypto::Digest::of_u64(9)),
        ProposalVerdict::Accept,
    );
    e.on_payload(41, View(99), Payload::Empty);
    // Votes for a view this replica does not collect, and a repeated voter.
    for voter in [1, 1, 2] {
        let voter = ReplicaId(voter);
        let view = View(6);
        e.on_message(
            50,
            voter,
            ConsensusMsg::Vote {
                view,
                block: p3.id,
                voter,
            },
        );
        e.on_message(
            51,
            voter,
            ConsensusMsg::NewView {
                view,
                voter,
                high_qc_view: View(2),
            },
        );
    }
    // Commit quorum first, block second (view 5, led by replica 1): the
    // block never commits.
    let late = propose(5, 2, p3.id, 1);
    for voter in 1..4 {
        let voter = ReplicaId(voter);
        let (view, block, instance) = (late.view, late.id, late.proposer);
        e.on_message(
            60,
            voter,
            ConsensusMsg::Prepare {
                view,
                block,
                voter,
                instance,
            },
        );
        e.on_message(
            61,
            voter,
            ConsensusMsg::Commit {
                view,
                block,
                voter,
                instance,
            },
        );
    }
    e.on_message(62, late.proposer, ConsensusMsg::Propose(late.clone()));
    e.on_proposal_verdict(63, late.id, ProposalVerdict::Accept);
    // View 8 is this replica's: a vote quorum on view 7, a new-view quorum
    // for view 8, then the payload.
    for voter in 1..4 {
        let voter = ReplicaId(voter);
        let (view, block) = (View(7), late.id);
        e.on_message(70, voter, ConsensusMsg::Vote { view, block, voter });
    }
    for voter in 1..4 {
        let voter = ReplicaId(voter);
        let (view, high_qc_view) = (View(8), View(5));
        e.on_message(
            71,
            voter,
            ConsensusMsg::NewView {
                view,
                voter,
                high_qc_view,
            },
        );
    }
    e.on_payload(72, e.current_view(), Payload::Empty);
    // Time out up to the next view this replica leads, where two new-views
    // already wait: its own, counted locally, completes the quorum.
    for _ in 0..4 {
        if e.current_view().next().leader(4) == me {
            break;
        }
        e.on_timer(80, e.last_tag);
    }
    let view = e.current_view().next();
    for voter in 1..3 {
        let voter = ReplicaId(voter);
        let high_qc_view = View(8);
        e.on_message(
            81,
            voter,
            ConsensusMsg::NewView {
                view,
                voter,
                high_qc_view,
            },
        );
    }
    e.on_timer(82, e.last_tag);
    e.on_payload(83, view, Payload::Empty);
    // Views 13, 14, 15 and 17 chained on a parent never seen, each fully
    // voted: whatever the engine's commit rule emits stops at the gap.
    let mut parent = BlockId(smp_crypto::Digest::of_u64(13));
    for (view, height) in [(13, 5), (14, 6), (15, 7), (17, 8)] {
        let p = propose(view, height, parent, view as u32 % 4);
        parent = p.id;
        e.on_message(90, p.proposer, ConsensusMsg::Propose(p.clone()));
        e.on_proposal_verdict(91, p.id, ProposalVerdict::Accept);
        for voter in 1..4 {
            let voter = ReplicaId(voter);
            let (view, block, instance) = (p.view, p.id, p.proposer);
            e.on_message(
                92,
                voter,
                ConsensusMsg::Prepare {
                    view,
                    block,
                    voter,
                    instance,
                },
            );
            e.on_message(
                93,
                voter,
                ConsensusMsg::Commit {
                    view,
                    block,
                    voter,
                    instance,
                },
            );
        }
    }
    let mut h = e.hasher.clone();
    h.update_u64(e.current_view().0);
    h.update_u64(e.committed_count());
    h.update_u64((kind.extra)(&e.engine));
    let d = h.finalize();
    format!("{:016x}{:016x}-{}", d.0[0], d.0[1], e.committed_count())
}

fn scenarios<E: ConsensusEngine>(kind: Kind<E>) -> [String; 5] {
    [
        fault_free(&kind),
        ticking(&kind),
        silent_leader(&kind),
        rejecting(&kind),
        edges(&kind),
    ]
}

const SCENARIOS: [&str; 5] = [
    "fault-free",
    "ticking",
    "silent-leader",
    "rejecting",
    "edges",
];

/// `(engine, [digest-commits per scenario, in SCENARIOS order])`.
#[rustfmt::skip]
const RECORDED: [(&str, [&str; 5]); 4] = [
    ("HotStuff", ["56281fe9230ad82e81201bc115b18059-13323", "41d899f245c13ac2768f905ce41e80ef-59948", "eb14996a7fb8a5b9b96a090e56838e98-52", "b75c3447edf6f6beace608552240d192-13334", "48b81e54bd09f1b3722e4091d285cbe2-1"]),
    ("PBFT", ["a616ada4cb909cdff327849d96d3b3d1-2962", "7358e63f8515bd208eb8504197e143e2-13324", "c142c8c01be33b994df3fabdde755297-80", "099283f1fc812c5df450c4bc3c6f0aec-16", "6b74315778e357b359f94d76ee6edf88-4"]),
    ("Streamlet", ["eea580c92b070b06153204306715b950-5328", "47dc21586a32c07c5797e0206569244b-21320", "4db9085f72068b5b27e13e70abfa00f2-76", "fe7e4471ec6b60f887c96685ca71134a-8012", "47adc91c7cc4335f1f405c33186cc155-2"]),
    ("MirBFT", ["fc4b7aa4ec52c59a8bb4e4b0434deb62-16", "a9b87ac78c1a553af430947a7ecdccc5-144", "cef716e82357b673344dafcfff628677-96", "fe20e44a166d58205cd906f16040aa56-64", "d88fc54c2735a966378d5db02dabaa11-4"]),
];

#[test]
fn engine_effects_match_the_recorded_digests() {
    let got = [
        scenarios(Kind {
            new: HotStuffEngine::new,
            extra: HotStuffEngine::view_changes,
        }),
        scenarios(Kind {
            new: PbftEngine::new,
            extra: PbftEngine::view_changes,
        }),
        scenarios(Kind {
            new: StreamletEngine::new,
            extra: StreamletEngine::view_changes,
        }),
        scenarios(Kind {
            new: MirBftEngine::new,
            extra: MirBftEngine::next_seq,
        }),
    ];
    let print = std::env::var_os("GOLDEN_PRINT").is_some();
    let mut wrong = Vec::new();
    for ((engine, want), got) in RECORDED.iter().zip(&got) {
        if print {
            let row: Vec<String> = got.iter().map(|d| format!("{d:?}")).collect();
            println!("    ({engine:?}, [{}]),", row.join(", "));
        }
        for ((scenario, want), got) in SCENARIOS.iter().zip(want).zip(got) {
            if want != got {
                wrong.push(format!("{engine} {scenario}: got {got}, recorded {want}"));
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "engine effects changed:\n{}",
        wrong.join("\n")
    );
}
