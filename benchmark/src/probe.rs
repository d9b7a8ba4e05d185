//! Probe wrappers: the benchmark's only view into the layers.
//!
//! `Probe<T>` wraps a mempool, a consensus engine or a whole node and
//! implements the same trait by delegating every call.  It always counts
//! calls; it reads clocks around them only in a traced run, so the
//! untraced run that produces the end-to-end metrics pays for counting
//! alone.  Probes never alter an argument or a result: the assembly
//! equivalence check (`checks::assembly_equivalence`) proves that a
//! probed deployment reproduces `smp_replica::run` bit for bit.
//!
//! All probes of one run share a [`Hub`]: the commit [`Ledger`] (which
//! replica first-committed which transaction, the safety log, latency
//! samples) and a few start-up timestamps.

use crate::ledger::Ledger;
use rand::rngs::SmallRng;
use simnet::{Node, NodeCtx, TimerTag};
use smp_consensus::{CEffects, CEvent, ConsensusEngine, ConsensusMsg, ProposalVerdict};
use smp_mempool::{Effects, FillStatus, Mempool, MempoolEvent, MempoolStats};
use smp_telemetry::Telemetry;
use smp_types::{BlockId, Payload, Proposal, ReplicaId, SimTime, Transaction, View};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Every probed call, layer-major.  The discriminant indexes the
/// per-probe count and time arrays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Call {
    NodeStart,
    NodeMessage,
    NodeTimer,
    NodeRestart,
    MpClientTxs,
    MpMessage,
    MpTimer,
    MpMakePayload,
    MpProposal,
    MpCommit,
    CsStart,
    CsMessage,
    CsTimer,
    CsPayload,
    CsVerdict,
}

/// Number of [`Call`] variants.
pub const CALLS: usize = 15;

impl Call {
    /// Span name: `<layer>.<call>`.
    pub fn name(self) -> &'static str {
        match self {
            Call::NodeStart => "replica.on_start",
            Call::NodeMessage => "replica.on_message",
            Call::NodeTimer => "replica.on_timer",
            Call::NodeRestart => "replica.on_restart",
            Call::MpClientTxs => "mempool.on_client_txs",
            Call::MpMessage => "mempool.on_message",
            Call::MpTimer => "mempool.on_timer",
            Call::MpMakePayload => "mempool.make_payload",
            Call::MpProposal => "mempool.on_proposal",
            Call::MpCommit => "mempool.on_commit",
            Call::CsStart => "consensus.on_start",
            Call::CsMessage => "consensus.on_message",
            Call::CsTimer => "consensus.on_timer",
            Call::CsPayload => "consensus.on_payload",
            Call::CsVerdict => "consensus.on_verdict",
        }
    }
}

/// Per-call counts and (traced runs only) time.  A probe accumulates
/// [`ticks`]; [`merge_ticks`](Self::merge_ticks) turns them into
/// nanoseconds when the run's counters are collected.
#[derive(Clone, Debug, Default)]
pub struct CallStats {
    pub calls: [u64; CALLS],
    pub nanos: [u64; CALLS],
}

impl CallStats {
    /// Adds a probe's counters, its time scaled by `ns_per_tick`.
    pub fn merge_ticks(&mut self, probe: &CallStats, ns_per_tick: f64) {
        for i in 0..CALLS {
            self.calls[i] += probe.calls[i];
            self.nanos[i] += (probe.nanos[i] as f64 * ns_per_tick) as u64;
        }
    }

    pub fn calls_of(&self, calls: &[Call]) -> u64 {
        calls.iter().map(|c| self.calls[*c as usize]).sum()
    }

    pub fn nanos_of(&self, calls: &[Call]) -> u64 {
        calls.iter().map(|c| self.nanos[*c as usize]).sum()
    }
}

pub const NODE_CALLS: [Call; 4] = [
    Call::NodeStart,
    Call::NodeMessage,
    Call::NodeTimer,
    Call::NodeRestart,
];
pub const MEMPOOL_CALLS: [Call; 6] = [
    Call::MpClientTxs,
    Call::MpMessage,
    Call::MpTimer,
    Call::MpMakePayload,
    Call::MpProposal,
    Call::MpCommit,
];
pub const CONSENSUS_CALLS: [Call; 5] = [
    Call::CsStart,
    Call::CsMessage,
    Call::CsTimer,
    Call::CsPayload,
    Call::CsVerdict,
];

/// The probes' clock: the time-stamp counter where there is one (8 ns a
/// read against 25 for the system clock — two reads around every call of
/// every layer is most of what tracing costs), nanoseconds elsewhere.
/// [`Hub::ns_per_tick`] converts.
#[cfg(target_arch = "x86_64")]
#[inline]
fn ticks() -> u64 {
    // SAFETY: RDTSC reads a counter register; it has no preconditions and
    // touches no memory.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn ticks() -> u64 {
    static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One raw span of the traced run.  Spans of one thread nest by time —
/// a handler's span encloses those of the calls it made — which is how
/// `trace::write_chrome_trace` finds each span's parent.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub call: Call,
    pub replica: u32,
    /// Nanoseconds since [`Hub::t0`].
    pub start_ns: u64,
    pub dur_ns: u64,
    /// First word of the proposal id the call was about, 0 for none.
    pub proposal: u64,
}

/// How many raw spans each thread keeps (the newest win).
pub const SPAN_RING: usize = 5_000;

/// The bounded ring of raw spans of one thread: a vector that wraps once
/// it is full.  The simulator runs every
/// replica on one thread, the socket runtime one replica per thread, so a
/// thread-local ring needs no lock in either.
#[derive(Default)]
pub struct Trace {
    ring: Vec<Span>,
    /// Where the next span goes once the ring is full.
    next: usize,
}

impl Trace {
    #[inline]
    fn push(&mut self, span: Span) {
        if self.ring.len() < SPAN_RING {
            self.ring.push(span);
        } else {
            self.ring[self.next] = span;
            self.next = (self.next + 1) % SPAN_RING;
        }
    }

    /// The kept spans, oldest first, their ticks turned into nanoseconds.
    pub fn into_spans(mut self, ns_per_tick: f64) -> Vec<Span> {
        self.ring.rotate_left(self.next);
        for span in &mut self.ring {
            span.start_ns = (span.start_ns as f64 * ns_per_tick) as u64;
            span.dur_ns = (span.dur_ns as f64 * ns_per_tick) as u64;
        }
        self.ring
    }
}

thread_local! {
    static TRACE: RefCell<Trace> = RefCell::new(Trace::default());
}

/// Takes this thread's span ring, leaving an empty one.
pub fn take_trace() -> Trace {
    TRACE.with(|t| std::mem::take(&mut *t.borrow_mut()))
}

/// State shared by every probe of one run.
pub struct Hub {
    /// Whether probes read clocks and record spans.
    pub traced: bool,
    /// The run's time origin, on the system clock and in [`ticks`].
    pub t0: Instant,
    tick0: u64,
    pub ledger: Mutex<Ledger>,
    /// Nanoseconds from `t0` to the latest `ConsensusEngine::on_start`.
    pub last_start_ns: AtomicU64,
    /// Per replica: harness clock at `on_start` minus the `now` the
    /// runtime passed, in microseconds since `t0` — the replica's epoch.
    pub epochs_us: Mutex<Vec<Option<i64>>>,
}

impl Hub {
    pub fn new(traced: bool, ledger: Ledger) -> Arc<Hub> {
        let n = ledger.n();
        Arc::new(Hub {
            traced,
            t0: Instant::now(),
            tick0: ticks(),
            ledger: Mutex::new(ledger),
            last_start_ns: AtomicU64::new(0),
            epochs_us: Mutex::new(vec![None; n]),
        })
    }

    fn elapsed_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Nanoseconds per [`ticks`] unit, measured over the run so far.
    pub fn ns_per_tick(&self) -> f64 {
        let elapsed = ticks().wrapping_sub(self.tick0);
        if elapsed == 0 {
            1.0
        } else {
            self.elapsed_ns() as f64 / elapsed as f64
        }
    }

    pub fn ledger(&self) -> std::sync::MutexGuard<'_, Ledger> {
        self.ledger
            .lock()
            .expect("a probe panicked holding the ledger")
    }

    /// Largest difference between two replicas' clock epochs, in µs.
    pub fn clock_skew_us(&self) -> f64 {
        let epochs = self.epochs_us.lock().expect("epochs poisoned");
        let known: Vec<i64> = epochs.iter().flatten().copied().collect();
        match (known.iter().min(), known.iter().max()) {
            (Some(lo), Some(hi)) => (hi - lo) as f64,
            _ => 0.0,
        }
    }
}

/// The wrapper.  See the module documentation.
pub struct Probe<T> {
    inner: T,
    replica: u32,
    hub: Arc<Hub>,
    pub counters: CallStats,
    /// `on_proposal` calls that answered `MustWait`.
    pub must_waits: u64,
    /// Microblocks fetched (`MempoolEvent::FetchIssued`).
    pub fetches: u64,
    /// `on_payload` calls that carried an empty payload.
    pub empty_payloads: u64,
    /// `CEvent::ViewChange` outputs seen.
    pub view_changes: u64,
}

impl<T> Probe<T> {
    pub fn new(inner: T, replica: ReplicaId, hub: &Arc<Hub>) -> Self {
        Probe {
            inner,
            replica: replica.0,
            hub: Arc::clone(hub),
            counters: CallStats::default(),
            must_waits: 0,
            fetches: 0,
            empty_payloads: 0,
            view_changes: 0,
        }
    }

    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Runs `f` on the wrapped value as call `call`.
    #[inline]
    fn timed<R>(&mut self, call: Call, proposal: u64, f: impl FnOnce(&mut T) -> R) -> R {
        self.counters.calls[call as usize] += 1;
        if !self.hub.traced {
            return f(&mut self.inner);
        }
        let start = ticks();
        let out = f(&mut self.inner);
        let dur = ticks().wrapping_sub(start);
        self.counters.nanos[call as usize] += dur;
        // In ticks until `Trace::into_spans` converts them.
        let span = Span {
            call,
            replica: self.replica,
            start_ns: start.wrapping_sub(self.hub.tick0),
            dur_ns: dur,
            proposal,
        };
        TRACE.with(|t| {
            let mut t = t.borrow_mut();
            t.push(span);
        });
        out
    }

    /// Folds the notifications of a mempool result into the counters and
    /// the ledger.
    fn note_mempool_events(&mut self, now: SimTime, events: &[MempoolEvent]) {
        for ev in events {
            match ev {
                MempoolEvent::FetchIssued { count } => self.fetches += *count as u64,
                MempoolEvent::Executed { receive_times, .. } if !receive_times.is_empty() => {
                    self.hub.ledger().record_executed(now, receive_times);
                }
                _ => {}
            }
        }
    }

    fn note_consensus_events(&mut self, fx: &CEffects) {
        for ev in &fx.events {
            if matches!(ev, CEvent::ViewChange { .. }) {
                self.view_changes += 1;
            }
        }
    }
}

fn short(id: BlockId) -> u64 {
    id.0 .0[0]
}

impl<M: Mempool> Mempool for Probe<M> {
    type Msg = M::Msg;

    fn on_client_txs(
        &mut self,
        now: SimTime,
        txs: Vec<Transaction>,
        rng: &mut SmallRng,
    ) -> Effects<Self::Msg> {
        self.hub.ledger().record_offer(self.replica, now, &txs);
        let fx = self.timed(Call::MpClientTxs, 0, |m| m.on_client_txs(now, txs, rng));
        self.note_mempool_events(now, &fx.events);
        fx
    }

    fn on_message(
        &mut self,
        now: SimTime,
        from: ReplicaId,
        msg: Self::Msg,
        rng: &mut SmallRng,
    ) -> Effects<Self::Msg> {
        let fx = self.timed(Call::MpMessage, 0, |m| m.on_message(now, from, msg, rng));
        self.note_mempool_events(now, &fx.events);
        fx
    }

    fn on_timer(&mut self, now: SimTime, tag: u64, rng: &mut SmallRng) -> Effects<Self::Msg> {
        let fx = self.timed(Call::MpTimer, 0, |m| m.on_timer(now, tag, rng));
        self.note_mempool_events(now, &fx.events);
        fx
    }

    fn make_payload(&mut self, now: SimTime) -> Payload {
        self.timed(Call::MpMakePayload, 0, |m| m.make_payload(now))
    }

    fn on_proposal(
        &mut self,
        now: SimTime,
        proposal: &Proposal,
        rng: &mut SmallRng,
    ) -> (FillStatus, Effects<Self::Msg>) {
        let (status, fx) = self.timed(Call::MpProposal, short(proposal.id), |m| {
            m.on_proposal(now, proposal, rng)
        });
        if matches!(status, FillStatus::MustWait(_)) {
            self.must_waits += 1;
        }
        self.note_mempool_events(now, &fx.events);
        (status, fx)
    }

    fn on_commit(&mut self, now: SimTime, proposal: &Proposal) -> Effects<Self::Msg> {
        self.hub.ledger().record_commit(self.replica, now, proposal);
        let fx = self.timed(Call::MpCommit, short(proposal.id), |m| {
            m.on_commit(now, proposal)
        });
        self.note_mempool_events(now, &fx.events);
        fx
    }

    fn stats(&self) -> MempoolStats {
        self.inner.stats()
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.inner.set_telemetry(telemetry);
    }

    fn load_snapshot(&mut self) -> Option<smp_mempool::LoadSnapshot> {
        self.inner.load_snapshot()
    }

    fn apply_load_view(&mut self, banned: &[ReplicaId]) {
        self.inner.apply_load_view(banned);
    }
}

impl<E: ConsensusEngine> ConsensusEngine for Probe<E> {
    fn on_start(&mut self, now: SimTime) -> CEffects {
        let at_ns = self.hub.elapsed_ns();
        self.hub.last_start_ns.fetch_max(at_ns, Ordering::Relaxed);
        self.hub.epochs_us.lock().expect("epochs poisoned")[self.replica as usize] =
            Some((at_ns / 1_000) as i64 - now as i64);
        let fx = self.timed(Call::CsStart, 0, |e| e.on_start(now));
        self.note_consensus_events(&fx);
        fx
    }

    fn on_message(&mut self, now: SimTime, from: ReplicaId, msg: ConsensusMsg) -> CEffects {
        let tag = match &msg {
            ConsensusMsg::Propose(p) => short(p.id),
            ConsensusMsg::Vote { block, .. }
            | ConsensusMsg::Prepare { block, .. }
            | ConsensusMsg::Commit { block, .. } => short(*block),
            ConsensusMsg::NewView { .. } => 0,
        };
        let fx = self.timed(Call::CsMessage, tag, |e| e.on_message(now, from, msg));
        self.note_consensus_events(&fx);
        fx
    }

    fn on_timer(&mut self, now: SimTime, tag: u64) -> CEffects {
        let fx = self.timed(Call::CsTimer, 0, |e| e.on_timer(now, tag));
        self.note_consensus_events(&fx);
        fx
    }

    fn on_payload(&mut self, now: SimTime, view: View, payload: Payload) -> CEffects {
        if payload.is_empty() {
            self.empty_payloads += 1;
        }
        let fx = self.timed(Call::CsPayload, 0, |e| e.on_payload(now, view, payload));
        self.note_consensus_events(&fx);
        fx
    }

    fn on_proposal_verdict(
        &mut self,
        now: SimTime,
        block: BlockId,
        verdict: ProposalVerdict,
    ) -> CEffects {
        let fx = self.timed(Call::CsVerdict, short(block), |e| {
            e.on_proposal_verdict(now, block, verdict)
        });
        self.note_consensus_events(&fx);
        fx
    }

    fn id(&self) -> ReplicaId {
        self.inner.id()
    }

    fn current_view(&self) -> View {
        self.inner.current_view()
    }

    fn committed_count(&self) -> u64 {
        self.inner.committed_count()
    }
}

impl<N: Node> Node for Probe<N> {
    type Msg = N::Msg;

    fn on_start(&mut self, ctx: &mut NodeCtx<'_, Self::Msg>) {
        self.timed(Call::NodeStart, 0, |n| n.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_, Self::Msg>, from: ReplicaId, msg: Self::Msg) {
        self.timed(Call::NodeMessage, 0, |n| n.on_message(ctx, from, msg));
    }

    fn on_client_input(&mut self, ctx: &mut NodeCtx<'_, Self::Msg>, msg: Self::Msg) {
        self.timed(Call::NodeMessage, 0, |n| n.on_client_input(ctx, msg));
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, Self::Msg>, tag: TimerTag) {
        self.timed(Call::NodeTimer, 0, |n| n.on_timer(ctx, tag));
    }

    fn on_restart(&mut self, ctx: &mut NodeCtx<'_, Self::Msg>) {
        self.timed(Call::NodeRestart, 0, |n| n.on_restart(ctx));
    }
}
