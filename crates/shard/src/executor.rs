//! Shard executors: how the `k` per-shard dissemination pipelines of a
//! [`crate::ShardedMempool`] are driven.
//!
//! Every [`smp_mempool::Mempool`] call on the wrapper decomposes into a
//! batch of per-shard operations ([`ShardOp`]).  A [`ShardExecutor`]
//! applies the batch and hands the per-shard outputs back **in the order
//! the operations were submitted**, which is what makes the merge at the
//! proposer deterministic regardless of how the shards are scheduled:
//!
//! * [`SequentialExecutor`] runs every operation inline on the calling
//!   thread — the deterministic default the discrete-event simulator
//!   uses.
//! * [`ParallelExecutor`] runs each shard's pipeline (batching, gossip,
//!   fill tracking) on its own `std::thread` worker with a private inbox,
//!   the Narwhal-worker / Mysticeti-instance architecture.  Results are
//!   re-ordered by submission id before they are merged, so outbound
//!   messages and `FillStatus` aggregation are byte-identical to the
//!   sequential executor on the same seed.
//!
//! # Determinism contract
//!
//! Two sources of divergence are pinned down so the executors stay
//! byte-identical (enforced by `tests/conformance.rs`):
//!
//! 1. **Randomness.**  With `k > 1` every shard owns a private
//!    [`SmallRng`] stream derived from `(seed, salt, shard)` by
//!    [`shard_rng_seed`]; the caller's RNG is not consulted, so shard `j`
//!    draws the same stream no matter which thread runs it.  With
//!    `k == 1` both executors run inline and thread the caller's RNG
//!    through, keeping the single-shard wrapper a byte-transparent
//!    pass-through over the bare backend.
//! 2. **Ordering.**  Operations submitted to one shard are applied in
//!    submission order (worker inboxes are FIFO), and outputs are merged
//!    in submission order, never in completion order.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use smp_mempool::{Effects, FillStatus, LoadSnapshot, Mempool, MempoolStats, TimerTag};
use smp_telemetry::Telemetry;
use smp_types::{Payload, Proposal, ReplicaId, SimTime, Transaction};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

/// One operation applied to a single shard's backend instance.
pub enum ShardOp<M: Mempool> {
    /// Ingest client transactions already routed to this shard.
    ClientTxs {
        /// Current simulated time.
        now: SimTime,
        /// The shard's share of the arriving transactions.
        txs: Vec<Transaction>,
    },
    /// Deliver a peer message addressed to this shard.
    Message {
        /// Current simulated time.
        now: SimTime,
        /// Sending replica.
        from: ReplicaId,
        /// The unwrapped backend message.
        msg: <M as Mempool>::Msg,
    },
    /// Fire a (demultiplexed) timer owned by this shard.
    Timer {
        /// Current simulated time.
        now: SimTime,
        /// The shard-local timer tag.
        tag: TimerTag,
    },
    /// Drain the shard's proposable content.
    MakePayload {
        /// Current simulated time.
        now: SimTime,
    },
    /// Verify / fill this shard's group of an incoming proposal.
    Proposal {
        /// Current simulated time.
        now: SimTime,
        /// The sub-proposal carrying only this shard's payload group.
        proposal: Proposal,
    },
    /// Commit this shard's group of a decided proposal.
    Commit {
        /// Current simulated time.
        now: SimTime,
        /// The sub-proposal carrying only this shard's payload group.
        proposal: Proposal,
    },
    /// Drain the shard's load-coordination state
    /// ([`Mempool::load_snapshot`]).
    LoadSnapshot,
    /// Impose a coordinator-merged ban view
    /// ([`Mempool::apply_load_view`]).
    ApplyLoadView {
        /// The merged cross-shard ban view.
        banned: Vec<ReplicaId>,
    },
}

// Manual impl: a derive would demand `M: Debug`, but only `M::Msg` (which
// the `Mempool` trait already requires to be `Debug`) appears in fields.
impl<M: Mempool> std::fmt::Debug for ShardOp<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardOp::ClientTxs { now, txs } => f
                .debug_struct("ClientTxs")
                .field("now", now)
                .field("txs", &txs.len())
                .finish(),
            ShardOp::Message { now, from, msg } => f
                .debug_struct("Message")
                .field("now", now)
                .field("from", from)
                .field("msg", msg)
                .finish(),
            ShardOp::Timer { now, tag } => f
                .debug_struct("Timer")
                .field("now", now)
                .field("tag", tag)
                .finish(),
            ShardOp::MakePayload { now } => {
                f.debug_struct("MakePayload").field("now", now).finish()
            }
            ShardOp::Proposal { now, proposal } => f
                .debug_struct("Proposal")
                .field("now", now)
                .field("id", &proposal.id)
                .finish(),
            ShardOp::Commit { now, proposal } => f
                .debug_struct("Commit")
                .field("now", now)
                .field("id", &proposal.id)
                .finish(),
            ShardOp::LoadSnapshot => f.debug_struct("LoadSnapshot").finish(),
            ShardOp::ApplyLoadView { banned } => f
                .debug_struct("ApplyLoadView")
                .field("banned", &banned.len())
                .finish(),
        }
    }
}

/// The output of one [`ShardOp`].
pub enum ShardOutput<M: Mempool> {
    /// Effects from an event-handler operation.
    Effects(Effects<<M as Mempool>::Msg>),
    /// The payload drained by [`ShardOp::MakePayload`].
    Payload(Payload),
    /// Verdict and effects from [`ShardOp::Proposal`].
    Fill(FillStatus, Effects<<M as Mempool>::Msg>),
    /// The drained state from [`ShardOp::LoadSnapshot`] (`None` when the
    /// backend performs no load balancing).
    Snapshot(Option<LoadSnapshot>),
}

impl<M: Mempool> std::fmt::Debug for ShardOutput<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardOutput::Effects(fx) => f.debug_tuple("Effects").field(fx).finish(),
            ShardOutput::Payload(p) => f.debug_tuple("Payload").field(p).finish(),
            ShardOutput::Fill(status, fx) => f.debug_tuple("Fill").field(status).field(fx).finish(),
            ShardOutput::Snapshot(s) => f.debug_tuple("Snapshot").field(s).finish(),
        }
    }
}

impl<M: Mempool> ShardOutput<M> {
    /// Unwraps an effects output (panics on a payload/fill output — an
    /// executor returning the wrong variant is a logic bug).
    pub fn into_effects(self) -> Effects<<M as Mempool>::Msg> {
        match self {
            ShardOutput::Effects(fx) => fx,
            other => panic!("expected Effects output, got {other:?}"),
        }
    }

    /// Unwraps a payload output.
    pub fn into_payload(self) -> Payload {
        match self {
            ShardOutput::Payload(p) => p,
            other => panic!("expected Payload output, got {other:?}"),
        }
    }

    /// Unwraps a fill output.
    pub fn into_fill(self) -> (FillStatus, Effects<<M as Mempool>::Msg>) {
        match self {
            ShardOutput::Fill(status, fx) => (status, fx),
            other => panic!("expected Fill output, got {other:?}"),
        }
    }

    /// Unwraps a load-snapshot output.
    pub fn into_snapshot(self) -> Option<LoadSnapshot> {
        match self {
            ShardOutput::Snapshot(s) => s,
            other => panic!("expected Snapshot output, got {other:?}"),
        }
    }
}

/// Applies one operation to one shard instance.
fn apply<M: Mempool>(shard: &mut M, rng: &mut SmallRng, op: ShardOp<M>) -> ShardOutput<M> {
    match op {
        ShardOp::ClientTxs { now, txs } => ShardOutput::Effects(shard.on_client_txs(now, txs, rng)),
        ShardOp::Message { now, from, msg } => {
            ShardOutput::Effects(shard.on_message(now, from, msg, rng))
        }
        ShardOp::Timer { now, tag } => ShardOutput::Effects(shard.on_timer(now, tag, rng)),
        ShardOp::MakePayload { now } => ShardOutput::Payload(shard.make_payload(now)),
        ShardOp::Proposal { now, proposal } => {
            let (status, fx) = shard.on_proposal(now, &proposal, rng);
            ShardOutput::Fill(status, fx)
        }
        ShardOp::Commit { now, proposal } => ShardOutput::Effects(shard.on_commit(now, &proposal)),
        ShardOp::LoadSnapshot => ShardOutput::Snapshot(shard.load_snapshot()),
        ShardOp::ApplyLoadView { banned } => {
            shard.apply_load_view(&banned);
            ShardOutput::Effects(Effects::none())
        }
    }
}

/// Derives the RNG seed of one shard's private stream.
///
/// `seed` is the system seed, `salt` distinguishes replicas (the replica
/// id in the standard wiring) so peers do not draw correlated streams,
/// and `shard` separates the streams within one replica.  Both executors
/// use this same derivation — that shared stream is half the determinism
/// contract.
pub fn shard_rng_seed(seed: u64, salt: u64, shard: usize) -> u64 {
    let mut x = seed
        ^ salt.rotate_left(17).wrapping_mul(0xd605_1c99_2958_9b1f)
        ^ (shard as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    // splitmix64 finalizer.
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn shard_rngs(seed: u64, salt: u64, k: usize) -> Vec<SmallRng> {
    (0..k)
        .map(|s| SmallRng::seed_from_u64(shard_rng_seed(seed, salt, s)))
        .collect()
}

/// Drives the per-shard pipelines of a sharded mempool.
///
/// Implementations must apply each shard's operations in submission order
/// and return outputs in submission order (see the module docs for the
/// full determinism contract).
pub trait ShardExecutor<M: Mempool> {
    /// Number of shards driven.
    fn shard_count(&self) -> usize;

    /// Applies `ops` (pairs of shard index and operation) and returns one
    /// output per operation, in submission order.
    ///
    /// `caller_rng` is threaded through only in the single-shard
    /// pass-through (`k == 1`); with more shards each shard draws from
    /// its private stream.  It may be `None` for RNG-free batches
    /// (payload assembly, commits).
    fn run(
        &mut self,
        ops: Vec<(u16, ShardOp<M>)>,
        caller_rng: Option<&mut SmallRng>,
    ) -> Vec<ShardOutput<M>>;

    /// Per-shard counters (the [`Mempool::stats`] roll-up, unaggregated).
    fn shard_stats(&self) -> Vec<MempoolStats>;

    /// Installs a telemetry handle: shard `i` receives the handle
    /// re-prefixed with `shard.<i>` so its metrics stay distinguishable
    /// after the merge.  Telemetry never influences execution — the
    /// conformance suite runs with it both live and disabled.
    fn set_telemetry(&mut self, _telemetry: Telemetry) {}
}

/// Runs every shard inline on the calling thread.
///
/// This is the deterministic default: no threads, no channels, and at
/// `k == 1` the caller's RNG is threaded straight through so the wrapper
/// stays byte-transparent over the bare backend.
pub struct SequentialExecutor<M: Mempool> {
    shards: Vec<M>,
    rngs: Vec<SmallRng>,
}

impl<M: Mempool> SequentialExecutor<M> {
    /// Builds the executor over `shards` backend instances with private
    /// RNG streams derived from `(seed, salt)`.
    pub fn new(shards: Vec<M>, seed: u64, salt: u64) -> Self {
        assert!(!shards.is_empty(), "at least one shard is required");
        let rngs = shard_rngs(seed, salt, shards.len());
        SequentialExecutor { shards, rngs }
    }

    /// A specific inner instance (for inspection; only the sequential
    /// executor can offer this — parallel shards live on their workers).
    pub fn shard(&self, index: usize) -> &M {
        &self.shards[index]
    }
}

impl<M: Mempool> ShardExecutor<M> for SequentialExecutor<M> {
    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn run(
        &mut self,
        ops: Vec<(u16, ShardOp<M>)>,
        mut caller_rng: Option<&mut SmallRng>,
    ) -> Vec<ShardOutput<M>> {
        let passthrough = self.shards.len() == 1;
        ops.into_iter()
            .map(|(shard, op)| {
                let s = shard as usize;
                match (passthrough, caller_rng.as_deref_mut()) {
                    (true, Some(rng)) => apply(&mut self.shards[s], rng, op),
                    // RNG-free ops at k == 1: the private stream is passed
                    // but never drawn from, so pass-through still holds.
                    _ => apply(&mut self.shards[s], &mut self.rngs[s], op),
                }
            })
            .collect()
    }

    fn shard_stats(&self) -> Vec<MempoolStats> {
        self.shards.iter().map(|s| s.stats()).collect()
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        for (i, shard) in self.shards.iter_mut().enumerate() {
            shard.set_telemetry(telemetry.with_prefix(&format!("shard.{i}")));
        }
    }
}

/// What travels into a worker's inbox.
enum Cmd<M: Mempool> {
    /// Apply a batch of operations in order; reply with one
    /// `Reply::Outputs` carrying every result.  Batching the whole
    /// hand-off into one channel crossing (instead of one per operation)
    /// is what keeps the cross-shard fan-out cheap: a `k`-shard call
    /// costs `2k` channel operations, not `2 × ops`.
    Ops(Vec<(u64, ShardOp<M>)>),
    /// Reply with a stats snapshot.
    Stats,
    /// Install a telemetry handle on the worker's shard (no reply —
    /// the FIFO inbox orders it before any subsequent `Ops`).
    SetTelemetry(Box<Telemetry>),
    /// Exit the worker loop.
    Shutdown,
}

/// What travels back from a worker.
enum Reply<M: Mempool> {
    Outputs(Vec<(u64, ShardOutput<M>)>),
    Stats(Box<MempoolStats>),
}

struct Worker<M: Mempool> {
    inbox: Sender<Cmd<M>>,
    replies: Receiver<Reply<M>>,
    handle: Option<JoinHandle<()>>,
}

fn worker_loop<M: Mempool>(
    mut shard: M,
    mut rng: SmallRng,
    inbox: Receiver<Cmd<M>>,
    replies: Sender<Reply<M>>,
) {
    while let Ok(cmd) = inbox.recv() {
        let reply = match cmd {
            Cmd::Ops(ops) => Reply::Outputs(
                ops.into_iter()
                    .map(|(id, op)| (id, apply(&mut shard, &mut rng, op)))
                    .collect(),
            ),
            Cmd::Stats => Reply::Stats(Box::new(shard.stats())),
            Cmd::SetTelemetry(telemetry) => {
                shard.set_telemetry(*telemetry);
                continue;
            }
            Cmd::Shutdown => break,
        };
        if replies.send(reply).is_err() {
            break;
        }
    }
}

/// Runs each shard's pipeline on its own worker thread.
///
/// Workers are persistent: each owns its backend instance, its private
/// RNG stream, and a FIFO inbox.  A batch of operations fans out to the
/// owning workers, runs concurrently, and is collected back **by
/// submission id**, so the merged result is bit-for-bit the sequential
/// executor's.  With `k == 1` there is nothing to parallelise and the
/// executor degenerates to an inline [`SequentialExecutor`], preserving
/// the caller-RNG pass-through.
pub struct ParallelExecutor<M: Mempool> {
    mode: ParMode<M>,
}

enum ParMode<M: Mempool> {
    Inline(SequentialExecutor<M>),
    Workers(Vec<Worker<M>>),
}

impl<M> ParallelExecutor<M>
where
    M: Mempool + Send + 'static,
    M::Msg: Send,
{
    /// Builds the executor, spawning one worker thread per shard.  A
    /// single shard has nothing to parallelise and runs inline, which
    /// also threads the caller's RNG through.
    pub fn new(shards: Vec<M>, seed: u64, salt: u64) -> Self {
        assert!(!shards.is_empty(), "at least one shard is required");
        if shards.len() == 1 {
            return ParallelExecutor {
                mode: ParMode::Inline(SequentialExecutor::new(shards, seed, salt)),
            };
        }
        let mut rngs = shard_rngs(seed, salt, shards.len()).into_iter();
        let workers = shards
            .into_iter()
            .map(|shard| {
                let rng = rngs.next().expect("one rng per shard");
                let (inbox_tx, inbox_rx) = channel();
                let (reply_tx, reply_rx) = channel();
                let handle = std::thread::Builder::new()
                    .name("smp-shard-worker".to_string())
                    .spawn(move || worker_loop(shard, rng, inbox_rx, reply_tx))
                    .expect("spawn shard worker");
                Worker {
                    inbox: inbox_tx,
                    replies: reply_rx,
                    handle: Some(handle),
                }
            })
            .collect();
        ParallelExecutor {
            mode: ParMode::Workers(workers),
        }
    }
}

impl<M: Mempool> ParallelExecutor<M> {
    /// A specific inner instance, when it lives on the calling thread
    /// (the inline degenerate mode).  Worker-owned shards return `None`.
    pub fn shard(&self, index: usize) -> Option<&M> {
        match &self.mode {
            ParMode::Inline(seq) => Some(seq.shard(index)),
            ParMode::Workers(_) => None,
        }
    }
}

impl<M: Mempool> ShardExecutor<M> for ParallelExecutor<M> {
    fn shard_count(&self) -> usize {
        match &self.mode {
            ParMode::Inline(seq) => seq.shard_count(),
            ParMode::Workers(workers) => workers.len(),
        }
    }

    fn run(
        &mut self,
        ops: Vec<(u16, ShardOp<M>)>,
        caller_rng: Option<&mut SmallRng>,
    ) -> Vec<ShardOutput<M>> {
        let workers = match &mut self.mode {
            ParMode::Inline(seq) => return seq.run(ops, caller_rng),
            ParMode::Workers(workers) => workers,
        };
        let n = ops.len();
        // One batch per worker: per-shard submission order is preserved
        // inside the batch, and the whole hand-off costs one send and
        // one recv per *shard* instead of per operation.
        let mut batches: Vec<Vec<(u64, ShardOp<M>)>> =
            (0..workers.len()).map(|_| Vec::new()).collect();
        for (id, (shard, op)) in ops.into_iter().enumerate() {
            batches[shard as usize].push((id as u64, op));
        }
        let mut busy = Vec::new();
        for (s, batch) in batches.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            workers[s]
                .inbox
                .send(Cmd::Ops(batch))
                .expect("shard worker alive");
            busy.push(s);
        }
        let mut out: Vec<Option<ShardOutput<M>>> = (0..n).map(|_| None).collect();
        for s in busy {
            match workers[s].replies.recv().expect("shard worker alive") {
                Reply::Outputs(outputs) => {
                    for (id, output) in outputs {
                        out[id as usize] = Some(output);
                    }
                }
                Reply::Stats(_) => unreachable!("no stats requested during run"),
            }
        }
        out.into_iter()
            .map(|o| o.expect("one output per op"))
            .collect()
    }

    fn shard_stats(&self) -> Vec<MempoolStats> {
        match &self.mode {
            ParMode::Inline(seq) => seq.shard_stats(),
            ParMode::Workers(workers) => workers
                .iter()
                .map(|w| {
                    w.inbox.send(Cmd::Stats).expect("shard worker alive");
                    match w.replies.recv().expect("shard worker alive") {
                        Reply::Stats(stats) => *stats,
                        Reply::Outputs(..) => unreachable!("no ops in flight"),
                    }
                })
                .collect(),
        }
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        match &mut self.mode {
            ParMode::Inline(seq) => seq.set_telemetry(telemetry),
            ParMode::Workers(workers) => {
                for (i, w) in workers.iter().enumerate() {
                    let handle = telemetry.with_prefix(&format!("shard.{i}"));
                    w.inbox
                        .send(Cmd::SetTelemetry(Box::new(handle)))
                        .expect("shard worker alive");
                }
            }
        }
    }
}

impl<M: Mempool> Drop for ParallelExecutor<M> {
    fn drop(&mut self) {
        if let ParMode::Workers(workers) = &mut self.mode {
            for w in workers.iter() {
                // A worker that already exited (panic) has dropped its
                // receiver; nothing to shut down then.
                let _ = w.inbox.send(Cmd::Shutdown);
            }
            for w in workers.iter_mut() {
                if let Some(handle) = w.handle.take() {
                    let _ = handle.join();
                }
            }
        }
    }
}

/// Runtime-selected executor (the `SystemConfig::executor` knob) behind a
/// single type, so [`crate::ShardedMempool`] does not grow a type
/// parameter per executor.
pub enum Executor<M: Mempool> {
    /// Inline execution.
    Sequential(SequentialExecutor<M>),
    /// One worker thread per shard.
    Parallel(ParallelExecutor<M>),
}

impl<M: Mempool> Executor<M> {
    /// A specific inner instance, when it lives on the calling thread
    /// (sequential or inline-parallel mode); `None` for worker-owned
    /// shards.
    pub fn shard(&self, index: usize) -> Option<&M> {
        match self {
            Executor::Sequential(e) => Some(e.shard(index)),
            Executor::Parallel(e) => e.shard(index),
        }
    }
}

impl<M: Mempool> ShardExecutor<M> for Executor<M> {
    fn shard_count(&self) -> usize {
        match self {
            Executor::Sequential(e) => e.shard_count(),
            Executor::Parallel(e) => e.shard_count(),
        }
    }

    fn run(
        &mut self,
        ops: Vec<(u16, ShardOp<M>)>,
        caller_rng: Option<&mut SmallRng>,
    ) -> Vec<ShardOutput<M>> {
        match self {
            Executor::Sequential(e) => e.run(ops, caller_rng),
            Executor::Parallel(e) => e.run(ops, caller_rng),
        }
    }

    fn shard_stats(&self) -> Vec<MempoolStats> {
        match self {
            Executor::Sequential(e) => e.shard_stats(),
            Executor::Parallel(e) => e.shard_stats(),
        }
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        match self {
            Executor::Sequential(e) => e.set_telemetry(telemetry),
            Executor::Parallel(e) => e.set_telemetry(telemetry),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smp_mempool::SimpleSmp;
    use smp_types::{ClientId, MempoolConfig, SystemConfig};

    fn tx(client: u32, seq: u64) -> Transaction {
        Transaction::synthetic(ClientId(client), seq, 128, 0)
    }

    fn small_system() -> SystemConfig {
        SystemConfig::new(4).with_mempool(MempoolConfig {
            batch_size_bytes: 512,
            tx_payload_bytes: 128,
            ..MempoolConfig::default()
        })
    }

    fn instances(sys: &SystemConfig, k: usize) -> Vec<SimpleSmp> {
        (0..k).map(|_| SimpleSmp::new(sys, ReplicaId(0))).collect()
    }

    fn ingest_ops(k: usize, base: u64, per_shard: usize) -> Vec<(u16, ShardOp<SimpleSmp>)> {
        (0..k as u16)
            .map(|s| {
                let txs = (0..per_shard)
                    .map(|i| tx(s as u32, base + i as u64))
                    .collect();
                (s, ShardOp::ClientTxs { now: 0, txs })
            })
            .collect()
    }

    #[test]
    fn shard_rng_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for salt in 0..8u64 {
            for shard in 0..8usize {
                assert!(seen.insert(shard_rng_seed(42, salt, shard)));
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_output_for_output_order_and_effects() {
        let sys = small_system();
        for k in [1usize, 2, 4] {
            let mut seq = SequentialExecutor::new(instances(&sys, k), sys.seed, 3);
            let mut par = ParallelExecutor::new(instances(&sys, k), sys.seed, 3);
            let mut rng_a = SmallRng::seed_from_u64(9);
            let mut rng_b = SmallRng::seed_from_u64(9);
            for round in 0..5u64 {
                let a = seq.run(ingest_ops(k, round * 100, 8), Some(&mut rng_a));
                let b = par.run(ingest_ops(k, round * 100, 8), Some(&mut rng_b));
                assert_eq!(a.len(), b.len());
                for (x, y) in a.into_iter().zip(b) {
                    let (fx, fy) = (x.into_effects(), y.into_effects());
                    assert_eq!(fx.msgs, fy.msgs, "k={k} round={round}");
                    assert_eq!(fx.timers, fy.timers);
                    assert_eq!(fx.events, fy.events);
                }
            }
            assert_eq!(seq.shard_stats(), par.shard_stats());
        }
    }

    #[test]
    fn parallel_preserves_per_shard_fifo_and_submission_order() {
        let sys = small_system();
        let k = 4;
        let mut par = ParallelExecutor::new(instances(&sys, k), sys.seed, 0);
        // Interleave two ops per shard in an adversarial order; outputs
        // must come back in exactly the submitted order.
        let mut ops = Vec::new();
        for s in (0..k as u16).rev() {
            ops.push((s, ShardOp::MakePayload { now: 1 }));
            ops.push((s, ShardOp::MakePayload { now: 2 }));
        }
        let outs = par.run(ops, None);
        assert_eq!(outs.len(), 2 * k);
        for o in outs {
            let _ = o.into_payload(); // every output is a payload, in order
        }
    }

    #[test]
    fn dropping_the_parallel_executor_joins_workers() {
        let sys = small_system();
        let par = ParallelExecutor::new(instances(&sys, 4), sys.seed, 1);
        drop(par); // must not hang or panic
    }
}
