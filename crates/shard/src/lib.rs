//! `smp-shard` — a sharded shared mempool.
//!
//! The paper's Stratus design removes the *leader* dissemination
//! bottleneck by moving transaction data into a shared mempool, but every
//! replica still runs a single mempool instance, so one dissemination
//! pipeline remains the per-replica throughput ceiling.  Multi-instance
//! designs (Mysticeti's per-validator broadcast instances, Narwhal's
//! workers) take the next step: shard transactions across `k` independent
//! dissemination pipelines per replica.
//!
//! [`ShardedMempool`] brings that architecture to this reproduction as a
//! generic wrapper over *any* backend implementing
//! [`smp_mempool::Mempool`]:
//!
//! * a deterministic [`ShardRouter`] assigns each client transaction to
//!   one of `k` inner mempool instances by transaction-id hash,
//! * every inner instance keeps its own message namespace via the
//!   [`ShardedMsg`] envelope and its own timer namespace via an internal
//!   timer multiplexer ([`TimerMux`]),
//! * `make_payload` assembles a cross-shard proposal by draining shards
//!   round-robin under the configured byte budget
//!   ([`smp_types::MempoolConfig::max_proposal_bytes`]), emitting a
//!   [`smp_types::Payload::Sharded`] payload whose groups route back to
//!   the matching instance on the receiving side,
//! * `on_proposal` aggregates per-shard fill verdicts — the proposal is
//!   `Ready` only when *every* referenced shard is filled, and a single
//!   `ProposalReady` event is re-emitted once the last waiting shard
//!   resolves,
//! * [`smp_mempool::Mempool::stats`] rolls per-shard counters up into one
//!   [`smp_mempool::MempoolStats`].
//!
//! With `k = 1` the wrapper is a transparent pass-through: payloads,
//! message sizes, and CPU costs are identical to the unwrapped backend,
//! so a sharded run at one shard commits exactly what the unsharded
//! backend commits on the same seed.
//!
//! How the `k` pipelines are *scheduled* is the [`executor`] module's
//! job: [`SequentialExecutor`] runs them inline (deterministic default),
//! [`ParallelExecutor`] gives each shard its own worker thread with a
//! private inbox and merges outputs back in submission order — the two
//! are byte-identical on the same seed (`SystemConfig::executor` picks
//! one; `tests/conformance.rs` proves the equivalence across every
//! Table II protocol).

pub mod envelope;
pub mod executor;
pub mod mempool;
pub mod mux;
pub mod router;

pub use envelope::ShardedMsg;
pub use executor::{
    shard_rng_seed, Executor, ParallelExecutor, SequentialExecutor, ShardExecutor, ShardOp,
    ShardOutput,
};
pub use mempool::{per_shard_config, ShardedMempool};
pub use mux::TimerMux;
pub use router::ShardRouter;
