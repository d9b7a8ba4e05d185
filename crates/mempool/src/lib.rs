//! Shared-mempool abstraction and baseline implementations.
//!
//! This crate defines the mempool interface used by every protocol in the
//! reproduction ([`Mempool`], mirroring the paper's `ReceiveTx` /
//! `ShareTx` / `MakeProposal` / `FillProposal` primitives) plus the
//! baseline implementations the paper evaluates against:
//!
//! * [`NativeMempool`] — no sharing at all; the leader ships full
//!   transaction data in its proposals (N-HS / N-PBFT).
//! * [`SimpleSmp`] — best-effort broadcast of microblocks with
//!   fetch-from-the-leader recovery (SMP-HS).
//! * [`GossipSmp`] — epidemic dissemination with a configurable fan-out
//!   (SMP-HS-G).
//! * [`NarwhalMempool`] — reliable-broadcast dissemination with
//!   availability certificates (the Narwhal baseline).
//! * [`DagMempool`] — Mysticeti-style DAG dissemination where acks and
//!   votes piggyback on the blocks themselves (D-HS / D-HS-F).
//!
//! The paper's own contribution — Stratus, with provably available
//! broadcast and distributed load balancing — lives in the `stratus`
//! crate and implements the same [`Mempool`] trait.
//!
//! # One core, five availability policies
//!
//! The five reference-based backends share one mechanism,
//! [`Dissemination`]: batching (seal on size or timeout), the microblock
//! store, the proposal queue, proposal fill tracking, serving and issuing
//! fetches with retry timers, the `make_payload` drain loop, the payload
//! preamble and the two fill outcomes of `on_proposal`, `on_commit`,
//! `stats` and the `batcher.*` / `dissemination.*` / `fetcher.*`
//! counters.  A backend's file holds only its *availability policy*, and
//! this table is the whole difference between the files:
//!
//! | backend | shares a sealed batch by | proposable when | ref carries | verified by | missing data blocks consensus? | fetch candidates |
//! |---|---|---|---|---|---|---|
//! | [`SimpleSmp`] | broadcast | stored (own: sealed) | nothing | — | yes (`MustWait`) | the proposer |
//! | [`GossipSmp`] | gossip to [`gossip::FANOUT`] peers, relayed on first receipt | stored (own: sealed) | nothing | — | yes (`MustWait`) | creators, then the proposer |
//! | [`NarwhalMempool`] | reliable broadcast (batch, echo, ready) | `2f + 1` readies and stored | ready certificate | [`CertificateBook`] | no | certificate signers, shuffled |
//! | [`DagMempool`] certified | DAG block + piggybacked acks | `2f + 1` acks and stored, in creator `seq` order | ack certificate | [`CertificateBook`] | no | certificate signers, shuffled |
//! | [`DagMempool`] fast path | DAG block + piggybacked acks | stored, in creator `seq` order | nothing | — | yes (`MustWait`) | creators, then the proposer |
//! | `stratus::StratusMempool` | PAB push (or DLB forward to a proxy) | availability proof known | PAB proof (`f + 1 ..= 2f + 1` acks, aggregated) | [`CertificateBook`] | no | each signer with probability `α`, retried through the signers in turn |
//!
//! A microblock's quorum certificate is collected, held and checked in
//! one place, [`CertificateBook`], built with its quorum (PAB's `q` for
//! Stratus, `2f + 1` for Narwhal and D-HS), which freezes an id's proof at
//! the quorum-th signature: Narwhal keeps two (echoes, readies), the
//! certified DAG one (acks), `stratus::PabEngine` two (the push phase's
//! acks, the verified proofs).
//! [`NativeMempool`] ships transactions inline, has no store and does not
//! use the core.
//!
//! Every certificate in the table is one `smp_crypto::QuorumProof` — a
//! digest, a signer bitmap and one aggregate of signatures that were each
//! verified singly on arrival — and costs the same on the wire whatever
//! the backend and the quorum: 32 + 64 + `⌈n / 8⌉` bytes.  It is held
//! once: the bitmap is shared between clones, so the copy on every message
//! and reference is a count bump.  It is also verified once:
//! [`CertificateBook::verify`] accepts a certificate *equal* to the one the
//! book holds for that id, the only shortcut, and checks any other in
//! full; [`CertificateBook::verify_refs`] runs it over a proposal's
//! references for all three certified backends.

pub mod api;
pub mod batcher;
pub mod dag;
pub mod dissemination;
pub mod fetcher;
pub mod gossip;
pub mod messages;
pub mod narwhal;
pub mod native;
pub mod simple;
pub mod store;

pub use api::{
    Dest, Effects, FillStatus, LoadSnapshot, Mempool, MempoolEvent, MempoolStats, TimerTag,
};
pub use batcher::{BatchOutcome, TxBatcher, BATCH_TIMEOUT, BATCH_TIMEOUT_TAG};
pub use dag::{DagAck, DagBlock, DagMempool, DagMsg, DagParentRef};
pub use dissemination::{CertificateBook, Dissemination, FetchWire, Missing, Verified, RETIRE_TAG};
pub use fetcher::{FetchAction, FetchRetryState, FETCH_TAG_BASE, FETCH_TIMEOUT};
pub use gossip::GossipSmp;
pub use messages::{NarwhalMsg, SmpMsg};
pub use narwhal::NarwhalMempool;
pub use native::{NativeMempool, NativeMsg};
pub use simple::SimpleSmp;
pub use store::{FillTracker, MicroblockStore, ProposalQueue, Retired};
