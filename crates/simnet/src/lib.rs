//! `simnet` — a deterministic discrete-event network and host simulator.
//!
//! The paper evaluates Stratus on an Alibaba Cloud testbed (LAN with up to
//! 3 Gb/s per replica and < 10 ms RTT; WAN emulated with NetEm at
//! 100 Mb/s and 100 ms RTT).  This crate is the substitute substrate: it
//! models exactly the resources those experiments exercise —
//!
//! * **per-replica outbound bandwidth** — every message is serialized
//!   through a FIFO (with a strict-priority lane for consensus messages,
//!   matching the Stratus prioritization optimization),
//! * **per-link propagation latency and jitter**,
//! * **per-message CPU cost**, so small deployments are CPU-bound the way
//!   the paper's 4-vCPU instances are.  A delivery occupies its receiver's
//!   CPU for [`SimMessage::cpu_cost_us`], rounded up to a whole
//!   microsecond; there is no speed knob, the figures themselves are the
//!   model.  A delivery passes the fault plane once, when it arrives; if
//!   the CPU is busy or others are already waiting, it joins the back of
//!   that node's inbox, a FIFO in arrival order, and is served when the
//!   ones before it are done.  What waits is its slot in the event
//!   queue's slab, where the message stays from the moment it is
//!   scheduled until it is served or dropped; one wake key per non-empty
//!   inbox, due when the CPU frees up, stands in the queue for all of
//!   them.  A crash empties the inbox.  [`Simulation::events_processed`]
//!   counts what the queue pops: arrivals, wakes, timers and link
//!   completions,
//! * **timers** that fire once, at `now + delay`, equal times in arming
//!   order, and cannot be cancelled (handlers ignore a stale one by its
//!   tag); one that comes due while its node is crashed fires when the
//!   node restarts,
//!
//! while protocol logic runs as deterministic event-driven state machines
//! implementing the [`Node`] trait, each hosted by a [`NodeDriver`] — the
//! same driver the socket runtime (`smp-net`) uses, so a node cannot tell
//! the two hosts apart.  All randomness flows from a single seed, so every
//! run is reproducible.
//!
//! Everything that goes wrong in a run — crashes, partitions, dropped or
//! delayed deliveries, Figure 8's "network fluctuation" — is one
//! [`FaultSchedule`] replayed against the healthy network the
//! [`NetConfig`] describes; [`faults`] says why its two delay rules stay
//! apart.
//!
//! # Example
//!
//! ```
//! use simnet::{NetConfig, Node, NodeCtx, SimMessage, Simulation, TimerTag};
//! use smp_types::ReplicaId;
//!
//! #[derive(Clone, Debug)]
//! struct Ping(u32);
//! impl SimMessage for Ping {
//!     fn wire_size(&self) -> usize { 64 }
//!     fn kind(&self) -> &'static str { "ping" }
//! }
//!
//! /// Every node forwards the token to the next node, once.
//! struct Relay { received: Option<u32> }
//! impl Node for Relay {
//!     type Msg = Ping;
//!     fn on_start(&mut self, ctx: &mut NodeCtx<'_, Ping>) {
//!         if ctx.id().0 == 0 {
//!             ctx.send(ReplicaId(1), Ping(0));
//!         }
//!     }
//!     fn on_message(&mut self, ctx: &mut NodeCtx<'_, Ping>, _from: ReplicaId, msg: Ping) {
//!         self.received = Some(msg.0);
//!         let next = (ctx.id().0 + 1) % ctx.n() as u32;
//!         if next != 0 {
//!             ctx.send(ReplicaId(next), Ping(msg.0 + 1));
//!         }
//!     }
//!     fn on_timer(&mut self, _ctx: &mut NodeCtx<'_, Ping>, _tag: TimerTag) {}
//! }
//!
//! let nodes = (0..4).map(|_| Relay { received: None }).collect();
//! let mut sim = Simulation::new(nodes, NetConfig::lan(), 42);
//! sim.run_until(1_000_000);
//! assert!(sim.node(3).received.is_some());
//! ```

pub mod context;
pub mod driver;
pub mod event;
pub mod faults;
pub mod link;
pub mod message;
pub mod netmodel;
pub mod observation;
pub mod runner;

pub use context::{NodeAction, NodeCtx, TimerTag};
pub use driver::{node_telemetry, NodeDriver};
pub use event::EventKind;
pub use faults::{FaultAction, FaultSchedule};
pub use link::{OutboundLink, Priority};
pub use message::SimMessage;
pub use netmodel::NetConfig;
pub use observation::{ObsKind, Observation, ObservationLog, Tally};
pub use runner::{Node, Simulation};
pub use smp_telemetry::Telemetry;
