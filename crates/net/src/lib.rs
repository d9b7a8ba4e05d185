//! `smp-net` — the real-socket runtime.
//!
//! `simnet` drives every [`Node`](simnet::Node) of a deployment inside
//! one process on a virtual clock.  This crate is the *second* runtime:
//! each process owns exactly one node, peers talk over real
//! `std::net` TCP on the loopback or a LAN, and timers run on
//! `std::time` wall-clock.  Protocol code is untouched — the same
//! `Replica`/`Mempool`/consensus state machines run under either
//! runtime, hosted by the same [`simnet::NodeDriver`] the simulator holds
//! per node, so their RNG streams match the simulator's exactly.
//!
//! Design points, mirroring the paper's prototype transport:
//!
//! * **thread-per-peer I/O** — one reader thread per inbound connection,
//!   one writer thread per outbound connection (no async runtime; the
//!   image has no tokio),
//! * **two-lane outbound queues** — each writer drains a high-priority
//!   lane (consensus messages, the Stratus prioritization bit) before
//!   the bulk lane (microblocks, fetch responses),
//! * **length-prefixed frames** — byte encoding is supplied by the
//!   embedding crate through [`WireMsg`] (for replicas, the
//!   `smp-replica::wire::codec` module).  A frame whose *header* is
//!   malformed kills the connection (the stream cannot be resynced); a
//!   frame whose *body* fails to decode is counted by taxonomy and
//!   skipped — the length prefix keeps the stream aligned, so one
//!   garbage body never takes down an otherwise healthy connection.
//!
//! The runtime is instrumented throughout ([`stats::NetStats`]:
//! per-peer/per-lane counters, queue depths, handshake outcomes, decode
//! errors by taxonomy — all lock-free atomics) and each process can
//! expose a line-oriented admin socket ([`admin`]) answering `HEALTH`,
//! `METRICS`, `SERIES`, and `TRACE` for live introspection.
//!
//! Connections are *supervised*: a per-peer supervisor thread owns the
//! outbound connection and redials with deterministic exponential
//! backoff ([`backoff::delay`]) whenever it drops, bumping a
//! connection epoch each time it re-establishes.  While a peer is down,
//! outbound frames keep queueing up to [`DISCONNECTED_QUEUE_CAP`]; the
//! overflow is counted (`frames_dropped_disconnected`), never lost
//! silently, and a priority frame caught mid-write is requeued at the
//! front of its lane for the next epoch (`frames_requeued`).

pub mod admin;
pub mod backoff;
pub mod runtime;
pub mod stats;

use std::fmt;

pub use admin::{spawn_admin, AdminHandle, AdminState};
pub use runtime::{ClusterSpec, NetReport, NetRuntime, DISCONNECTED_QUEUE_CAP};
pub use stats::{NetStats, PeerStats, DECODE_TAXONOMY, STALL_QUEUE_DEPTH};

/// Error raised while framing or deframing a message.
///
/// Deliberately *not* the codec's rich error enum: the concrete codec
/// lives in the crate that owns the message type; the runtime only needs
/// to know that a frame is bad, which taxonomy bucket the failure falls
/// into (so telemetry can count it — see [`DECODE_TAXONOMY`]), and the
/// human-readable detail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Taxonomy label, ideally one of [`DECODE_TAXONOMY`] (anything else
    /// counts under `"other"`).
    pub kind: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// An error in the given taxonomy bucket.
    pub fn new(kind: &'static str, message: impl Into<String>) -> Self {
        WireError {
            kind,
            message: message.into(),
        }
    }

    /// An error with no specific taxonomy.
    pub fn other(message: impl Into<String>) -> Self {
        WireError::new("other", message)
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire error [{}]: {}", self.kind, self.message)
    }
}

impl std::error::Error for WireError {}

/// A message type that can travel over a real socket.
///
/// Frames are `HEADER_BYTES` of fixed-size header followed by a body
/// whose length the header states.  The runtime reads exactly the
/// header, asks [`WireMsg::body_len`] how much more to read, then hands
/// header + body to [`WireMsg::decode`].  A [`WireMsg::body_len`] error
/// is terminal for the connection (the stream cannot be resynced); a
/// [`WireMsg::decode`] error is counted and the frame skipped — the
/// length prefix keeps the stream aligned.
pub trait WireMsg: simnet::SimMessage + Send + Sized + 'static {
    /// Fixed frame-header size in bytes.
    const HEADER_BYTES: usize;

    /// Encodes the full frame (header + body).
    fn encode(&self) -> Vec<u8>;

    /// Validates a header and returns the body length that follows it.
    fn body_len(header: &[u8]) -> Result<usize, WireError>;

    /// Decodes a message from a validated header and its complete body.
    fn decode(header: &[u8], body: &[u8]) -> Result<Self, WireError>;
}
