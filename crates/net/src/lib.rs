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
//! * **one state machine decides** — [`PeerTable`] owns the hello and its
//!   timeout, framing, what a decode error costs, the lanes, backoff,
//!   connection epochs and the formation barrier, and does no I/O;
//! * **threads only move bytes** — an acceptor, a reader per inbound
//!   connection and a link per peer that dials and writes on command, all
//!   reporting to [`NetRuntime::run_until`]'s one loop (no async runtime;
//!   the image has no tokio);
//! * **two outbound lanes** — consensus messages (the Stratus priority
//!   bit) go out at once; bulk ones (microblocks, fetch responses) go out
//!   until 64 KiB of them await an ack, so a priority frame never waits
//!   behind more bulk than that and one frame;
//! * **length-prefixed frames** — the embedding crate encodes through
//!   [`WireMsg`] (for replicas, `smp-replica::wire::codec`).  A bad frame
//!   *header* ends the connection (the stream cannot be resynced); a bad
//!   *body* is counted by taxonomy and skipped.
//!
//! A dropped connection (a write failed, or an idle link found its peer
//! gone) is redialled with deterministic exponential backoff
//! ([`backoff::delay`]), each new connection a new epoch.  While a
//! peer is down its frames queue up to [`DISCONNECTED_QUEUE_CAP`]; beyond
//! it they are dropped and counted, and a priority frame caught mid-write
//! is requeued for the next epoch.  Every such event is a lock-free
//! counter in [`stats::NetStats`], and each process can serve an admin
//! socket ([`admin`]) answering `HEALTH`, `METRICS`, `SERIES` and `TRACE`.

pub mod admin;
pub mod backoff;
pub mod peers;
pub mod runtime;
pub mod stats;

use std::fmt;

pub use admin::{probe, spawn_admin, AdminHandle, AdminState};
pub use peers::{ConnId, Output, PeerTable, DISCONNECTED_QUEUE_CAP};
pub use runtime::{bind_loopback, ClusterSpec, NetReport, NetRuntime};
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
/// whose length the header states.  The [`PeerTable`] takes the header,
/// asks [`WireMsg::body_len`] how much more to wait for, then hands
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
