//! Lock-free runtime counters for the socket runtime.
//!
//! The peer table records into plain atomics that observers on other
//! threads read without a lock, so instrumentation cannot serialize the
//! run loop (and cannot perturb the protocol: these counters feed
//! telemetry only).  A publisher (the flight-recorder sampler's pre-sample
//! hook, the admin endpoint's refresh, or the runtime's shutdown path)
//! periodically mirrors the totals into a [`Telemetry`] registry under
//! `net.*` keys.

use smp_telemetry::Telemetry;
use std::sync::atomic::{AtomicU64, Ordering};

/// Taxonomy labels for wire decode failures, mirroring the codec's
/// `DecodeError` variants.  Unrecognized labels count under `"other"`.
pub const DECODE_TAXONOMY: &[&str] = &[
    "truncated",
    "bad_magic",
    "bad_version",
    "bad_flags",
    "oversized_frame",
    "bad_tag",
    "bad_bool",
    "trailing_bytes",
    "nested_shard_group",
    "other",
];

/// Outbound queue depth at which an enqueue counts as a stall (a
/// backpressure signal: the peer's writes are not keeping up).
pub const STALL_QUEUE_DEPTH: u64 = 1_024;

/// Per-lane outbound counters.
#[derive(Debug, Default)]
pub struct LaneCounters {
    /// Frames enqueued on this lane.
    pub frames: AtomicU64,
    /// Payload bytes enqueued on this lane.
    pub bytes: AtomicU64,
}

/// Counters for one peer connection pair (inbound reader + outbound
/// writer).
#[derive(Debug, Default)]
pub struct PeerStats {
    /// Frames decoded from this peer.
    pub frames_in: AtomicU64,
    /// Bytes received from this peer (header + body).
    pub bytes_in: AtomicU64,
    /// Consensus-priority lane, outbound.
    pub out_high: LaneCounters,
    /// Bulk lane, outbound.
    pub out_bulk: LaneCounters,
    /// Frames currently queued to this peer (both lanes).
    pub queue_depth: AtomicU64,
    /// High-watermark of `queue_depth` over the run.
    pub queue_hwm: AtomicU64,
    /// Enqueues that found the queue at or above [`STALL_QUEUE_DEPTH`].
    pub enqueue_stalls: AtomicU64,
    /// Inbound connections accepted from this peer.
    pub connects: AtomicU64,
    /// Inbound connections lost (EOF or terminal decode error).
    pub disconnects: AtomicU64,
    /// Outbound connections re-established after the first epoch.
    pub reconnects: AtomicU64,
    /// Total milliseconds spent backing off between dial attempts to
    /// this peer.
    pub backoff_ms: AtomicU64,
    /// Priority frames put back at the front of the lane after a
    /// mid-write connection failure.
    pub frames_requeued: AtomicU64,
    /// Frames dropped because the peer was disconnected and the
    /// bounded queue was full (or the run ended with the peer down).
    pub frames_dropped_disconnected: AtomicU64,
}

/// All socket-runtime counters for one process.
#[derive(Debug)]
pub struct NetStats {
    peers: Vec<PeerStats>,
    handshakes_ok: AtomicU64,
    handshakes_failed: AtomicU64,
    accept_errors: AtomicU64,
    decode_errors: Vec<AtomicU64>,
}

impl NetStats {
    /// Counters for an `n`-replica deployment (the self slot stays zero).
    pub fn new(n: usize) -> Self {
        NetStats {
            peers: (0..n).map(|_| PeerStats::default()).collect(),
            handshakes_ok: AtomicU64::new(0),
            handshakes_failed: AtomicU64::new(0),
            accept_errors: AtomicU64::new(0),
            decode_errors: DECODE_TAXONOMY.iter().map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The per-peer counters for replica `i` (None when out of range).
    pub fn peer(&self, i: usize) -> Option<&PeerStats> {
        self.peers.get(i)
    }

    /// Records a decoded inbound frame from peer `i`.
    pub fn record_in(&self, i: usize, bytes: usize) {
        if let Some(p) = self.peers.get(i) {
            p.frames_in.fetch_add(1, Ordering::Relaxed);
            p.bytes_in.fetch_add(bytes as u64, Ordering::Relaxed);
        }
    }

    /// Records a frame enqueued to peer `i` on the given lane, updating
    /// queue depth, high-watermark, and stall count.
    pub fn record_out(&self, i: usize, priority: bool, bytes: usize) {
        let Some(p) = self.peers.get(i) else { return };
        let lane = if priority { &p.out_high } else { &p.out_bulk };
        lane.frames.fetch_add(1, Ordering::Relaxed);
        lane.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        let depth = p.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        p.queue_hwm.fetch_max(depth, Ordering::Relaxed);
        if depth >= STALL_QUEUE_DEPTH {
            p.enqueue_stalls.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one frame leaving peer `i`'s queue.
    pub fn record_drain(&self, i: usize) {
        if let Some(p) = self.peers.get(i) {
            p.queue_depth.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Records an accepted inbound connection from peer `i`.
    pub fn record_connect(&self, i: usize) {
        self.handshakes_ok.fetch_add(1, Ordering::Relaxed);
        if let Some(p) = self.peers.get(i) {
            p.connects.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records an inbound connection whose hello was rejected.
    pub fn record_handshake_failure(&self) {
        self.handshakes_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a failed `accept` other than an empty backlog (EMFILE, an
    /// aborted connection, …); the acceptor retries.
    pub fn record_accept_error(&self) {
        self.accept_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records losing the inbound connection from peer `i`.
    pub fn record_disconnect(&self, i: usize) {
        if let Some(p) = self.peers.get(i) {
            p.disconnects.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records peer `i`'s outbound connection re-established.
    pub fn record_reconnect(&self, i: usize) {
        if let Some(p) = self.peers.get(i) {
            p.reconnects.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records `ms` milliseconds of backoff before redialing peer `i`.
    pub fn record_backoff(&self, i: usize, ms: u64) {
        if let Some(p) = self.peers.get(i) {
            p.backoff_ms.fetch_add(ms, Ordering::Relaxed);
        }
    }

    /// Records a priority frame requeued after a failed write to peer
    /// `i` (the frame goes back on the queue, so depth is restored).
    pub fn record_requeue(&self, i: usize) {
        if let Some(p) = self.peers.get(i) {
            p.frames_requeued.fetch_add(1, Ordering::Relaxed);
            p.queue_depth.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records `count` frames dropped because peer `i` was disconnected
    /// and the bounded queue could not hold them.
    pub fn record_dropped_disconnected(&self, i: usize, count: u64) {
        if let Some(p) = self.peers.get(i) {
            p.frames_dropped_disconnected
                .fetch_add(count, Ordering::Relaxed);
        }
    }

    /// Total outbound reconnects across all peers.
    pub fn reconnects_total(&self) -> u64 {
        self.sum_peers(|p| &p.reconnects)
    }

    /// Total backoff milliseconds across all peers.
    pub fn backoff_ms_total(&self) -> u64 {
        self.sum_peers(|p| &p.backoff_ms)
    }

    /// Total requeued priority frames across all peers.
    pub fn frames_requeued_total(&self) -> u64 {
        self.sum_peers(|p| &p.frames_requeued)
    }

    /// Total frames dropped while disconnected across all peers.
    pub fn frames_dropped_disconnected_total(&self) -> u64 {
        self.sum_peers(|p| &p.frames_dropped_disconnected)
    }

    pub(crate) fn sum_peers(&self, f: impl Fn(&PeerStats) -> &AtomicU64) -> u64 {
        self.peers
            .iter()
            .map(|p| f(p).load(Ordering::Relaxed))
            .sum()
    }

    /// Counts a wire decode failure under its taxonomy label.
    pub fn record_decode_error(&self, kind: &str) {
        let slot = DECODE_TAXONOMY
            .iter()
            .position(|k| *k == kind)
            .unwrap_or(DECODE_TAXONOMY.len() - 1);
        self.decode_errors[slot].fetch_add(1, Ordering::Relaxed);
    }

    /// Reads a decode-error count by taxonomy label.
    pub fn decode_error_count(&self, kind: &str) -> u64 {
        DECODE_TAXONOMY
            .iter()
            .position(|k| *k == kind)
            .map(|slot| self.decode_errors[slot].load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Total decode failures across the taxonomy.
    pub fn decode_errors_total(&self) -> u64 {
        self.decode_errors
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Mirrors every counter into `t` under `net.*` keys (prefix the
    /// handle to namespace them, e.g. `replica.3.net.peer.0.frames_in`).
    /// Totals are stored absolutely, so repeated publishes stay
    /// monotonic and flight-recorder windows diff to per-window deltas.
    pub fn publish(&self, t: &Telemetry) {
        if !t.is_enabled() {
            return;
        }
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        for (i, p) in self.peers.iter().enumerate() {
            // Skip silent slots (self, never-seen peers) to keep the
            // registry at the deployment's actual fan-out.
            if load(&p.frames_in) == 0
                && load(&p.out_high.frames) == 0
                && load(&p.out_bulk.frames) == 0
                && load(&p.connects) == 0
            {
                continue;
            }
            let key = |name: &str| format!("net.peer.{i}.{name}");
            t.counter_store(&key("frames_in"), load(&p.frames_in));
            t.counter_store(&key("bytes_in"), load(&p.bytes_in));
            t.counter_store(&key("out.high.frames"), load(&p.out_high.frames));
            t.counter_store(&key("out.high.bytes"), load(&p.out_high.bytes));
            t.counter_store(&key("out.bulk.frames"), load(&p.out_bulk.frames));
            t.counter_store(&key("out.bulk.bytes"), load(&p.out_bulk.bytes));
            t.gauge_set(&key("queue.depth"), load(&p.queue_depth) as f64);
            t.gauge_set(&key("queue.hwm"), load(&p.queue_hwm) as f64);
            t.counter_store(&key("enqueue_stalls"), load(&p.enqueue_stalls));
            t.counter_store(&key("connects"), load(&p.connects));
            t.counter_store(&key("disconnects"), load(&p.disconnects));
            t.counter_store(&key("reconnects"), load(&p.reconnects));
            t.counter_store(&key("backoff_ms"), load(&p.backoff_ms));
            t.counter_store(&key("frames_requeued"), load(&p.frames_requeued));
            t.counter_store(
                &key("frames_dropped_disconnected"),
                load(&p.frames_dropped_disconnected),
            );
        }
        t.counter_store("net.handshake.ok", load(&self.handshakes_ok));
        t.counter_store("net.handshake.failed", load(&self.handshakes_failed));
        t.counter_store("net.accept.errors", load(&self.accept_errors));
        for (kind, count) in DECODE_TAXONOMY.iter().zip(&self.decode_errors) {
            t.counter_store(&format!("net.decode_error.{kind}"), load(count));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_and_queue_depth_track_enqueue_and_drain() {
        let s = NetStats::new(3);
        s.record_out(1, true, 100);
        s.record_out(1, false, 50);
        s.record_out(1, false, 50);
        let p = s.peer(1).unwrap();
        assert_eq!(p.out_high.frames.load(Ordering::Relaxed), 1);
        assert_eq!(p.out_bulk.bytes.load(Ordering::Relaxed), 100);
        assert_eq!(p.queue_depth.load(Ordering::Relaxed), 3);
        assert_eq!(p.queue_hwm.load(Ordering::Relaxed), 3);
        s.record_drain(1);
        s.record_drain(1);
        assert_eq!(p.queue_depth.load(Ordering::Relaxed), 1);
        assert_eq!(p.queue_hwm.load(Ordering::Relaxed), 3, "hwm is sticky");
        // Out-of-range peers are ignored, never a panic.
        s.record_out(99, true, 1);
        s.record_in(99, 1);
        s.record_drain(99);
    }

    #[test]
    fn reconnect_counters_accumulate_and_total() {
        let s = NetStats::new(4);
        s.record_reconnect(1);
        s.record_reconnect(1);
        s.record_reconnect(2);
        s.record_backoff(1, 30);
        s.record_backoff(2, 15);
        s.record_out(1, true, 10);
        s.record_drain(1);
        s.record_requeue(1);
        s.record_dropped_disconnected(2, 3);
        assert_eq!(s.reconnects_total(), 3);
        assert_eq!(s.backoff_ms_total(), 45);
        assert_eq!(s.frames_requeued_total(), 1);
        assert_eq!(s.frames_dropped_disconnected_total(), 3);
        // A requeue restores the queue depth the drain removed.
        let p = s.peer(1).unwrap();
        assert_eq!(p.queue_depth.load(Ordering::Relaxed), 1);
        // Out-of-range peers never panic.
        s.record_reconnect(99);
        s.record_backoff(99, 1);
        s.record_requeue(99);
        s.record_dropped_disconnected(99, 1);

        let t = Telemetry::new();
        s.publish(&t);
        let snap = t.snapshot();
        assert_eq!(snap.counter("net.peer.1.reconnects"), Some(2));
        assert_eq!(snap.counter("net.peer.1.frames_requeued"), Some(1));
    }

    #[test]
    fn decode_errors_count_by_taxonomy_with_other_fallback() {
        let s = NetStats::new(2);
        s.record_decode_error("bad_magic");
        s.record_decode_error("bad_magic");
        s.record_decode_error("trailing_bytes");
        s.record_decode_error("no-such-kind");
        assert_eq!(s.decode_error_count("bad_magic"), 2);
        assert_eq!(s.decode_error_count("trailing_bytes"), 1);
        assert_eq!(s.decode_error_count("other"), 1);
        assert_eq!(s.decode_errors_total(), 4);
    }

    #[test]
    fn publish_mirrors_totals_into_telemetry() {
        let t = Telemetry::new();
        let s = NetStats::new(3);
        s.record_in(2, 64);
        s.record_out(2, true, 32);
        s.record_connect(2);
        s.record_decode_error("bad_bool");
        s.publish(&t.with_prefix("replica.0"));
        let snap = t.snapshot();
        assert_eq!(snap.counter("replica.0.net.peer.2.frames_in"), Some(1));
        assert_eq!(snap.counter("replica.0.net.peer.2.bytes_in"), Some(64));
        assert_eq!(
            snap.counter("replica.0.net.peer.2.out.high.frames"),
            Some(1)
        );
        assert_eq!(snap.counter("replica.0.net.decode_error.bad_bool"), Some(1));
        assert_eq!(snap.counter("replica.0.net.handshake.ok"), Some(1));
        // Peer 1 never spoke: no keys for it.
        assert_eq!(snap.counter("replica.0.net.peer.1.frames_in"), None);
        // Publishing again after more traffic stays monotonic.
        s.record_in(2, 64);
        s.publish(&t.with_prefix("replica.0"));
        assert_eq!(
            t.snapshot().counter("replica.0.net.peer.2.frames_in"),
            Some(2)
        );
    }
}
