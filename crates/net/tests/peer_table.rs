//! The socket host's decisions, driven by hand.  Each test feeds a
//! `PeerTable` what the I/O threads would report — connections accepted
//! and closed, bytes read, dial and write results — and checks what it asks
//! for.  No socket, no thread, no sleep: time is an `Instant` the test moves
//! forward.

use simnet::{SimMessage, Telemetry};
use smp_net::{
    backoff, ClusterSpec, ConnId, NetStats, Output, PeerTable, WireError, WireMsg,
    DISCONNECTED_QUEUE_CAP,
};
use smp_types::ReplicaId;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Test frame: `[0xB1, priority, u32 body length]`, then the body.
#[derive(Clone, Debug, PartialEq)]
struct Blob {
    priority: bool,
    body: Vec<u8>,
}

/// Largest body `Blob::body_len` admits.
const MAX_BODY: usize = 256 * 1024;

impl SimMessage for Blob {
    fn wire_size(&self) -> usize {
        6 + self.body.len()
    }
    fn kind(&self) -> &'static str {
        "blob"
    }
    fn high_priority(&self) -> bool {
        self.priority
    }
}

impl WireMsg for Blob {
    const HEADER_BYTES: usize = 6;

    fn encode(&self) -> Vec<u8> {
        let mut frame = vec![0xB1, self.priority as u8];
        frame.extend_from_slice(&(self.body.len() as u32).to_be_bytes());
        frame.extend_from_slice(&self.body);
        frame
    }

    fn body_len(header: &[u8]) -> Result<usize, WireError> {
        if header[0] != 0xB1 {
            return Err(WireError::new(
                "bad_magic",
                format!("magic {:#04x}", header[0]),
            ));
        }
        let len = u32::from_be_bytes([header[2], header[3], header[4], header[5]]) as usize;
        if len > MAX_BODY {
            return Err(WireError::new("oversized_frame", format!("{len} bytes")));
        }
        Ok(len)
    }

    fn decode(header: &[u8], body: &[u8]) -> Result<Self, WireError> {
        let priority = match header[1] {
            0 => false,
            1 => true,
            b => return Err(WireError::new("bad_bool", format!("priority byte {b}"))),
        };
        Ok(Blob {
            priority,
            body: body.to_vec(),
        })
    }
}

fn blob(priority: bool, fill: u8, len: usize) -> Blob {
    Blob {
        priority,
        body: vec![fill; len],
    }
}

/// A frame with a sound header whose body fails to decode.
fn bad_body() -> Vec<u8> {
    vec![0xB1, 7, 0, 0, 0, 2, 0xEE, 0xEE]
}

/// A header no stream can be resynced after.
const BAD_HEADER: [u8; 6] = [0xFF, 0, 0, 0, 0, 1];

fn hello(id: u32) -> Vec<u8> {
    [&b"SMPH"[..], &id.to_be_bytes()].concat()
}

const SEED: u64 = 5;
const TIMEOUT: Duration = Duration::from_millis(200);

/// A table, its counters, the registry they publish to, and the clock.
struct Host {
    table: PeerTable<Blob>,
    stats: Arc<NetStats>,
    telemetry: Telemetry,
    now: Instant,
}

impl Host {
    /// Replica 0 of `n`, just built: it has asked for its dials.
    fn new(n: usize) -> Self {
        Host::with_timeout(n, TIMEOUT)
    }

    fn with_timeout(n: usize, timeout: Duration) -> Self {
        let addrs = vec![SocketAddr::from(([127, 0, 0, 1], 1)); n];
        let mut spec = ClusterSpec::new(ReplicaId(0), addrs, SEED);
        spec.connect_timeout = timeout;
        let stats = Arc::new(NetStats::new(n));
        let telemetry = Telemetry::new();
        let now = Instant::now();
        let table = PeerTable::new(&spec, Arc::clone(&stats), telemetry.clone(), now);
        Host {
            table,
            stats,
            telemetry,
            now,
        }
    }

    /// Replica 0 of `n`, formed: every link up, every peer greeted.
    fn formed(n: usize) -> Self {
        let mut host = Host::new(n);
        for i in 1..n {
            host.link_up(i);
            host.greet(i as u32);
        }
        assert!(matches!(host.outputs().last(), Some(Output::Formed)));
        host
    }

    fn outputs(&mut self) -> Vec<Output<Blob>> {
        std::iter::from_fn(|| self.table.next_output()).collect()
    }

    fn later(&mut self, by: Duration) -> Instant {
        self.now += by;
        self.table.tick(self.now);
        self.now
    }

    /// Peer `i`'s dial connects, its hello written.
    fn link_up(&mut self, i: usize) {
        self.table.dialed(i, true, self.now);
    }

    /// Accepts a connection that says hello as `from`.
    fn greet(&mut self, from: u32) -> ConnId {
        let conn = self.table.accepted(self.now).expect("not closing");
        self.table.read(conn, &hello(from));
        conn
    }

    /// The frames written to peer `i`, with every ack the table asks for
    /// reported, as a link does.
    fn written_to(&mut self, i: usize) -> Vec<Vec<u8>> {
        let mut written = Vec::new();
        loop {
            let outputs = self.outputs();
            if outputs.is_empty() {
                return written;
            }
            for out in outputs {
                match out {
                    Output::Write(to, bytes, _) if to == i => written.push(bytes),
                    Output::Ack(to) if to == i => self.table.wrote(i),
                    _ => {}
                }
            }
        }
    }

    /// Hands back the one write the table asked of peer `i`'s link, as
    /// failed.
    fn fail_write(&mut self, i: usize, carried: bool) {
        let (bytes, priority) = match &self.outputs()[..] {
            [Output::Write(to, bytes, priority)] if *to == i => (bytes.clone(), *priority),
            other => panic!("expected one write to peer {i}, got {other:?}"),
        };
        self.table
            .write_failed(i, (bytes, priority), carried, self.now);
    }

    fn counter(&self, key: &str) -> Option<u64> {
        self.stats.publish(&self.telemetry);
        self.telemetry.snapshot().counter(key)
    }
}

fn delivered(outputs: &[Output<Blob>]) -> Vec<Blob> {
    outputs
        .iter()
        .filter_map(|out| match out {
            Output::Deliver(_, msg) => Some(msg.clone()),
            _ => None,
        })
        .collect()
}

fn closes(outputs: &[Output<Blob>]) -> Vec<ConnId> {
    outputs
        .iter()
        .filter_map(|out| match out {
            Output::Close(conn) => Some(*conn),
            _ => None,
        })
        .collect()
}

#[test]
fn formation_waits_for_every_hello_and_dial_and_holds_early_frames() {
    let mut host = Host::new(3);
    let dials: Vec<(usize, Vec<u8>)> = host
        .outputs()
        .into_iter()
        .filter_map(|out| match out {
            Output::Dial(i, hello) => Some((i, hello)),
            _ => None,
        })
        .collect();
    assert_eq!(
        dials,
        [(1, hello(0)), (2, hello(0))],
        "each dial opens with the hello"
    );

    // Peer 1 says hello both ways and sends a frame early.
    let early = blob(false, 1, 3);
    let conn = host.greet(1);
    host.table.read(conn, &early.encode());
    host.link_up(1);
    host.link_up(2);
    let formed = |out: &Output<Blob>| matches!(out, Output::Formed);
    assert!(
        !host.outputs().iter().any(formed),
        "peer 2 has not said hello"
    );

    host.greet(2);
    let out = host.outputs();
    assert!(matches!(out[0], Output::Formed));
    assert_eq!(delivered(&out), [early]);
}

#[test]
fn formation_fails_at_its_deadline() {
    let mut host = Host::new(2);
    host.greet(1);
    host.outputs();
    assert_eq!(host.table.next_deadline(), Some(host.now + TIMEOUT));
    host.later(TIMEOUT - Duration::from_millis(1));
    assert!(host.outputs().is_empty());
    host.later(Duration::from_millis(1));
    match &host.outputs()[..] {
        [Output::FormationTimedOut(why)] => {
            assert!(why.contains("1/1 peers up, 0/1 dialed"), "{why}")
        }
        other => panic!("expected a formation failure, got {other:?}"),
    }
}

/// A client that connects and never says hello is cut off once the hello
/// timeout passes, and so is every silent client after it.
#[test]
fn silent_connection_is_cut_off_after_the_hello_timeout() {
    let mut host = Host::formed(2);
    let step = Duration::from_millis(30);
    let silent: Vec<ConnId> = (0..3)
        .map(|_| {
            let conn = host.table.accepted(host.now).expect("not closing");
            host.later(step);
            conn
        })
        .collect();
    assert_eq!(host.table.connections(), 4);

    // The first is cut off exactly at its timeout, the others in turn.
    host.later(TIMEOUT - 3 * step - Duration::from_micros(1));
    assert!(host.outputs().is_empty());
    for conn in silent {
        host.later(Duration::from_micros(1));
        assert_eq!(closes(&host.outputs()), [conn]);
        host.later(step - Duration::from_micros(1));
    }
    assert_eq!(host.table.connections(), 1, "the greeted one stays");
    assert_eq!(host.counter("net.handshake.failed"), Some(3));
}

#[test]
fn a_partial_hello_completes_across_reads_or_is_cut_off() {
    let mut host = Host::new(2);
    let whole = host.table.accepted(host.now).expect("not closing");
    let stalled = host.table.accepted(host.now).expect("not closing");
    host.table.read(whole, &hello(1)[..3]);
    host.table.read(stalled, &hello(1)[..5]);
    host.table.read(whole, &hello(1)[3..]);
    assert_eq!(host.counter("net.handshake.ok"), Some(1));

    host.later(TIMEOUT);
    assert_eq!(closes(&host.outputs()), [stalled]);
    assert_eq!(host.table.connections(), 1);
    assert_eq!(host.counter("net.handshake.failed"), Some(1));

    // A wrong magic, or an id outside the cluster, fails at once.
    for bad in [b"SMPX\0\0\0\x01".to_vec(), hello(2)] {
        let conn = host.table.accepted(host.now).expect("not closing");
        host.table.read(conn, &bad);
        assert_eq!(closes(&host.outputs()), [conn]);
    }
    assert_eq!(host.counter("net.handshake.failed"), Some(3));
}

/// A garbage frame *body* does not take the connection down: the frame is
/// counted by taxonomy and skipped, and later frames still arrive.
#[test]
fn garbage_frame_body_is_counted_and_survived() {
    let mut host = Host::formed(2);
    let conn = host.greet(1);
    let (first, second) = (blob(false, 10, 4), blob(true, 11, 0));
    let bytes = [first.encode(), bad_body(), second.encode()].concat();
    host.table.read(conn, &bytes);

    let out = host.outputs();
    assert_eq!(delivered(&out), [first, second]);
    assert!(closes(&out).is_empty());
    assert_eq!(host.stats.decode_error_count("bad_bool"), 1);
    assert_eq!(host.stats.decode_errors_total(), 1);
    assert_eq!(host.table.frame_errors.len(), 1);
    assert!(host.table.frame_errors[0].contains("bad_bool"));
    assert!(host.table.peer_errors.is_empty());
    assert_eq!(host.counter("net.decode_error.bad_bool"), Some(1));
    assert_eq!(host.counter("net.peer.1.frames_in"), Some(2));
}

/// A garbage frame *header* is terminal: the stream cannot be resynced,
/// so the connection is closed and the failure lands in `peer_errors`.
#[test]
fn garbage_frame_header_kills_the_connection() {
    let mut host = Host::formed(2);
    let conn = host.greet(1);
    let valid = blob(false, 5, 2);
    let bytes = [valid.encode(), BAD_HEADER.to_vec(), valid.encode()].concat();
    host.table.read(conn, &bytes);

    let out = host.outputs();
    assert_eq!(
        delivered(&out),
        std::slice::from_ref(&valid),
        "nothing past the bad header"
    );
    assert_eq!(closes(&out), [conn]);
    assert_eq!(host.stats.decode_error_count("bad_magic"), 1);
    assert_eq!(host.table.peer_errors.len(), 1);
    assert!(host.table.peer_errors[0].contains("bad_magic"));
    assert!(host.table.frame_errors.is_empty());

    // What the reader reports after the close changes nothing.
    host.table.read(conn, &valid.encode());
    host.table.closed(conn);
    assert!(host.outputs().is_empty());
    assert_eq!(host.counter("net.peer.1.disconnects"), Some(1));
    assert_eq!(host.table.connections(), 1, "the formation connection");
}

/// A peer whose stream turns to garbage is dropped, but its fresh hellos
/// are admitted: every connection starts with clean framing, and the
/// taxonomy accumulates across them.
#[test]
fn garbage_across_reconnect_epochs_accumulates_taxonomy() {
    let mut host = Host::formed(2);
    let oversized = [0xB1, 0, 0, 0x10, 0, 0];
    for garbage in [&BAD_HEADER[..], &oversized[..]] {
        let conn = host.greet(1);
        host.table.read(conn, garbage);
        assert_eq!(closes(&host.outputs()), [conn]);
    }
    let conn = host.greet(1);
    let honest = blob(false, 42, 1);
    host.table.read(conn, &honest.encode());
    assert_eq!(delivered(&host.outputs()), [honest]);

    assert_eq!(host.stats.decode_error_count("bad_magic"), 1);
    assert_eq!(host.stats.decode_error_count("oversized_frame"), 1);
    assert_eq!(host.table.peer_errors.len(), 2);
    assert_eq!(host.counter("net.peer.1.disconnects"), Some(2));
    assert_eq!(host.counter("net.peer.1.connects"), Some(4));
}

#[test]
fn a_frame_split_at_every_byte_boundary_decodes_like_a_whole_one() {
    let frames = [blob(true, 1, 0), blob(false, 2, 300), blob(false, 3, 1)];
    let stream = [
        hello(1),
        frames[0].encode(),
        bad_body(),
        frames[1].encode(),
        frames[2].encode(),
    ]
    .concat();
    let run = |cuts: &[usize]| {
        let mut host = Host::new(2);
        host.link_up(1);
        let conn = host.table.accepted(host.now).expect("not closing");
        let mut from = 0;
        for cut in cuts.iter().copied().chain([stream.len()]) {
            host.table.read(conn, &stream[from..cut]);
            from = cut;
        }
        let out = host.outputs();
        assert!(closes(&out).is_empty());
        (delivered(&out), host.table.frame_errors.len())
    };

    let whole = run(&[]);
    assert_eq!(whole, (frames.to_vec(), 1));
    for cut in 0..=stream.len() {
        assert_eq!(run(&[cut]), whole, "split at byte {cut}");
    }
    let every_byte: Vec<usize> = (1..stream.len()).collect();
    assert_eq!(run(&every_byte), whole, "one byte per read");
}

/// The two lanes: bulk frames go out until a window of them awaits an
/// ack; a priority frame goes out at once, ahead of the bulk still queued.
#[test]
fn a_priority_frame_queued_behind_bulk_frames_is_written_next() {
    let mut host = Host::formed(2);
    let bulk: Vec<Blob> = (0..5).map(|k| blob(false, k, 30 * 1024)).collect();
    let urgent = blob(true, 9, 8);
    for msg in &bulk {
        host.table.send(ReplicaId(1), msg);
    }
    let handed = host.outputs();
    assert!(
        matches!(handed.last(), Some(Output::Ack(1))),
        "a full window asks for an ack"
    );
    assert_eq!(handed.len(), 4, "three 30 KiB frames fill the window");
    host.table.send(ReplicaId(1), &urgent);
    assert!(matches!(&host.outputs()[..], [Output::Write(1, _, true)]));
    host.table.wrote(1);
    let rest = host.written_to(1);
    assert_eq!(rest, [bulk[3].encode(), bulk[4].encode()]);
    let peer = host.stats.peer(1).unwrap();
    assert_eq!(peer.queue_depth.load(Ordering::Relaxed), 0);
    assert_eq!(peer.queue_hwm.load(Ordering::Relaxed), 3);
}

#[test]
fn the_disconnected_cap_drops_frames_and_counts_them() {
    let mut host = Host::new(2);
    host.outputs();
    let frame = blob(false, 0, 1);
    for _ in 0..DISCONNECTED_QUEUE_CAP + 5 {
        host.table.send(ReplicaId(1), &frame);
    }
    assert_eq!(
        host.counter("net.peer.1.frames_dropped_disconnected"),
        Some(5)
    );
    assert_eq!(
        host.counter("net.peer.1.out.bulk.frames"),
        Some(DISCONNECTED_QUEUE_CAP as u64)
    );
    // Once connected, everything held is written.
    host.link_up(1);
    assert_eq!(host.written_to(1).len(), DISCONNECTED_QUEUE_CAP);
    // Connected, the cap no longer applies.
    for _ in 0..DISCONNECTED_QUEUE_CAP + 5 {
        host.table.send(ReplicaId(1), &frame);
    }
    assert_eq!(
        host.counter("net.peer.1.frames_dropped_disconnected"),
        Some(5)
    );
}

/// On a write failure the priority frames handed to the dead connection
/// go back to the front of their lane, in order, for the next connection; a
/// bulk frame is dropped and counted.
#[test]
fn a_failed_write_requeues_its_priority_frame_and_drops_its_bulk_frame() {
    let mut host = Host::formed(2);
    let (urgent, bulk, later) = (blob(true, 1, 4), blob(false, 2, 4), blob(true, 3, 4));
    host.table.send(ReplicaId(1), &urgent);
    host.table.send(ReplicaId(1), &bulk);
    assert_eq!(host.outputs().len(), 2, "both handed to the connection");
    // The connection dies: every write handed to it fails, in order.
    host.table
        .write_failed(1, (urgent.encode(), true), false, host.now);
    host.table
        .write_failed(1, (bulk.encode(), false), false, host.now);
    host.table.send(ReplicaId(1), &later);
    assert_eq!(host.counter("net.peer.1.frames_requeued"), Some(1));
    assert_eq!(
        host.counter("net.peer.1.frames_dropped_disconnected"),
        Some(1)
    );

    // It carried no frame: the redial backs off.
    let at = host.table.next_deadline().expect("a redial");
    host.now = at;
    host.table.tick(at);
    assert!(matches!(&host.outputs()[..], [Output::Dial(1, _)]));
    host.link_up(1);
    assert_eq!(host.written_to(1), [urgent.encode(), later.encode()]);

    // Three priority frames in flight come back in order; the connection
    // had carried frames, so the redial is immediate.
    let frames: Vec<Blob> = (4..7).map(|k| blob(true, k, 1)).collect();
    for frame in &frames {
        host.table.send(ReplicaId(1), frame);
    }
    host.outputs();
    for frame in &frames {
        host.table
            .write_failed(1, (frame.encode(), true), true, host.now);
    }
    assert!(matches!(&host.outputs()[..], [Output::Dial(1, _)]));
    host.link_up(1);
    let encoded: Vec<Vec<u8>> = frames.iter().map(Blob::encode).collect();
    assert_eq!(host.written_to(1), encoded);
    assert_eq!(host.counter("net.peer.1.reconnects"), Some(2));
}

/// A peer that resets every connection before it carries a frame is
/// redialled with growing delays, up to the cap — whether the reset hits
/// the hello or the first frame.
#[test]
fn dial_backoff_climbs_to_the_cap_while_every_connection_resets() {
    for reset_the_hello in [true, false] {
        // Formation may take as long as the redials do.
        let mut host = Host::with_timeout(2, Duration::from_secs(60));
        host.outputs();
        // A priority frame: each connection's first, handed back each time.
        host.table.send(ReplicaId(1), &blob(true, 0, 1));
        let mut delays = Vec::new();
        for _ in 0..12 {
            if reset_the_hello {
                host.table.dialed(1, false, host.now);
            } else {
                host.link_up(1);
                host.fail_write(1, false);
            }
            let at = host.table.next_deadline().expect("a redial is due");
            delays.push(at - host.now);
            host.now = at;
            host.table.tick(at);
            assert!(matches!(&host.outputs()[..], [Output::Dial(1, _)]));
        }
        let expect: Vec<Duration> = (0..12).map(|k| backoff::delay(SEED, 1, k)).collect();
        assert_eq!(delays, expect);
        let cap = Duration::from_millis(backoff::CAP_MS);
        assert!(delays
            .iter()
            .rev()
            .take(4)
            .all(|d| *d <= cap && *d >= cap / 2));
        let spent: u64 = expect.iter().map(|d| d.as_millis() as u64).sum();
        assert_eq!(host.stats.backoff_ms_total(), spent);
    }
}

/// Refused dials back off the same way, and a connection that carried a
/// frame resets the count: it is redialled at once, and the next failure
/// starts again from the first delay.
#[test]
fn a_connection_that_carried_a_frame_resets_the_backoff() {
    let mut host = Host::new(2);
    host.outputs();
    for k in 0..3 {
        host.table.dialed(1, false, host.now);
        let at = host.table.next_deadline().expect("a redial is due");
        assert_eq!(at - host.now, backoff::delay(SEED, 1, k));
        host.now = at;
        host.table.tick(at);
        host.outputs();
    }
    host.link_up(1);
    host.table.send(ReplicaId(1), &blob(false, 0, 1));
    host.fail_write(1, true);
    assert!(
        matches!(&host.outputs()[..], [Output::Dial(1, _)]),
        "at once"
    );
    host.table.dialed(1, false, host.now);
    let at = host.table.next_deadline().expect("a redial is due");
    assert_eq!(at - host.now, backoff::delay(SEED, 1, 0));
}

/// A link whose peer hung up is redialled as after a failed write: at once
/// if its connection carried a frame, else after a backoff.  A hangup
/// reported for a link that is not up changes nothing.
#[test]
fn a_link_its_peer_hung_up_is_redialled() {
    let mut host = Host::formed(3);
    host.table.hung_up(1, true, host.now);
    assert!(matches!(&host.outputs()[..], [Output::Dial(1, _)]));
    host.table.hung_up(1, true, host.now);
    assert!(host.outputs().is_empty(), "already redialling");

    host.table.hung_up(2, false, host.now);
    assert!(host.outputs().is_empty());
    let at = host.table.next_deadline().expect("a redial is due");
    assert_eq!(at - host.now, backoff::delay(SEED, 2, 0));
}

/// What `ended_readers_leave_the_registry_at_the_next_accept` checked of
/// the reader registry: a connection that ends, whatever state it ended
/// in, leaves nothing behind, and a client that keeps reconnecting cannot
/// grow the table.
#[test]
fn a_closed_connection_leaves_no_state_behind() {
    let mut host = Host::formed(2);
    let live = host.greet(1);
    for round in 0..64 {
        let conn = host.table.accepted(host.now).expect("not closing");
        match round % 4 {
            0 => {}
            1 => host.table.read(conn, &hello(1)[..5]),
            2 => host.table.read(
                conn,
                &[hello(1), blob(false, 1, 9).encode()[..7].to_vec()].concat(),
            ),
            _ => host
                .table
                .read(conn, &[hello(1), BAD_HEADER.to_vec()].concat()),
        }
        host.table.closed(conn);
        assert_eq!(host.table.connections(), 2, "round {round}");
    }
    assert_eq!(host.counter("net.handshake.failed"), Some(32));
    assert_eq!(host.counter("net.peer.1.disconnects"), Some(32));
    host.table.closed(live);
    assert_eq!(host.table.connections(), 1);
    assert_eq!(host.table.next_deadline(), None, "no hello is awaited");
}

/// Shutdown writes out what peers that are up have queued, drops and counts
/// the rest, and dials and admits nothing more.
#[test]
fn close_flushes_peers_that_are_up_and_counts_the_rest() {
    let mut host = Host::formed(3);
    let (first, urgent, second) = (blob(false, 1, 4), blob(true, 2, 4), blob(false, 3, 4));
    for msg in [&first, &urgent, &second] {
        host.table.send(ReplicaId(1), msg);
    }
    let handed: Vec<Vec<u8>> = host.written_to(1);
    assert_eq!(handed, [first.encode(), urgent.encode(), second.encode()]);
    // Peer 1 has one more queued behind a full window.
    host.table.send(ReplicaId(1), &blob(false, 4, 70 * 1024));
    host.table.send(ReplicaId(1), &second);
    assert!(matches!(host.outputs().last(), Some(Output::Ack(1))));
    // Peer 2's connection fails; a frame waits for the redial.
    host.table.send(ReplicaId(2), &first);
    host.fail_write(2, false);
    host.table.send(ReplicaId(2), &second);
    let silent = host.table.accepted(host.now).expect("not closing");
    let conn = host.greet(1);

    host.table.close();
    let writes: Vec<(usize, Vec<u8>)> = host
        .outputs()
        .into_iter()
        .filter_map(|out| match out {
            Output::Write(i, bytes, _) => Some((i, bytes)),
            _ => None,
        })
        .collect();
    assert_eq!(writes, [(1, second.encode())]);
    assert_eq!(
        host.counter("net.peer.2.frames_dropped_disconnected"),
        Some(2)
    );
    for i in 1..3 {
        let depth = host
            .stats
            .peer(i)
            .unwrap()
            .queue_depth
            .load(Ordering::Relaxed);
        assert_eq!(depth, 0);
    }
    // Nothing is dialled, admitted or read any more.
    host.table.dialed(2, true, host.now);
    assert!(host.outputs().is_empty());
    assert_eq!(host.table.accepted(host.now), None);
    // Frames still arriving are decoded and counted, as before.
    host.table.read(conn, &first.encode());
    assert_eq!(host.counter("net.peer.1.frames_in"), Some(1));
    // The readers' last reports still count: a silent client at shutdown
    // is a failed hello.
    host.table.closed(silent);
    assert_eq!(host.counter("net.handshake.failed"), Some(1));
}
