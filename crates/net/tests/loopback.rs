//! In-process loopback exercises of the socket runtime: three runtimes
//! on ephemeral ports, real frames, real timers, clean shutdown.

use simnet::{Node, NodeCtx, ObsKind, SimMessage, Telemetry, TimerTag};
use smp_net::{ClusterSpec, NetRuntime, WireError, WireMsg};
use smp_types::{ReplicaId, SimTime};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// Toy wire message: `[magic, priority, u32 value]`, 6-byte header, no body.
#[derive(Clone, Debug, PartialEq)]
struct Tok {
    value: u32,
    priority: bool,
}

impl SimMessage for Tok {
    fn wire_size(&self) -> usize {
        6
    }
    fn kind(&self) -> &'static str {
        "tok"
    }
    fn high_priority(&self) -> bool {
        self.priority
    }
}

impl WireMsg for Tok {
    const HEADER_BYTES: usize = 6;

    fn encode(&self) -> Vec<u8> {
        let mut f = vec![0xA5, self.priority as u8];
        f.extend_from_slice(&self.value.to_be_bytes());
        f
    }

    fn body_len(header: &[u8]) -> Result<usize, WireError> {
        if header[0] != 0xA5 {
            return Err(WireError::new(
                "bad_magic",
                format!("bad magic 0x{:02x}", header[0]),
            ));
        }
        Ok(0)
    }

    fn decode(header: &[u8], _body: &[u8]) -> Result<Self, WireError> {
        let priority = match header[1] {
            0 => false,
            1 => true,
            b => return Err(WireError::new("bad_bool", format!("bad priority byte {b}"))),
        };
        Ok(Tok {
            value: u32::from_be_bytes([header[2], header[3], header[4], header[5]]),
            priority,
        })
    }
}

/// Passes an incrementing token around the ring `rounds` times, then
/// reports the final value through an observation.
struct Ring {
    rounds: u32,
    seen: Vec<u32>,
}

impl Node for Ring {
    type Msg = Tok;

    fn on_start(&mut self, ctx: &mut NodeCtx<'_, Tok>) {
        if ctx.id() == ReplicaId(0) {
            ctx.send(
                ReplicaId(1),
                Tok {
                    value: 1,
                    priority: true,
                },
            );
        }
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_, Tok>, _from: ReplicaId, msg: Tok) {
        self.seen.push(msg.value);
        let next = ReplicaId((ctx.id().0 + 1) % ctx.n() as u32);
        if msg.value < self.rounds * ctx.n() as u32 {
            ctx.send(
                next,
                Tok {
                    value: msg.value + 1,
                    priority: msg.value.is_multiple_of(2),
                },
            );
        } else {
            ctx.observe(ObsKind::Custom {
                label: "ring.done".into(),
                value: msg.value as f64,
            });
        }
    }

    fn on_timer(&mut self, _ctx: &mut NodeCtx<'_, Tok>, _tag: TimerTag) {}
}

/// Reserves `n` distinct loopback ports by briefly binding them.
fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect()
}

#[test]
fn token_ring_over_real_sockets() {
    let n = 3;
    let rounds = 5u32;
    let addrs = free_addrs(n);
    let handles: Vec<_> = (0..n)
        .map(|i| {
            let spec = ClusterSpec::new(ReplicaId(i as u32), addrs.clone(), 42);
            thread::spawn(move || {
                let node = Ring {
                    rounds,
                    seen: Vec::new(),
                };
                NetRuntime::new(node, spec, Telemetry::disabled())
                    .run(2_000_000)
                    .expect("runtime run")
            })
        })
        .collect();
    let reports: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("replica thread"))
        .collect();

    // Every hop was delivered exactly once, in ring order.
    let total: usize = reports.iter().map(|r| r.node.seen.len()).sum();
    assert_eq!(total, (rounds * n as u32) as usize);
    for (i, r) in reports.iter().enumerate() {
        for (k, v) in r.node.seen.iter().enumerate() {
            let expect = if i == 0 {
                (k as u32 + 1) * n as u32
            } else {
                i as u32 + k as u32 * n as u32
            };
            assert_eq!(*v, expect, "replica {i} hop {k}");
        }
    }
    // The final holder observed completion with a wall-clock timestamp.
    let done: Vec<_> = reports
        .iter()
        .flat_map(|r| r.observations.entries())
        .filter(|o| matches!(&o.kind, ObsKind::Custom { label, .. } if label == "ring.done"))
        .collect();
    assert_eq!(done.len(), 1);
    assert_eq!(reports[0].frames_out, rounds as u64);
}

/// A client that connects and never says hello — a peer that died between
/// `connect` and its first write, or a port scanner — must hold up neither
/// the accepts queued behind it nor shutdown.
#[test]
fn silent_connection_blocks_neither_formation_nor_shutdown() {
    let addrs = free_addrs(2);
    let run = |i: u32, telemetry: Telemetry| {
        let spec = ClusterSpec::new(ReplicaId(i), addrs.clone(), 23);
        let ring = Ring {
            rounds: 1,
            seen: Vec::new(),
        };
        thread::spawn(move || NetRuntime::new(ring, spec, telemetry).run(300_000))
    };
    let telemetry = Telemetry::wall_clock();
    let zero = run(0, telemetry.clone());

    // Replica 1 is not started until the silent stream is connected, so
    // replica 0's acceptor meets the silent stream first.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let silent = loop {
        match TcpStream::connect(addrs[0]) {
            Ok(s) => break s,
            Err(_) if std::time::Instant::now() < deadline => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("dial replica 0: {e}"),
        }
    };
    let one = run(1, Telemetry::disabled());

    let zero = zero
        .join()
        .expect("replica 0 thread")
        .expect("replica 0 run");
    let one = one
        .join()
        .expect("replica 1 thread")
        .expect("replica 1 run");
    // The cluster formed behind the silent stream and the token went round.
    assert_eq!(one.node.seen, vec![1]);
    assert_eq!(zero.node.seen, vec![2]);
    assert!(zero.peer_errors.is_empty(), "{:?}", zero.peer_errors);
    // Shutdown ended the wait for the hello, and it counts as a failed one.
    assert_eq!(
        telemetry.snapshot().counter("net.handshake.failed"),
        Some(1)
    );
    drop(silent);
}

/// A silent client is cut off once `connect_timeout` passes without a
/// hello, while the cluster is still running, instead of holding its
/// reader thread until shutdown — and so is every silent client that
/// dials after it.
#[test]
fn silent_connection_is_cut_off_after_the_hello_timeout() {
    const SILENT_CLIENTS: u64 = 3;
    let addrs = free_addrs(1);
    let mut spec = ClusterSpec::new(ReplicaId(0), addrs.clone(), 31);
    spec.connect_timeout = Duration::from_millis(200);
    let telemetry = Telemetry::wall_clock();
    let node = {
        let telemetry = telemetry.clone();
        let ticker = Ticker {
            fired: Vec::new(),
            armed_for: 0,
        };
        thread::spawn(move || NetRuntime::new(ticker, spec, telemetry).run(3_000_000))
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    for client in 0..SILENT_CLIENTS {
        let mut silent = loop {
            match TcpStream::connect(addrs[0]) {
                Ok(s) => break s,
                Err(_) if Instant::now() < deadline => thread::sleep(Duration::from_millis(5)),
                Err(e) => panic!("dial replica 0: {e}"),
            }
        };
        let connected = Instant::now();
        // Timeout plus slack; all clients together stay inside the 3 s
        // run.
        silent
            .set_read_timeout(Some(Duration::from_millis(900)))
            .expect("read timeout");
        let mut buf = [0u8; 1];
        let read = silent.read(&mut buf);
        let waited = connected.elapsed();
        assert!(
            matches!(read, Ok(0)),
            "client {client}: expected EOF after {waited:?}, got {read:?}"
        );
    }
    node.join()
        .expect("replica 0 thread")
        .expect("replica 0 run");
    assert_eq!(
        telemetry.snapshot().counter("net.handshake.failed"),
        Some(SILENT_CLIENTS)
    );
}

/// A node whose timer cadence generates work: checks real timers fire
/// repeatedly, at or after the instant they were armed for.
struct Ticker {
    fired: Vec<TimerTag>,
    armed_for: SimTime,
}

impl Node for Ticker {
    type Msg = Tok;

    fn on_start(&mut self, ctx: &mut NodeCtx<'_, Tok>) {
        ctx.set_timer(5_000, 1);
        self.armed_for = ctx.now() + 5_000;
    }

    fn on_message(&mut self, _ctx: &mut NodeCtx<'_, Tok>, _from: ReplicaId, _msg: Tok) {}

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, Tok>, tag: TimerTag) {
        assert!(ctx.now() >= self.armed_for, "timer {tag} fired early");
        self.fired.push(tag);
        if self.fired.len() < 4 {
            ctx.set_timer(5_000, tag + 1);
            self.armed_for = ctx.now() + 5_000;
        }
    }
}

#[test]
fn wall_clock_timers_fire_at_or_after_their_instant() {
    let addrs = free_addrs(1);
    let spec = ClusterSpec::new(ReplicaId(0), addrs, 7);
    let ticker = Ticker {
        fired: Vec::new(),
        armed_for: 0,
    };
    let report = NetRuntime::new(ticker, spec, Telemetry::disabled())
        .run(200_000)
        .expect("single-node run");
    assert_eq!(report.node.fired, vec![1, 2, 3, 4]);
    assert!(report.wall_us >= 200_000);
}

/// Arms eight timers for one instant, in an order that is neither that of
/// their tags nor its reverse.
struct SameInstant {
    fired: Vec<TimerTag>,
}

const ARMING_ORDER: [TimerTag; 8] = [5, 2, 7, 0, 6, 1, 4, 3];

impl Node for SameInstant {
    type Msg = Tok;

    fn on_start(&mut self, ctx: &mut NodeCtx<'_, Tok>) {
        for tag in ARMING_ORDER {
            ctx.set_timer(5_000, tag);
        }
    }

    fn on_message(&mut self, _ctx: &mut NodeCtx<'_, Tok>, _from: ReplicaId, _msg: Tok) {}

    fn on_timer(&mut self, _ctx: &mut NodeCtx<'_, Tok>, tag: TimerTag) {
        self.fired.push(tag);
    }
}

#[test]
fn timers_armed_for_one_instant_fire_in_arming_order() {
    let addrs = free_addrs(1);
    let spec = ClusterSpec::new(ReplicaId(0), addrs, 7);
    let node = SameInstant { fired: Vec::new() };
    let report = NetRuntime::new(node, spec, Telemetry::disabled())
        .run(50_000)
        .expect("single-node run");
    assert_eq!(report.node.fired, ARMING_ORDER);
}

/// Records every value it receives; sends nothing.
struct Collector {
    seen: Vec<u32>,
}

impl Node for Collector {
    type Msg = Tok;

    fn on_start(&mut self, _ctx: &mut NodeCtx<'_, Tok>) {}

    fn on_message(&mut self, _ctx: &mut NodeCtx<'_, Tok>, _from: ReplicaId, msg: Tok) {
        self.seen.push(msg.value);
    }

    fn on_timer(&mut self, _ctx: &mut NodeCtx<'_, Tok>, _tag: TimerTag) {}
}

/// A garbage frame *body* must not take the connection down: the frame
/// is counted by taxonomy and skipped, and later frames still arrive.
/// The test impersonates replica 1 over a raw socket so it can write
/// bytes no honest codec would produce.
#[test]
fn garbage_frame_body_is_counted_and_survived() {
    let addrs = free_addrs(2);
    // Stand in for replica 1: bind its listen address so replica 0's
    // dial succeeds, and speak the hello protocol by hand.
    let fake_peer = TcpListener::bind(addrs[1]).expect("bind fake peer");

    let telemetry = Telemetry::wall_clock();
    let spec = ClusterSpec::new(ReplicaId(0), addrs.clone(), 11);
    let rt = NetRuntime::new(Collector { seen: Vec::new() }, spec, telemetry.clone());
    let stats = rt.stats();
    let runtime = thread::spawn(move || rt.run(600_000).expect("runtime run"));

    // Accept replica 0's outbound dial and read its hello.
    let (mut from_zero, _) = fake_peer.accept().expect("accept dial from replica 0");
    let mut hello = [0u8; 8];
    from_zero.read_exact(&mut hello).expect("read hello");
    assert_eq!(&hello[..4], b"SMPH");
    assert_eq!(
        u32::from_be_bytes([hello[4], hello[5], hello[6], hello[7]]),
        0
    );

    // Dial replica 0, introduce ourselves as replica 1, then send a
    // valid frame, a frame with a valid header but garbage body
    // (priority byte 7), and another valid frame.
    let mut to_zero = TcpStream::connect(addrs[0]).expect("dial replica 0");
    let mut hello = Vec::from(*b"SMPH");
    hello.extend_from_slice(&1u32.to_be_bytes());
    to_zero.write_all(&hello).expect("send hello");
    to_zero
        .write_all(
            &Tok {
                value: 10,
                priority: false,
            }
            .encode(),
        )
        .expect("send first frame");
    to_zero
        .write_all(&[0xA5, 7, 0, 0, 0, 99])
        .expect("send garbage frame");
    to_zero
        .write_all(
            &Tok {
                value: 11,
                priority: true,
            }
            .encode(),
        )
        .expect("send second frame");
    to_zero.flush().expect("flush frames");

    let report = runtime.join().expect("runtime thread");

    // The connection survived: both valid frames were delivered, in
    // order, around the skipped garbage.
    assert_eq!(report.node.seen, vec![10, 11]);
    assert_eq!(report.frames_in, 2);
    // The failure was counted by taxonomy and surfaced in the report…
    assert_eq!(stats.decode_error_count("bad_bool"), 1);
    assert_eq!(stats.decode_errors_total(), 1);
    assert_eq!(report.frame_errors.len(), 1);
    assert!(
        report.frame_errors[0].contains("bad_bool"),
        "frame error missing taxonomy: {}",
        report.frame_errors[0]
    );
    // …but was not a peer error (those are terminal).
    assert!(report.peer_errors.is_empty(), "{:?}", report.peer_errors);
    // The shutdown publish mirrored the counter into telemetry.
    assert_eq!(
        telemetry.snapshot().counter("net.decode_error.bad_bool"),
        Some(1)
    );
    drop(from_zero);
}

/// Sends an incrementing priority token to replica 1 every 5 ms, forever
/// — a steady write load that surfaces a dead connection quickly.
struct Chatter {
    sent: u32,
}

impl Node for Chatter {
    type Msg = Tok;

    fn on_start(&mut self, ctx: &mut NodeCtx<'_, Tok>) {
        ctx.set_timer(5_000, 1);
    }

    fn on_message(&mut self, _ctx: &mut NodeCtx<'_, Tok>, _from: ReplicaId, _msg: Tok) {}

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, Tok>, _tag: TimerTag) {
        self.sent += 1;
        ctx.send(
            ReplicaId(1),
            Tok {
                value: self.sent,
                priority: true,
            },
        );
        ctx.set_timer(5_000, 1);
    }
}

/// A peer that hangs up mid-stream is a clean disconnect, not a protocol
/// failure: the supervisor backs off, redials with a fresh hello, and
/// the failed priority write is requeued so traffic resumes without
/// loss on the new epoch.
#[test]
fn supervisor_redials_after_peer_drops_the_connection() {
    let addrs = free_addrs(2);
    let fake_peer = TcpListener::bind(addrs[1]).expect("bind fake peer");

    let spec = ClusterSpec::new(ReplicaId(0), addrs.clone(), 17);
    let rt = NetRuntime::new(Chatter { sent: 0 }, spec, Telemetry::disabled());
    let stats = rt.stats();
    let runtime = thread::spawn(move || rt.run(1_500_000).expect("runtime run"));

    // First epoch: accept replica 0's dial, complete formation by
    // dialing back with our own hello, read one frame, then hang up.
    let (mut conn1, _) = fake_peer.accept().expect("accept dial #1");
    let mut hello = [0u8; 8];
    conn1.read_exact(&mut hello).expect("read hello #1");
    assert_eq!(&hello[..4], b"SMPH");
    let mut to_zero = TcpStream::connect(addrs[0]).expect("dial replica 0");
    let mut my_hello = Vec::from(*b"SMPH");
    my_hello.extend_from_slice(&1u32.to_be_bytes());
    to_zero.write_all(&my_hello).expect("send hello");

    let mut frame = [0u8; 6];
    conn1.read_exact(&mut frame).expect("read pre-drop frame");
    drop(conn1);

    // Second epoch: the supervisor redials — a fresh hello arrives and
    // the token stream resumes on the new connection.
    let (mut conn2, _) = fake_peer.accept().expect("accept redial");
    conn2.read_exact(&mut hello).expect("read hello #2");
    assert_eq!(&hello[..4], b"SMPH");
    assert_eq!(
        u32::from_be_bytes([hello[4], hello[5], hello[6], hello[7]]),
        0
    );
    conn2
        .read_exact(&mut frame)
        .expect("read post-reconnect frame");
    let resumed = Tok::decode(&frame, &[]).expect("post-reconnect frame decodes");
    assert!(resumed.value >= 1);

    let report = runtime.join().expect("runtime thread");
    assert!(report.peer_errors.is_empty(), "{:?}", report.peer_errors);
    assert!(report.frame_errors.is_empty(), "{:?}", report.frame_errors);
    assert!(stats.reconnects_total() >= 1, "no reconnect recorded");
    assert!(
        stats.frames_requeued_total() >= 1,
        "failed priority write was not requeued"
    );
    let peer = stats.peer(1).unwrap();
    assert!(peer.disconnects.load(std::sync::atomic::Ordering::Relaxed) >= 1);
    drop(to_zero);
}

/// A peer whose stream turns to garbage is dropped, but the accept loop
/// keeps re-admitting fresh hellos: every reconnect epoch gets a clean
/// framing state, and the decode taxonomy accumulates across epochs.
#[test]
fn garbage_across_reconnect_epochs_accumulates_taxonomy() {
    let addrs = free_addrs(2);
    let fake_peer = TcpListener::bind(addrs[1]).expect("bind fake peer");

    let spec = ClusterSpec::new(ReplicaId(0), addrs.clone(), 19);
    let rt = NetRuntime::new(Collector { seen: Vec::new() }, spec, Telemetry::disabled());
    let stats = rt.stats();
    let runtime = thread::spawn(move || rt.run(900_000).expect("runtime run"));

    let (mut from_zero, _) = fake_peer.accept().expect("accept dial from replica 0");
    let mut hello = [0u8; 8];
    from_zero.read_exact(&mut hello).expect("read hello");

    let dial = || {
        // Replica 0's listener may still be coming up; retry like a
        // real peer's supervisor would.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut s = loop {
            match TcpStream::connect(addrs[0]) {
                Ok(s) => break s,
                Err(_) if std::time::Instant::now() < deadline => {
                    thread::sleep(Duration::from_millis(20));
                }
                Err(e) => panic!("dial replica 0: {e}"),
            }
        };
        let mut h = Vec::from(*b"SMPH");
        h.extend_from_slice(&1u32.to_be_bytes());
        s.write_all(&h).expect("send hello");
        s
    };

    // Two epochs of terminal garbage: each kills its connection, and
    // the runtime proves it by closing the stream on us.
    for epoch in 0..2u8 {
        let mut s = dial();
        s.write_all(&[0xFF, 0, 0, 0, 0, epoch])
            .expect("send garbage header");
        s.flush().unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut probe = [0u8; 1];
        assert_eq!(
            s.read(&mut probe).expect("peer closed the stream"),
            0,
            "runtime kept a connection after a terminal header"
        );
    }

    // Third epoch: an honest frame still gets through.
    let mut s = dial();
    s.write_all(
        &Tok {
            value: 42,
            priority: false,
        }
        .encode(),
    )
    .expect("send honest frame");
    s.flush().unwrap();

    let report = runtime.join().expect("runtime thread");
    assert_eq!(report.node.seen, vec![42]);
    assert_eq!(stats.decode_error_count("bad_magic"), 2);
    assert_eq!(report.peer_errors.len(), 2, "{:?}", report.peer_errors);
    assert!(report.peer_errors.iter().all(|e| e.contains("bad_magic")));
    let disconnects = stats
        .peer(1)
        .unwrap()
        .disconnects
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(
        disconnects >= 2,
        "expected >=2 disconnects, got {disconnects}"
    );
    drop(from_zero);
    drop(s);
}

/// A garbage frame *header* is terminal: the stream cannot be resynced,
/// so the connection drops and the failure lands in `peer_errors`.
#[test]
fn garbage_frame_header_kills_the_connection() {
    let addrs = free_addrs(2);
    let fake_peer = TcpListener::bind(addrs[1]).expect("bind fake peer");

    let spec = ClusterSpec::new(ReplicaId(0), addrs.clone(), 13);
    let rt = NetRuntime::new(Collector { seen: Vec::new() }, spec, Telemetry::disabled());
    let stats = rt.stats();
    let runtime = thread::spawn(move || rt.run(400_000).expect("runtime run"));

    let (mut from_zero, _) = fake_peer.accept().expect("accept dial from replica 0");
    let mut hello = [0u8; 8];
    from_zero.read_exact(&mut hello).expect("read hello");

    let mut to_zero = TcpStream::connect(addrs[0]).expect("dial replica 0");
    let mut hello = Vec::from(*b"SMPH");
    hello.extend_from_slice(&1u32.to_be_bytes());
    to_zero.write_all(&hello).expect("send hello");
    to_zero
        .write_all(
            &Tok {
                value: 5,
                priority: false,
            }
            .encode(),
        )
        .expect("send valid frame");
    // Bad magic in the header position: terminal.
    to_zero
        .write_all(&[0xFF, 0, 0, 0, 0, 1])
        .expect("send garbage header");
    to_zero.flush().expect("flush");
    // Give the reader a moment, then prove the runtime hung up on us.
    to_zero
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut probe = [0u8; 1];
    assert_eq!(
        to_zero.read(&mut probe).expect("peer closed the stream"),
        0,
        "runtime kept a connection with an unframed stream"
    );

    let report = runtime.join().expect("runtime thread");
    assert_eq!(report.node.seen, vec![5]);
    assert_eq!(stats.decode_error_count("bad_magic"), 1);
    assert_eq!(report.peer_errors.len(), 1);
    assert!(report.peer_errors[0].contains("bad_magic"));
    assert!(report.frame_errors.is_empty());
    let disconnects = stats
        .peer(1)
        .unwrap()
        .disconnects
        .load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(disconnects, 1);
    drop(from_zero);
}
