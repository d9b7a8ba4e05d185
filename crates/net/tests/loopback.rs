//! In-process loopback exercises of the socket runtime, for what needs a
//! real socket: runtimes on ephemeral ports, real frames, real timers, a
//! redial, clean shutdown.  The connection rules themselves — hellos,
//! framing, decode errors, lanes, backoff — are `PeerTable` tests
//! (`peer_table.rs`), with no socket at all.

use simnet::{Node, NodeCtx, ObsKind, SimMessage, Telemetry, TimerTag};
use smp_net::{ClusterSpec, NetRuntime, PeerStats, WireError, WireMsg};
use smp_types::{ReplicaId, SimTime};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::thread;
use std::time::Duration;

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
                let runtime = NetRuntime::new(node, spec, Telemetry::disabled());
                let stats = runtime.stats();
                (runtime.run(2_000_000).expect("runtime run"), stats)
            })
        })
        .collect();
    let (reports, stats): (Vec<_>, Vec<_>) = handles
        .into_iter()
        .map(|h| h.join().expect("replica thread"))
        .unzip();

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
    // The report's traffic is the per-peer counters, summed: one count.
    for (r, stats) in reports.iter().zip(&stats) {
        let sum = |f: fn(&PeerStats) -> &AtomicU64| -> u64 {
            (0..n)
                .map(|p| f(stats.peer(p).unwrap()).load(Relaxed))
                .sum()
        };
        assert_eq!(r.frames_in, sum(|p| &p.frames_in));
        assert_eq!(r.bytes_in, sum(|p| &p.bytes_in));
        assert_eq!(
            r.frames_out,
            sum(|p| &p.out_high.frames) + sum(|p| &p.out_bulk.frames)
        );
        assert_eq!(
            r.bytes_out,
            sum(|p| &p.out_high.bytes) + sum(|p| &p.out_bulk.bytes)
        );
        assert_eq!(r.bytes_out, 6 * r.frames_out);
    }
    let sent: u64 = reports.iter().map(|r| r.frames_out).sum();
    let received: u64 = reports.iter().map(|r| r.frames_in).sum();
    assert_eq!((sent, received), (15, 15));
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
/// failure: the link redials with a fresh hello, and the failed priority
/// write is requeued so traffic resumes without loss on the new epoch.
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

    // Second epoch: the link redials — a fresh hello arrives and
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
