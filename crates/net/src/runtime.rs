//! The socket runtime: threads that only move bytes, and one loop that
//! feeds a [`PeerTable`] and drives one [`Node`] on wall-clock timers.
//!
//! The acceptor forwards what `accept` returns for the life of the run, so
//! a restarted peer is re-admitted by its fresh hello.  A reader per inbound
//! connection forwards what it reads, then that it closed; a link per peer
//! dials and writes as told.  All report through one channel to
//! [`NetRuntime::run`], which feeds the table and carries out its [`Output`]s.

use crate::peers::{ConnId, Output, PeerTable};
use crate::stats::{NetStats, PeerStats};
use crate::{backoff, WireMsg};
use simnet::{Node, NodeAction, NodeDriver, ObservationLog};
use smp_types::{ReplicaId, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How the runtime finds its peers.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// This process's replica id.
    pub me: ReplicaId,
    /// Listen address of every replica, indexed by replica id.
    pub addrs: Vec<SocketAddr>,
    /// Deployment-wide seed (must match the reference simulation's).
    pub seed: u64,
    /// How long cluster formation, and each inbound hello, may take.
    pub connect_timeout: Duration,
}

impl ClusterSpec {
    /// A spec for replica `me` of the cluster at `addrs`.
    pub fn new(me: ReplicaId, addrs: Vec<SocketAddr>, seed: u64) -> Self {
        ClusterSpec {
            me,
            addrs,
            seed,
            connect_timeout: Duration::from_secs(10),
        }
    }

    /// Number of replicas.
    pub fn n(&self) -> usize {
        self.addrs.len()
    }
}

/// What one runtime run produced.
#[derive(Debug)]
pub struct NetReport<N> {
    /// The node, after the run (extract metrics/commit logs from it).
    pub node: N,
    /// Every observation the node emitted, in emission order, stamped
    /// with wall-clock microseconds since the run's epoch.
    pub observations: ObservationLog,
    /// Frames received from peers: [`PeerStats::frames_in`], summed.
    pub frames_in: u64,
    /// Frames queued to peers: both outbound lanes' frames, summed.
    pub frames_out: u64,
    /// Bytes received from peers: [`PeerStats::bytes_in`], summed.
    pub bytes_in: u64,
    /// Bytes queued to peers: both outbound lanes' bytes, summed.
    pub bytes_out: u64,
    /// Wall-clock duration of the run, in microseconds.
    pub wall_us: u64,
    /// Per-peer connection/codec failures observed during the run.
    pub peer_errors: Vec<String>,
    /// Recoverable frame-body decode failures (the connection survived;
    /// the frame was counted by taxonomy and skipped).
    pub frame_errors: Vec<String>,
}

/// What a listener's `accept` returns.
type Accept = io::Result<(TcpStream, SocketAddr)>;

/// What the I/O threads report to the run loop.
enum Ev {
    Accepted(io::Result<TcpStream>),
    Read(ConnId, Vec<u8>),
    Closed(ConnId),
    Dialed(usize, bool),
    /// Every write before an ack went out.
    Wrote(usize),
    /// A write failed: the frame back, and whether its connection carried one.
    Failed(usize, (Vec<u8>, bool), bool),
}

/// Drives one [`Node`] over real TCP connections and wall-clock timers.
pub struct NetRuntime<N: Node>
where
    N::Msg: WireMsg,
{
    driver: NodeDriver<N>,
    spec: ClusterSpec,
    stats: Arc<NetStats>,
}

impl<N: Node> NetRuntime<N>
where
    N::Msg: WireMsg,
{
    /// Wraps `node` for the deployment described by `spec`, in the same
    /// [`NodeDriver`] the reference simulation runs it in: same seed and
    /// id, same RNG stream.
    pub fn new(node: N, spec: ClusterSpec, telemetry: simnet::Telemetry) -> Self {
        let n = spec.n();
        assert!(spec.me.index() < n, "no address for replica {}", spec.me.0);
        let driver = NodeDriver::new(node, spec.me, n, spec.seed, telemetry);
        NetRuntime {
            driver,
            spec,
            stats: Arc::new(NetStats::new(n)),
        }
    }

    /// The runtime's lock-free counters.  Grab a handle before
    /// [`run`](NetRuntime::run) to publish or poll them concurrently
    /// (flight-recorder sampler, admin endpoint).
    pub fn stats(&self) -> Arc<NetStats> {
        Arc::clone(&self.stats)
    }

    /// Forms the cluster, runs the node for `horizon_us` wall-clock
    /// microseconds, shuts everything down cleanly, and reports.  The
    /// node's `on_start` runs once every peer is greeted both ways;
    /// frames that arrive earlier are held until then.
    pub fn run(mut self, horizon_us: u64) -> io::Result<NetReport<N>> {
        let (n, me) = (self.spec.n(), self.spec.me);
        let telemetry = self.driver.telemetry().clone();
        let listener = bind_listener(&self.spec)?;
        listener.set_nonblocking(true)?;
        let (events, rx) = mpsc::channel();
        let stop = Arc::new(AtomicBool::new(false));
        // The acceptor, then one link per peer.
        let mut threads = vec![{
            let (events, stop) = (events.clone(), Arc::clone(&stop));
            thread::spawn(move || accept_loop(|| listener.accept(), &events, &stop))
        }];
        let mut link = |i: usize| {
            let (link, outs) = mpsc::channel();
            let (addr, events) = (self.spec.addrs[i], events.clone());
            threads.push(thread::spawn(move || link_loop(i, addr, outs, events)));
            link
        };
        let links = (0..n).map(|i| (i != me.index()).then(|| link(i))).collect();
        let mut io = Threads {
            events,
            links,
            readers: HashMap::new(),
        };
        let stats = Arc::clone(&self.stats);
        let mut table = PeerTable::new(&self.spec, stats, telemetry.clone(), Instant::now());
        // Node timers as (fire-at, arming order, tag): equal times fire in
        // the order they were armed, the simulator's tie-break.
        let mut timers = BinaryHeap::<Reverse<(SimTime, u64, u64)>>::new();
        let (mut armed, mut loopback, mut observations) =
            (0, VecDeque::new(), ObservationLog::new());
        let mut actions = Vec::new();
        // The node's clock starts when the cluster forms.
        let mut epoch: Option<Instant> = None;
        let ended = loop {
            table.tick(Instant::now());
            let now = epoch.map_or(0, now_us);
            if epoch.is_some() && now >= horizon_us {
                break Ok(());
            }
            // Self-sends first: they model the simulator's 1 µs loopback.
            // Then due timers, in arming order, then the table's outputs.
            if let Some((from, msg)) = loopback.pop_front() {
                self.driver.deliver(now, from, msg, &mut actions);
            } else if let Some(&Reverse((_, _, tag))) = timers.peek().filter(|t| t.0 .0 <= now) {
                timers.pop();
                self.driver.timer(now, tag, &mut actions);
            } else {
                match table.next_output() {
                    Some(Output::Formed) => {
                        epoch = Some(Instant::now());
                        self.driver.start(0, &mut actions);
                    }
                    Some(Output::Deliver(from, msg)) => {
                        self.driver.deliver(now, from, msg, &mut actions)
                    }
                    Some(Output::FormationTimedOut(why)) => break Err(timed_out(why)),
                    Some(out) => io.carry(out),
                    None => {
                        let timer = timers.peek().map_or(horizon_us, |t| t.0 .0);
                        let node = epoch.map(|e| e + Duration::from_micros(timer.min(horizon_us)));
                        let wake = table.next_deadline().into_iter().chain(node).min();
                        let wait = wake.map_or(Duration::MAX, |w| w - Instant::now().min(w));
                        if let Ok(ev) = rx.recv_timeout(wait) {
                            io.on_event(ev, &mut table);
                        }
                    }
                }
            }
            for action in actions.drain(..) {
                match action {
                    NodeAction::Send { to, msg } if to == me => loopback.push_back((to, msg)),
                    NodeAction::Send { to, msg } => table.send(to, &msg),
                    NodeAction::SetTimer { at, tag } => {
                        timers.push(Reverse((at, armed, tag)));
                        armed += 1;
                    }
                    NodeAction::Observe(obs) => observations.push(obs),
                }
            }
        };
        stop.store(true, Ordering::Relaxed);
        // Formation failed: the threads are left to end on their own.
        ended?;

        // Shutdown: the links write out what the table flushes to them,
        // then close; then the readers.
        table.close();
        while let Some(out) = table.next_output() {
            io.carry(out);
        }
        io.links.clear();
        for thread in threads {
            thread
                .join()
                .map_err(|_| io::Error::other("an I/O thread panicked"))?;
        }
        // Each reader reports its close last; the table counts them.
        for (stream, _) in io.readers.values() {
            stream.shutdown(Shutdown::Both).ok();
        }
        while !io.readers.is_empty() {
            io.on_event(rx.recv().expect("`io` keeps a sender"), &mut table);
        }

        // Final mirror of the lock-free counters into the registry, so
        // the post-run snapshot carries complete `net.*` totals even
        // when no sampler was attached.
        self.stats.publish(&telemetry);
        let total = |counter: fn(&PeerStats) -> &AtomicU64| self.stats.sum_peers(counter);
        Ok(NetReport {
            node: self.driver.into_node(),
            observations,
            frames_in: total(|p| &p.frames_in),
            frames_out: total(|p| &p.out_high.frames) + total(|p| &p.out_bulk.frames),
            bytes_in: total(|p| &p.bytes_in),
            bytes_out: total(|p| &p.out_high.bytes) + total(|p| &p.out_bulk.bytes),
            wall_us: epoch.map_or(0, now_us),
            peer_errors: table.peer_errors,
            frame_errors: table.frame_errors,
        })
    }
}

/// The I/O threads the run loop commands.
struct Threads<M> {
    events: Sender<Ev>,
    /// Per peer (none for this replica): its link's dials and writes.
    links: Vec<Option<Sender<Output<M>>>>,
    /// Open inbound connections: a handle to shut each down, its reader.
    readers: HashMap<ConnId, (TcpStream, JoinHandle<()>)>,
}

impl<M: WireMsg> Threads<M> {
    /// Carries out one of the table's I/O outputs.
    fn carry(&mut self, out: Output<M>) {
        match out {
            Output::Dial(i, _) | Output::Write(i, ..) | Output::Ack(i) => {
                if let Some(link) = &self.links[i] {
                    link.send(out).ok();
                }
            }
            Output::Close(conn) => {
                if let Some((stream, _)) = self.readers.get(&conn) {
                    stream.shutdown(Shutdown::Both).ok();
                }
            }
            _ => {}
        }
    }

    /// Hands one thread report to the table.
    fn on_event(&mut self, ev: Ev, table: &mut PeerTable<M>) {
        let now = Instant::now();
        match ev {
            Ev::Accepted(Ok(stream)) => {
                // The kept clone can shut the connection while its reader blocks.
                if let (Ok(reader), Some(conn)) = (stream.try_clone(), table.accepted(now)) {
                    stream.set_nonblocking(false).ok();
                    stream.set_nodelay(true).ok();
                    let events = self.events.clone();
                    let handle = thread::spawn(move || read_loop(conn, reader, events));
                    self.readers.insert(conn, (stream, handle));
                }
            }
            Ev::Accepted(Err(_)) => table.accept_failed(),
            Ev::Read(conn, bytes) => table.read(conn, &bytes),
            Ev::Closed(conn) => {
                table.closed(conn);
                if let Some((_, reader)) = self.readers.remove(&conn) {
                    reader.join().expect("a reader thread panicked");
                }
            }
            Ev::Dialed(i, connected) => table.dialed(i, connected, now),
            Ev::Wrote(i) => table.wrote(i),
            Ev::Failed(i, frame, carried) => table.write_failed(i, frame, carried, now),
        }
    }
}

fn now_us(epoch: Instant) -> u64 {
    epoch.elapsed().as_micros() as u64
}

fn timed_out(why: String) -> io::Error {
    io::Error::new(io::ErrorKind::TimedOut, why)
}

/// Binds the listen socket, retrying with backoff while the address is
/// busy (a freshly restarted replica racing its predecessor's sockets).
fn bind_listener(spec: &ClusterSpec) -> io::Result<TcpListener> {
    let addr = spec.addrs[spec.me.index()];
    let deadline = Instant::now() + spec.connect_timeout;
    for attempt in 0.. {
        match TcpListener::bind(addr) {
            Err(e) if Instant::now() >= deadline => {
                return Err(timed_out(format!("binding {addr} timed out: {e}")))
            }
            Err(_) => thread::sleep(backoff::delay(spec.seed, spec.me.0, attempt)),
            bound => return bound,
        }
    }
    unreachable!("the deadline passes first")
}

/// Forwards every accepted connection and every failed accept until
/// `stop`, from `accept` — a nonblocking listener's `accept`.
fn accept_loop(mut accept: impl FnMut() -> Accept, events: &Sender<Ev>, stop: &AtomicBool) {
    while !stop.load(Ordering::Relaxed) {
        match accept() {
            Ok((stream, _)) => drop(events.send(Ev::Accepted(Ok(stream)))),
            Err(e) => {
                // Out of descriptors (EMFILE) or an aborted connection
                // fails one accept, not the acceptor.
                if e.kind() != io::ErrorKind::WouldBlock {
                    events.send(Ev::Accepted(Err(e))).ok();
                }
                thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// Forwards what one inbound connection reads until it ends.
fn read_loop(conn: ConnId, mut stream: TcpStream, events: Sender<Ev>) {
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(len) if len > 0 && events.send(Ev::Read(conn, buf[..len].to_vec())).is_ok() => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            _ => break,
        }
    }
    events.send(Ev::Closed(conn)).ok();
}

/// Dials peer `i` and writes to it, one output at a time, until the
/// run loop drops the queue.  Only failures and acks are reported, so
/// frames go out back to back.
fn link_loop<M>(i: usize, addr: SocketAddr, outs: Receiver<Output<M>>, events: Sender<Ev>) {
    // The connection, and whether it has carried a frame.
    let (mut stream, mut carried) = (None::<TcpStream>, false);
    for out in outs {
        let ev = match out {
            Output::Dial(_, hello) => {
                let greet =
                    |mut s: TcpStream| s.set_nodelay(true).and(s.write_all(&hello)).map(|()| s);
                stream = TcpStream::connect(addr).and_then(greet).ok();
                carried = false;
                Ev::Dialed(i, stream.is_some())
            }
            Output::Write(_, bytes, priority) => {
                let sent = stream.as_mut().is_some_and(|s| s.write_all(&bytes).is_ok());
                let had_carried = std::mem::replace(&mut carried, sent);
                stream = stream.filter(|_| sent);
                if sent {
                    continue;
                }
                Ev::Failed(i, (bytes, priority), had_carried)
            }
            Output::Ack(_) => Ev::Wrote(i),
            _ => continue,
        };
        events.send(ev).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peers::HELLO_MAGIC;
    use crate::WireError;

    /// A frame type for an acceptor that only ever sees hellos.
    #[derive(Clone, Debug)]
    struct Silent;

    impl simnet::SimMessage for Silent {
        fn wire_size(&self) -> usize {
            1
        }
        fn kind(&self) -> &'static str {
            "silent"
        }
    }

    impl WireMsg for Silent {
        const HEADER_BYTES: usize = 1;
        fn encode(&self) -> Vec<u8> {
            vec![0]
        }
        fn body_len(_: &[u8]) -> Result<usize, WireError> {
            Ok(0)
        }
        fn decode(_: &[u8], _: &[u8]) -> Result<Self, WireError> {
            Ok(Silent)
        }
    }

    #[test]
    fn accept_errors_are_counted_and_the_next_connection_is_admitted() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let addr = listener.local_addr().expect("local addr");
        // Out of descriptors, then a connection aborted before its accept,
        // then the real listener.
        let mut failures = VecDeque::from([
            io::Error::from_raw_os_error(24),
            io::Error::from(io::ErrorKind::ConnectionAborted),
        ]);
        let accept = move || match failures.pop_front() {
            Some(e) => Err(e),
            None => listener.accept(),
        };
        let (events, rx) = mpsc::channel();
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let (events, stop) = (events.clone(), Arc::clone(&stop));
            thread::spawn(move || accept_loop(accept, &events, &stop))
        };
        let stats = Arc::new(NetStats::new(2));
        let telemetry = smp_telemetry::Telemetry::new();
        let spec = ClusterSpec::new(ReplicaId(0), vec![addr; 2], 1);
        let mut table =
            PeerTable::<Silent>::new(&spec, stats.clone(), telemetry.clone(), Instant::now());
        let mut io = Threads {
            events,
            links: vec![None, None],
            readers: HashMap::new(),
        };

        let mut dialer = TcpStream::connect(addr).expect("dial");
        dialer.write_all(&HELLO_MAGIC).expect("hello");
        dialer.write_all(&1u32.to_be_bytes()).expect("hello");
        let admitted = |s: &NetStats| s.peer(1).unwrap().connects.load(Ordering::Relaxed);
        while admitted(&stats) == 0 {
            match rx.recv_timeout(Duration::from_secs(5)) {
                Ok(ev) => io.on_event(ev, &mut table),
                Err(_) => panic!("the connection after the accept errors was not admitted"),
            }
        }
        stats.publish(&telemetry);
        assert_eq!(telemetry.snapshot().counter("net.accept.errors"), Some(2));

        stop.store(true, Ordering::Relaxed);
        acceptor.join().expect("the acceptor ends at stop");
        drop(dialer);
        while !io.readers.is_empty() {
            io.on_event(rx.recv().expect("`io` keeps a sender"), &mut table);
        }
        assert_eq!(table.connections(), 0);
    }
}
