//! The socket runtime: peer connections, two-lane writers, wall-clock
//! timers, and the main event loop driving one [`Node`].
//!
//! Every outbound connection is owned by a *reconnect supervisor*: a
//! per-peer thread that dials with deterministic exponential backoff
//! ([`backoff::delay`]), pumps the two-lane queue while the connection
//! is healthy, and on a write failure bumps the connection epoch,
//! requeues the priority frame it was holding, and redials.  The accept
//! loop runs for the whole life of the process, so a peer that crashes
//! and restarts is re-admitted: its fresh hello replaces the dead
//! inbound connection and its own supervisor re-establishes the
//! outbound one.

use crate::backoff;
use crate::stats::NetStats;
use crate::{WireError, WireMsg};
use simnet::{Node, NodeAction, NodeDriver, ObservationLog, Telemetry};
use smp_types::{ReplicaId, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Live inbound connections with their reader threads, shared between
/// the accept loop and the shutdown path.
type ReaderRegistry = Arc<Mutex<Vec<(TcpStream, JoinHandle<()>)>>>;

/// Hello preamble exchanged once per connection: magic + dialer id.
const HELLO_MAGIC: [u8; 4] = *b"SMPH";
const HELLO_BYTES: usize = 8;

/// Maximum frames a peer's outbound queue may hold while the peer is
/// disconnected.  Beyond this, new frames are dropped and counted
/// (`frames_dropped_disconnected`) — bounded loss instead of unbounded
/// memory while a peer is down for a long repair.
pub const DISCONNECTED_QUEUE_CAP: usize = 8_192;

/// How the runtime finds its peers.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// This process's replica id.
    pub me: ReplicaId,
    /// Listen address of every replica, indexed by replica id.
    pub addrs: Vec<SocketAddr>,
    /// Deployment-wide seed (must match the reference simulation's).
    pub seed: u64,
    /// How long cluster formation may take before the run fails.
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
    /// Frames received from peers.
    pub frames_in: u64,
    /// Frames enqueued to peers.
    pub frames_out: u64,
    /// Payload bytes received from peers.
    pub bytes_in: u64,
    /// Payload bytes enqueued to peers.
    pub bytes_out: u64,
    /// Wall-clock duration of the run, in microseconds.
    pub wall_us: u64,
    /// Per-peer connection/codec failures observed during the run.
    pub peer_errors: Vec<String>,
    /// Recoverable frame-body decode failures (the connection survived;
    /// the frame was counted by taxonomy and skipped).
    pub frame_errors: Vec<String>,
}

/// Two outbound lanes per peer: consensus-priority drains before bulk.
struct Lanes {
    high: VecDeque<Vec<u8>>,
    bulk: VecDeque<Vec<u8>>,
    closed: bool,
    /// Whether the supervisor currently holds a live connection.  While
    /// false, enqueues are bounded by [`DISCONNECTED_QUEUE_CAP`].
    connected: bool,
}

struct PeerTx {
    /// Index of the peer this queue feeds (for stats attribution).
    peer: usize,
    /// Queue-depth accounting happens under the lane mutex so the
    /// supervisor draining a frame can never observe a depth the
    /// enqueuer has not recorded yet.
    stats: Arc<NetStats>,
    lanes: Mutex<Lanes>,
    cv: Condvar,
}

impl PeerTx {
    fn new(peer: usize, stats: Arc<NetStats>) -> Self {
        PeerTx {
            peer,
            stats,
            lanes: Mutex::new(Lanes {
                high: VecDeque::new(),
                bulk: VecDeque::new(),
                closed: false,
                connected: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Queues a frame.  Returns `false` when the frame was dropped
    /// because the peer is disconnected and the queue is at cap (the
    /// caller counts it under `frames_dropped_disconnected`).
    fn enqueue(&self, frame: Vec<u8>, priority: bool) -> bool {
        let mut lanes = self.lanes.lock().expect("writer lane poisoned");
        if lanes.closed {
            return true;
        }
        if !lanes.connected && lanes.high.len() + lanes.bulk.len() >= DISCONNECTED_QUEUE_CAP {
            return false;
        }
        self.stats.record_out(self.peer, priority, frame.len());
        if priority {
            lanes.high.push_back(frame);
        } else {
            lanes.bulk.push_back(frame);
        }
        self.cv.notify_one();
        true
    }

    /// Puts an undelivered priority frame back at the front of its lane
    /// so it is first out on the next connection epoch.
    fn requeue_front(&self, frame: Vec<u8>) {
        let mut lanes = self.lanes.lock().expect("writer lane poisoned");
        self.stats.record_requeue(self.peer);
        lanes.high.push_front(frame);
        self.cv.notify_one();
    }

    fn set_connected(&self, connected: bool) {
        let mut lanes = self.lanes.lock().expect("writer lane poisoned");
        lanes.connected = connected;
    }

    fn close(&self) {
        let mut lanes = self.lanes.lock().expect("writer lane poisoned");
        lanes.closed = true;
        self.cv.notify_one();
    }

    /// Blocks until a frame is available (priority lane first) or the
    /// queue is closed *and* fully drained.  The flag says which lane
    /// the frame came from (true = priority).
    fn next(&self) -> Option<(Vec<u8>, bool)> {
        let mut lanes = self.lanes.lock().expect("writer lane poisoned");
        loop {
            if let Some(f) = lanes.high.pop_front() {
                self.stats.record_drain(self.peer);
                return Some((f, true));
            }
            if let Some(f) = lanes.bulk.pop_front() {
                self.stats.record_drain(self.peer);
                return Some((f, false));
            }
            if lanes.closed {
                return None;
            }
            lanes = self.cv.wait(lanes).expect("writer lane poisoned");
        }
    }

    /// Empties both lanes, returning how many frames were discarded.
    /// Used when the supervisor exits while the peer is unreachable.
    fn discard_all(&self) -> usize {
        let mut lanes = self.lanes.lock().expect("writer lane poisoned");
        let n = lanes.high.len() + lanes.bulk.len();
        for _ in 0..n {
            self.stats.record_drain(self.peer);
        }
        lanes.high.clear();
        lanes.bulk.clear();
        n
    }
}

/// Events flowing from the I/O threads into the main loop.
enum Ev<M> {
    PeerUp(ReplicaId),
    /// An outbound dial to a peer completed its hello.
    DialUp(ReplicaId),
    Msg {
        from: ReplicaId,
        msg: M,
        bytes: usize,
    },
    Fault(PeerFault),
}

/// What a reader thread reports besides frames.
enum PeerFault {
    /// The connection ended.  A clean EOF (`error: None`) is a peer
    /// shutting down; only codec failures are errors.
    Gone {
        from: ReplicaId,
        error: Option<WireError>,
    },
    /// A frame body failed to decode but the stream stayed aligned.
    Frame { from: ReplicaId, error: WireError },
}

/// The faults of one run, as [`NetReport`] lists them.  The formation
/// barrier and the run loop both see faults and record them alike.
#[derive(Default)]
struct FaultLog {
    peer_errors: Vec<String>,
    frame_errors: Vec<String>,
}

impl FaultLog {
    fn record(&mut self, fault: PeerFault, telemetry: &Telemetry) {
        match fault {
            PeerFault::Gone { from, error } => {
                telemetry.instant(format!("net.peer.{}.down", from.0));
                if let Some(e) = error {
                    self.peer_errors.push(format!("peer {}: {e}", from.0));
                }
            }
            PeerFault::Frame { from, error } => {
                telemetry.instant(format!("net.peer.{}.frame_error", from.0));
                self.frame_errors.push(format!("peer {}: {error}", from.0));
            }
        }
    }
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
    pub fn new(node: N, spec: ClusterSpec, telemetry: Telemetry) -> Self {
        let n = spec.n();
        assert!(
            spec.me.index() < n,
            "me={} out of range for {n} addresses",
            spec.me.0
        );
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
    /// microseconds, shuts everything down cleanly, and reports.
    ///
    /// Cluster formation is a barrier: the node's `on_start` only runs
    /// once every outbound dial has said hello *and* every peer's
    /// inbound connection has said hello, so no frames are lost to
    /// startup races.
    pub fn run(mut self, horizon_us: u64) -> io::Result<NetReport<N>> {
        let n = self.spec.n();
        let me = self.spec.me;
        let peers = n - 1;
        let telemetry = self.driver.telemetry().clone();

        // A restarted process may find its old sockets still draining in
        // the kernel; re-bind with the shared backoff policy instead of
        // failing the relaunch.
        let listener = bind_listener(
            self.spec.addrs[me.index()],
            self.spec.seed,
            me,
            self.spec.connect_timeout,
        )?;
        listener.set_nonblocking(true)?;

        let (tx, rx) = mpsc::channel::<Ev<N::Msg>>();
        let stop = Arc::new(AtomicBool::new(false));
        let readers: ReaderRegistry = Arc::new(Mutex::new(Vec::new()));

        let accept_handle = {
            let tx = tx.clone();
            let stop = Arc::clone(&stop);
            let readers = Arc::clone(&readers);
            let stats = Arc::clone(&self.stats);
            let hello_timeout = self.spec.connect_timeout;
            let accept = move || listener.accept().map(|(stream, _)| stream);
            thread::spawn(move || {
                accept_loop::<N::Msg>(accept, n, hello_timeout, tx, stop, readers, stats)
            })
        };

        // One reconnect supervisor per peer owns that peer's outbound
        // connection for the life of the run (formation dial and
        // steady-state redial are the same code path).
        let mut peer_txs: Vec<Option<Arc<PeerTx>>> = (0..n).map(|_| None).collect();
        let mut supervisor_handles = Vec::new();
        for (i, slot) in peer_txs.iter_mut().enumerate() {
            if i == me.index() {
                continue;
            }
            let peer_tx = Arc::new(PeerTx::new(i, Arc::clone(&self.stats)));
            *slot = Some(Arc::clone(&peer_tx));
            let addr = self.spec.addrs[i];
            let seed = self.spec.seed;
            let stats = Arc::clone(&self.stats);
            let stop = Arc::clone(&stop);
            let events = tx.clone();
            supervisor_handles.push(thread::spawn(move || {
                supervisor_loop::<N::Msg>(i, addr, me, seed, peer_tx, stats, stop, events)
            }));
        }

        // Barrier: wait until every dial and every inbound hello is in;
        // buffer any early frames.
        let mut pending: VecDeque<(ReplicaId, N::Msg, usize)> = VecDeque::new();
        let mut faults = FaultLog::default();
        let mut up: HashSet<ReplicaId> = HashSet::new();
        let mut dialed: HashSet<ReplicaId> = HashSet::new();
        let formation_deadline = Instant::now() + self.spec.connect_timeout;
        while up.len() < peers || dialed.len() < peers {
            let left = formation_deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                stop.store(true, Ordering::Relaxed);
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "cluster formation timed out: {}/{peers} peers up, {}/{peers} dialed",
                        up.len(),
                        dialed.len()
                    ),
                ));
            }
            match rx.recv_timeout(left) {
                Ok(Ev::PeerUp(from)) => {
                    telemetry.instant(format!("net.peer.{}.up", from.0));
                    up.insert(from);
                }
                Ok(Ev::DialUp(to)) => {
                    dialed.insert(to);
                }
                Ok(Ev::Msg { from, msg, bytes }) => pending.push_back((from, msg, bytes)),
                Ok(Ev::Fault(fault)) => faults.record(fault, &telemetry),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => unreachable!("main keeps a sender"),
            }
        }

        // The cluster is formed: start the clock and the node.
        let epoch = Instant::now();
        let mut st = RunState {
            timers: BinaryHeap::new(),
            timers_armed: 0,
            loopback: VecDeque::new(),
            observations: ObservationLog::new(),
            peer_txs,
            stats: Arc::clone(&self.stats),
            frames_in: 0,
            frames_out: 0,
            bytes_in: 0,
            bytes_out: 0,
        };
        // Lent to the driver for each invocation, drained by `apply`.
        let mut actions = Vec::new();
        self.driver.start(now_us(epoch), &mut actions);
        st.apply(&mut actions);
        for (from, msg, bytes) in pending.drain(..) {
            st.frames_in += 1;
            st.bytes_in += bytes as u64;
            self.driver.deliver(now_us(epoch), from, msg, &mut actions);
            st.apply(&mut actions);
        }

        loop {
            // Self-sends first: they model the simulator's 1 µs loopback.
            while let Some((from, msg)) = st.loopback.pop_front() {
                let now = now_us(epoch);
                if now >= horizon_us {
                    break;
                }
                self.driver.deliver(now, from, msg, &mut actions);
                st.apply(&mut actions);
            }
            let mut now = now_us(epoch);
            // Fire every due timer.
            while let Some(&Reverse((at, _, tag))) = st.timers.peek() {
                if at > now || now >= horizon_us {
                    break;
                }
                st.timers.pop();
                self.driver.timer(now, tag, &mut actions);
                st.apply(&mut actions);
                now = now_us(epoch);
            }
            if now >= horizon_us {
                break;
            }
            if !st.loopback.is_empty() {
                continue;
            }
            let wake = st
                .timers
                .peek()
                .map(|&Reverse((at, _, _))| at)
                .unwrap_or(horizon_us)
                .min(horizon_us);
            let timeout = Duration::from_micros(wake.saturating_sub(now_us(epoch)));
            match rx.recv_timeout(timeout) {
                Ok(Ev::Msg { from, msg, bytes }) => {
                    st.frames_in += 1;
                    st.bytes_in += bytes as u64;
                    self.driver.deliver(now_us(epoch), from, msg, &mut actions);
                    st.apply(&mut actions);
                }
                Ok(Ev::Fault(fault)) => faults.record(fault, &telemetry),
                Ok(Ev::PeerUp(from)) => {
                    // A peer reconnected mid-run (crash-restart).
                    telemetry.instant(format!("net.peer.{}.up", from.0));
                }
                Ok(Ev::DialUp(to)) => {
                    telemetry.instant(format!("net.peer.{}.redial", to.0));
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => unreachable!("main keeps a sender"),
            }
        }

        // Clean shutdown: stop accepting, flush and close supervisors,
        // then unblock and join readers.
        stop.store(true, Ordering::Relaxed);
        for peer_tx in st.peer_txs.iter().flatten() {
            peer_tx.close();
        }
        for h in supervisor_handles {
            h.join().map_err(|_| panicked("supervisor"))?;
        }
        accept_handle.join().map_err(|_| panicked("acceptor"))?;
        let readers = std::mem::take(&mut *readers.lock().expect("reader registry poisoned"));
        for (stream, handle) in readers {
            stream.shutdown(Shutdown::Both).ok();
            handle.join().map_err(|_| panicked("reader"))?;
        }
        drop(tx);

        // Final mirror of the lock-free counters into the registry, so
        // the post-run snapshot carries complete `net.*` totals even
        // when no sampler was attached.
        self.stats.publish(&telemetry);

        Ok(NetReport {
            node: self.driver.into_node(),
            observations: st.observations,
            frames_in: st.frames_in,
            frames_out: st.frames_out,
            bytes_in: st.bytes_in,
            bytes_out: st.bytes_out,
            wall_us: now_us(epoch),
            peer_errors: faults.peer_errors,
            frame_errors: faults.frame_errors,
        })
    }
}

/// Per-run mutable state the action applier needs.
struct RunState<M> {
    /// (fire-at, arming order, tag): a min-heap by fire time, equal times
    /// in the order they were armed — the simulator's tie-break.
    timers: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    timers_armed: u64,
    loopback: VecDeque<(ReplicaId, M)>,
    observations: ObservationLog,
    peer_txs: Vec<Option<Arc<PeerTx>>>,
    stats: Arc<NetStats>,
    frames_in: u64,
    frames_out: u64,
    bytes_in: u64,
    bytes_out: u64,
}

impl<M: WireMsg> RunState<M> {
    fn apply(&mut self, actions: &mut Vec<NodeAction<M>>) {
        for action in actions.drain(..) {
            match action {
                NodeAction::Send { to, msg } => {
                    if to.index() >= self.peer_txs.len() {
                        continue;
                    }
                    match &self.peer_txs[to.index()] {
                        // `None` is this node itself: deliver locally.
                        None => self.loopback.push_back((to, msg)),
                        Some(peer_tx) => {
                            let priority = msg.high_priority();
                            let frame = msg.encode();
                            let len = frame.len();
                            // The queue records lane/depth counters itself
                            // (under its lock, racing drains stay exact).
                            if peer_tx.enqueue(frame, priority) {
                                self.frames_out += 1;
                                self.bytes_out += len as u64;
                            } else {
                                self.stats.record_dropped_disconnected(to.index(), 1);
                            }
                        }
                    }
                }
                NodeAction::SetTimer { at, tag } => {
                    self.timers.push(Reverse((at, self.timers_armed, tag)));
                    self.timers_armed += 1;
                }
                NodeAction::Observe(obs) => self.observations.push(obs),
            }
        }
    }
}

fn now_us(epoch: Instant) -> u64 {
    epoch.elapsed().as_micros() as u64
}

fn panicked(what: &str) -> io::Error {
    io::Error::other(format!("{what} thread panicked"))
}

/// Binds the listen socket, retrying with backoff while the address is
/// busy (a freshly restarted replica racing its predecessor's sockets).
fn bind_listener(
    addr: SocketAddr,
    seed: u64,
    me: ReplicaId,
    timeout: Duration,
) -> io::Result<TcpListener> {
    let deadline = Instant::now() + timeout;
    let mut attempt = 0u32;
    loop {
        match TcpListener::bind(addr) {
            Ok(l) => return Ok(l),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("binding {addr} timed out: {e}"),
                    ));
                }
                thread::sleep(backoff::delay(seed, me.0, attempt));
                attempt += 1;
            }
        }
    }
}

/// Sleeps `total` in small slices, returning early once `stop` is set.
fn sleep_interruptible(total: Duration, stop: &AtomicBool) {
    let deadline = Instant::now() + total;
    while !stop.load(Ordering::Relaxed) {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        thread::sleep(left.min(Duration::from_millis(10)));
    }
}

/// Owns one peer's outbound connection for the life of the run: dial
/// with backoff, say hello, pump frames; on failure, requeue and redial.
#[allow(clippy::too_many_arguments)]
fn supervisor_loop<M>(
    peer: usize,
    addr: SocketAddr,
    me: ReplicaId,
    seed: u64,
    peer_tx: Arc<PeerTx>,
    stats: Arc<NetStats>,
    stop: Arc<AtomicBool>,
    events: Sender<Ev<M>>,
) {
    let mut epoch = 0u64;
    'connect: loop {
        // Dial until the peer answers, backing off deterministically.
        let mut attempt = 0u32;
        let mut stream = loop {
            if stop.load(Ordering::Relaxed) {
                let lost = peer_tx.discard_all();
                if lost > 0 {
                    stats.record_dropped_disconnected(peer, lost as u64);
                }
                return;
            }
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(_) => {
                    let delay = backoff::delay(seed, peer as u32, attempt);
                    stats.record_backoff(peer, delay.as_millis() as u64);
                    sleep_interruptible(delay, &stop);
                    attempt += 1;
                }
            }
        };
        stream.set_nodelay(true).ok();
        let mut hello = Vec::with_capacity(HELLO_BYTES);
        hello.extend_from_slice(&HELLO_MAGIC);
        hello.extend_from_slice(&me.0.to_be_bytes());
        if stream.write_all(&hello).is_err() {
            let delay = backoff::delay(seed, peer as u32, attempt);
            stats.record_backoff(peer, delay.as_millis() as u64);
            sleep_interruptible(delay, &stop);
            continue 'connect;
        }
        epoch += 1;
        if epoch > 1 {
            stats.record_reconnect(peer);
        }
        peer_tx.set_connected(true);
        events.send(Ev::DialUp(ReplicaId(peer as u32))).ok();

        // Pump until the queue closes (shutdown) or the write fails.
        while let Some((frame, priority)) = peer_tx.next() {
            if stream.write_all(&frame).is_err() {
                peer_tx.set_connected(false);
                if priority {
                    // First out on the next epoch; the requeue depth is
                    // bounded by DISCONNECTED_QUEUE_CAP like any other
                    // disconnected enqueue.
                    peer_tx.requeue_front(frame);
                } else {
                    stats.record_dropped_disconnected(peer, 1);
                }
                continue 'connect;
            }
        }
        stream.flush().ok();
        stream.shutdown(Shutdown::Both).ok();
        return;
    }
}

/// Accepts inbound connections until `stop` is set, from `accept` — a
/// nonblocking listener's `accept`.
fn accept_loop<M: WireMsg>(
    mut accept: impl FnMut() -> io::Result<TcpStream>,
    n: usize,
    hello_timeout: Duration,
    tx: Sender<Ev<M>>,
    stop: Arc<AtomicBool>,
    readers: ReaderRegistry,
    stats: Arc<NetStats>,
) {
    // Runs for the whole life of the process: a peer that crashes and
    // restarts is re-admitted through a fresh hello, not locked out.
    // The acceptor only accepts and spawns — the hello is read on the
    // connection's own thread, so a client that connects and says nothing
    // holds up neither the next accept nor shutdown.
    while !stop.load(Ordering::Relaxed) {
        match accept() {
            Ok(stream) => {
                stream.set_nonblocking(false).ok();
                stream.set_nodelay(true).ok();
                // The registry's clone is what lets shutdown unblock the
                // thread, whether it is waiting for a hello or a frame.
                let Ok(clone) = stream.try_clone() else {
                    continue;
                };
                let tx = tx.clone();
                let stats = Arc::clone(&stats);
                let handle =
                    thread::spawn(move || inbound_loop(stream, n, hello_timeout, tx, stats));
                register_reader(&readers, clone, handle);
            }
            Err(e) => {
                // Only `stop` ends the loop.  Running out of descriptors
                // (EMFILE) or a connection aborted before it was accepted
                // fails one accept, not the acceptor: counted, then
                // retried like an empty backlog.
                if e.kind() != io::ErrorKind::WouldBlock {
                    stats.record_accept_error();
                }
                thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// Adds a reader to the registry after dropping the readers that already
/// ended, so a closed or cut-off connection gives its descriptor back now
/// rather than at shutdown, and a client that keeps reconnecting cannot
/// grow the registry without bound.
fn register_reader(readers: &ReaderRegistry, stream: TcpStream, handle: JoinHandle<()>) {
    let mut registry = readers.lock().expect("reader registry poisoned");
    registry.retain(|(_, handle)| !handle.is_finished());
    registry.push((stream, handle));
}

/// One inbound connection, from its hello to its end.  A client that says
/// nothing within `hello_timeout` is cut off and counted as a failed
/// handshake.
fn inbound_loop<M: WireMsg>(
    stream: TcpStream,
    n: usize,
    hello_timeout: Duration,
    tx: Sender<Ev<M>>,
    stats: Arc<NetStats>,
) {
    stream.set_read_timeout(Some(hello_timeout)).ok();
    let Some(from) = read_hello(&stream).filter(|from| from.index() < n) else {
        stats.record_handshake_failure();
        // Not just this fd — the registry holds a clone.
        stream.shutdown(Shutdown::Both).ok();
        return;
    };
    stream.set_read_timeout(None).ok();
    stats.record_connect(from.index());
    tx.send(Ev::PeerUp(from)).ok();
    reader_loop(stream, from, tx, stats);
}

fn read_hello(mut stream: &TcpStream) -> Option<ReplicaId> {
    let mut hello = [0u8; HELLO_BYTES];
    stream.read_exact(&mut hello).ok()?;
    if hello[..4] != HELLO_MAGIC {
        return None;
    }
    Some(ReplicaId(u32::from_be_bytes([
        hello[4], hello[5], hello[6], hello[7],
    ])))
}

fn reader_loop<M: WireMsg>(
    mut stream: TcpStream,
    from: ReplicaId,
    tx: Sender<Ev<M>>,
    stats: Arc<NetStats>,
) {
    let mut header = vec![0u8; M::HEADER_BYTES];
    loop {
        if stream.read_exact(&mut header).is_err() {
            stats.record_disconnect(from.index());
            tx.send(Ev::Fault(PeerFault::Gone { from, error: None }))
                .ok();
            return;
        }
        let body_len = match M::body_len(&header) {
            Ok(len) => len,
            Err(e) => {
                // A bad header leaves the stream unframed: terminal.
                // Shut the socket down (not just this fd — the accept
                // registry holds a clone) so the peer sees the hangup
                // now rather than at end-of-run cleanup.
                stats.record_decode_error(e.kind);
                stats.record_disconnect(from.index());
                stream.shutdown(Shutdown::Both).ok();
                tx.send(Ev::Fault(PeerFault::Gone {
                    from,
                    error: Some(e),
                }))
                .ok();
                return;
            }
        };
        let mut body = vec![0u8; body_len];
        if stream.read_exact(&mut body).is_err() {
            stats.record_disconnect(from.index());
            tx.send(Ev::Fault(PeerFault::Gone { from, error: None }))
                .ok();
            return;
        }
        match M::decode(&header, &body) {
            Ok(msg) => {
                let bytes = M::HEADER_BYTES + body_len;
                stats.record_in(from.index(), bytes);
                if tx.send(Ev::Msg { from, msg, bytes }).is_err() {
                    return;
                }
            }
            Err(e) => {
                // The length prefix kept the stream aligned: count the
                // failure, skip the frame, keep the connection.
                stats.record_decode_error(e.kind);
                let fault = PeerFault::Frame { from, error: e };
                if tx.send(Ev::Fault(fault)).is_err() {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ended_readers_leave_the_registry_at_the_next_accept() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let dial = || TcpStream::connect(addr).expect("dial");
        let readers: ReaderRegistry = Arc::new(Mutex::new(Vec::new()));

        // A reader that is still running stays registered throughout.
        let (release, hold) = mpsc::channel::<()>();
        let live = thread::spawn(move || hold.recv().unwrap_or_default());
        register_reader(&readers, dial(), live);
        for _ in 0..8 {
            let ended = thread::spawn(|| {});
            while !ended.is_finished() {
                thread::sleep(Duration::from_millis(1));
            }
            register_reader(&readers, dial(), ended);
            assert_eq!(readers.lock().unwrap().len(), 2, "ended readers piled up");
        }

        release.send(()).expect("release the live reader");
        for (_, handle) in std::mem::take(&mut *readers.lock().unwrap()) {
            handle.join().expect("reader thread");
        }
    }

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
            None => listener.accept().map(|(stream, _)| stream),
        };
        let (tx, rx) = mpsc::channel::<Ev<Silent>>();
        let stop = Arc::new(AtomicBool::new(false));
        let readers: ReaderRegistry = Arc::new(Mutex::new(Vec::new()));
        let stats = Arc::new(NetStats::new(2));
        let acceptor = {
            let (stop, readers, stats) = (stop.clone(), readers.clone(), stats.clone());
            thread::spawn(move || {
                accept_loop(accept, 2, Duration::from_secs(5), tx, stop, readers, stats)
            })
        };

        let mut dialer = TcpStream::connect(addr).expect("dial");
        dialer.write_all(&HELLO_MAGIC).expect("hello");
        dialer.write_all(&1u32.to_be_bytes()).expect("hello");
        match rx.recv_timeout(Duration::from_secs(5)) {
            Ok(Ev::PeerUp(from)) => assert_eq!(from, ReplicaId(1)),
            _ => panic!("the connection after the accept errors was not admitted"),
        }
        let telemetry = Telemetry::new();
        stats.publish(&telemetry);
        assert_eq!(telemetry.snapshot().counter("net.accept.errors"), Some(2));

        stop.store(true, Ordering::Relaxed);
        acceptor.join().expect("the acceptor ends at stop");
        drop(dialer);
        for (_, handle) in std::mem::take(&mut *readers.lock().unwrap()) {
            handle.join().expect("reader thread");
        }
    }
}
