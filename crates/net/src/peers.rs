//! Every decision the socket host makes about its peers, with no I/O.
//!
//! A [`PeerTable`] owns the hello and its timeout, framing across short
//! reads, what a decode error costs, the two outbound lanes, the
//! disconnect cap, the requeue of a failed priority frame, dial backoff,
//! connection epochs and the formation barrier.  It is fed what the I/O
//! threads saw, frames to send and the time; it answers with [`Output`]s
//! to carry out in order, counters in [`NetStats`], faults and its next
//! deadline.  So every rule here is tested with no socket, thread or sleep.

use crate::stats::NetStats;
use crate::{backoff, ClusterSpec, WireError, WireMsg};
use smp_telemetry::Telemetry;
use smp_types::ReplicaId;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// The hello a dialer writes first on each connection: magic + its id.
pub(crate) const HELLO_MAGIC: [u8; 4] = *b"SMPH";
const HELLO_BYTES: usize = 8;

/// Frames a peer's outbound queue may hold while the peer is down.
/// Beyond this, new frames are dropped and counted
/// (`frames_dropped_disconnected`): bounded loss, not unbounded memory.
pub const DISCONNECTED_QUEUE_CAP: usize = 8_192;

/// Bulk bytes a connection is handed before they must be acknowledged:
/// all a priority frame can find ahead of it, but for one larger frame.
const BULK_WINDOW: usize = 64 * 1024;

/// Names one accepted inbound connection.
pub type ConnId = u64;

/// What the host carries out for the table, in the order given.
#[derive(Debug)]
pub enum Output<M> {
    /// Dial peer `i`, write the hello, then report [`PeerTable::dialed`].
    Dial(usize, Vec<u8>),
    /// Write to peer `i`; hand a failure back to [`PeerTable::write_failed`].
    Write(usize, Vec<u8>, bool),
    /// Report to [`PeerTable::wrote`] once peer `i`'s writes before it are done.
    Ack(usize),
    /// Shut the inbound connection down.
    Close(ConnId),
    /// Every peer is greeted both ways: start the node.
    Formed,
    /// A decoded frame for the node.
    Deliver(ReplicaId, M),
    /// Formation missed its deadline; the run fails for this reason.
    FormationTimedOut(String),
}

/// One outbound connection's state.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
enum Link {
    /// Not connected; dial at the instant.
    Wait(Instant),
    Dialing,
    /// Connected, the hello written, with the bulk bytes handed over since
    /// the last ack: [`BULK_WINDOW`] or more while one is awaited.
    Up(usize),
    /// Never dialled again: this replica's slot, or shut down.
    #[default]
    Off,
}

#[derive(Default)]
struct Peer {
    high: VecDeque<Vec<u8>>,
    bulk: VecDeque<Vec<u8>>,
    link: Link,
    /// Dial attempts since a connection last carried a frame.
    attempt: u32,
    /// Where the next failed priority frame goes back into its lane.
    requeued: usize,
    /// Outbound connections greeted so far: the connection epoch.
    epochs: u64,
    /// Whether the peer's own hello has arrived inbound.
    greeted: bool,
}

struct Inbound {
    /// `Ok(dialer)` after the hello; before it, `Err(deadline)` for it.
    hello: Result<ReplicaId, Instant>,
    /// Bytes read and not yet framed.
    buf: Vec<u8>,
}

/// The socket host's peer state machine; see the module docs.
pub struct PeerTable<M> {
    spec: ClusterSpec,
    stats: Arc<NetStats>,
    telemetry: Telemetry,
    peers: Vec<Peer>,
    conns: BTreeMap<ConnId, Inbound>,
    next_conn: ConnId,
    /// Until formation: its deadline and the frames that came before it.
    forming: Option<(Instant, Vec<(ReplicaId, M)>)>,
    closing: bool,
    out: VecDeque<Output<M>>,
    /// Connection-ending failures, one line each.
    pub peer_errors: Vec<String>,
    /// Frame bodies that failed to decode and were skipped.
    pub frame_errors: Vec<String>,
}

impl<M: WireMsg> PeerTable<M> {
    /// The table of `spec.me`, dialling every peer at once.  Formation,
    /// and every inbound hello, must finish within `spec.connect_timeout`.
    /// Connection events are traced as instants on `trace`.
    pub fn new(spec: &ClusterSpec, stats: Arc<NetStats>, trace: Telemetry, now: Instant) -> Self {
        let mut table = PeerTable {
            spec: spec.clone(),
            stats,
            telemetry: trace,
            peers: (0..spec.n()).map(|_| Peer::default()).collect(),
            conns: BTreeMap::new(),
            next_conn: 0,
            forming: Some((now + spec.connect_timeout, Vec::new())),
            closing: false,
            out: VecDeque::new(),
            peer_errors: Vec::new(),
            frame_errors: Vec::new(),
        };
        (0..spec.n())
            .filter(|&i| i != spec.me.index())
            .for_each(|i| table.dial(i));
        table.check_formed();
        table
    }

    /// The next output to carry out, oldest first.
    pub fn next_output(&mut self) -> Option<Output<M>> {
        self.out.pop_front()
    }

    /// When [`tick`](PeerTable::tick) next has work: a hello timeout, a
    /// redial, or the formation deadline.
    pub fn next_deadline(&self) -> Option<Instant> {
        let hellos = self.conns.values().filter_map(|c| c.hello.err());
        let redials = self.peers.iter().filter_map(|p| match p.link {
            Link::Wait(at) => Some(at),
            _ => None,
        });
        let formation = self.forming.as_ref().map(|(deadline, _)| *deadline);
        hellos.chain(redials).chain(formation).min()
    }

    /// Inbound connections open, greeted or not.
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// Queues `msg` for peer `to`.  Priority frames go out as they come;
    /// bulk frames go out until `BULK_WINDOW` bytes are unconfirmed, so a
    /// priority frame never waits behind more bulk than that and one frame.
    pub fn send(&mut self, to: ReplicaId, msg: &M) {
        let i = to.index();
        let Some(p) = self.peers.get_mut(i).filter(|p| p.link != Link::Off) else {
            return;
        };
        if !matches!(p.link, Link::Up(_)) && p.high.len() + p.bulk.len() >= DISCONNECTED_QUEUE_CAP {
            return self.stats.record_dropped_disconnected(i, 1);
        }
        let (frame, priority) = (msg.encode(), msg.high_priority());
        self.stats.record_out(i, priority, frame.len());
        let lane = if priority { &mut p.high } else { &mut p.bulk };
        lane.push_back(frame);
        self.pump(i);
    }

    /// A dial to peer `i` ended: `connected`, the hello written, or not.
    pub fn dialed(&mut self, i: usize, connected: bool, now: Instant) {
        let p = &mut self.peers[i];
        if p.link != Link::Dialing {
            return;
        }
        if !connected {
            return self.lost(i, false, now);
        }
        (p.link, p.epochs) = (Link::Up(0), p.epochs + 1);
        if p.epochs > 1 {
            self.stats.record_reconnect(i);
            self.telemetry.instant(format!("net.peer.{i}.redial"));
        }
        self.check_formed();
        self.pump(i);
    }

    /// Every frame handed to peer `i` before its [`Output::Ack`] went out.
    pub fn wrote(&mut self, i: usize) {
        if let Link::Up(window) = &mut self.peers[i].link {
            *window = 0;
            self.pump(i);
        }
    }

    /// A write to peer `i` failed and handed back its bytes and priority;
    /// `carried` says whether its connection had carried a frame.  Writes
    /// queued behind it on the dead connection fail in turn.  A priority
    /// frame goes back into its lane, in order, for the next connection; a
    /// bulk frame is dropped and counted.
    pub fn write_failed(&mut self, i: usize, frame: (Vec<u8>, bool), carried: bool, now: Instant) {
        let p = &mut self.peers[i];
        let first = matches!(p.link, Link::Up(_));
        p.requeued = if first { 0 } else { p.requeued };
        match frame {
            (bytes, true) if p.link != Link::Off => {
                p.high.insert(p.requeued, bytes);
                p.requeued += 1;
                self.stats.record_requeue(i);
            }
            _ => self.stats.record_dropped_disconnected(i, 1),
        }
        if first {
            self.lost(i, carried, now);
        }
    }

    /// Peer `i` closed the connection its link held, which had carried a
    /// frame or not: it is redialled as after a failed write.  A peer
    /// that died, or restarted, is thus found with nothing to send it.
    pub fn hung_up(&mut self, i: usize, carried: bool, now: Instant) {
        if matches!(self.peers[i].link, Link::Up(_)) {
            self.lost(i, carried, now);
        }
    }

    /// An inbound connection was accepted: its bytes go to [`read`](Self::read)
    /// under the returned id — none once closing: the host drops it.
    pub fn accepted(&mut self, now: Instant) -> Option<ConnId> {
        if self.closing {
            return None;
        }
        let (conn, deadline) = (self.next_conn, now + self.spec.connect_timeout);
        self.next_conn += 1;
        let inbound = Inbound {
            hello: Err(deadline),
            buf: Vec::new(),
        };
        self.conns.insert(conn, inbound);
        Some(conn)
    }

    /// An `accept` failed (out of descriptors, aborted, …): counted; the
    /// acceptor carries on.
    pub fn accept_failed(&self) {
        self.stats.record_accept_error();
    }

    /// Bytes read on an inbound connection; a frame may span reads.  A bad
    /// hello or frame header ends the connection, as the stream cannot be
    /// resynced; a body that fails to decode is counted and skipped, as
    /// the length prefix keeps the stream aligned.
    pub fn read(&mut self, conn: ConnId, bytes: &[u8]) {
        let Some(mut c) = self.conns.remove(&conn) else {
            return;
        };
        c.buf.extend_from_slice(bytes);
        let mut at = 0;
        let open = loop {
            let rest = &c.buf[at..];
            let Ok(from) = c.hello else {
                let Some(hello) = rest.get(..HELLO_BYTES) else {
                    break true;
                };
                let id = ReplicaId(u32::from_be_bytes([hello[4], hello[5], hello[6], hello[7]]));
                if hello[..4] != HELLO_MAGIC || id.index() >= self.peers.len() {
                    self.stats.record_handshake_failure();
                    break false;
                }
                (c.hello, at) = (Ok(id), at + HELLO_BYTES);
                self.stats.record_connect(id.index());
                self.telemetry.instant(format!("net.peer.{}.up", id.0));
                self.peers[id.index()].greeted = true;
                self.check_formed();
                continue;
            };
            let Some((header, body)) = rest.split_at_checked(M::HEADER_BYTES) else {
                break true;
            };
            let len = match M::body_len(header) {
                Ok(len) if body.len() < len => break true,
                Ok(len) => len,
                Err(e) => {
                    self.stats.record_decode_error(e.kind);
                    self.gone(from, Some(e));
                    break false;
                }
            };
            at += header.len() + len;
            match M::decode(header, &body[..len]) {
                Ok(msg) => {
                    self.stats.record_in(from.index(), header.len() + len);
                    match &mut self.forming {
                        Some((_, early)) => early.push((from, msg)),
                        None => self.out.push_back(Output::Deliver(from, msg)),
                    }
                }
                Err(e) => {
                    self.stats.record_decode_error(e.kind);
                    self.telemetry
                        .instant(format!("net.peer.{}.frame_error", from.0));
                    self.frame_errors.push(format!("peer {}: {e}", from.0));
                }
            }
        };
        if open {
            c.buf.drain(..at);
            self.conns.insert(conn, c);
        } else {
            self.out.push_back(Output::Close(conn));
        }
    }

    /// An inbound connection ended (EOF or a read error).
    pub fn closed(&mut self, conn: ConnId) {
        match self.conns.remove(&conn).map(|c| c.hello) {
            Some(Ok(from)) => self.gone(from, None),
            Some(Err(_)) => self.stats.record_handshake_failure(),
            None => {}
        }
    }

    /// Acts on every deadline at or before `now`: cuts off connections
    /// that said no hello in time, redials, and fails formation.
    pub fn tick(&mut self, now: Instant) {
        let silent = |c: &Inbound| matches!(c.hello, Err(deadline) if deadline <= now);
        for (&conn, _) in self.conns.iter().filter(|(_, c)| silent(c)) {
            self.stats.record_handshake_failure();
            self.out.push_back(Output::Close(conn));
        }
        self.conns.retain(|_, c| !silent(c));
        for i in 0..self.peers.len() {
            if matches!(self.peers[i].link, Link::Wait(at) if at <= now) {
                self.dial(i);
            }
        }
        if matches!(self.forming, Some((deadline, _)) if deadline <= now) {
            self.forming = None;
            let others = self.peers.len() - 1;
            let up = self.peers.iter().filter(|p| p.greeted).count();
            let dialed = self.peers.iter().filter(|p| p.epochs > 0).count();
            self.out.push_back(Output::FormationTimedOut(format!(
                "cluster formation timed out: {up}/{others} peers up, {dialed}/{others} dialed"
            )));
        }
    }

    /// Ends the run: no more dials or new connections.  Peers that are up
    /// get what is queued for them; for the others it is dropped and counted.
    pub fn close(&mut self) {
        self.closing = true;
        for i in 0..self.peers.len() {
            // Nothing follows: bulk frames, too, go out back to back.
            let p = &mut self.peers[i];
            p.high.append(&mut p.bulk);
            self.pump(i);
            self.discard(i);
        }
    }

    /// Hands peer `i`'s queued frames to its connection, if it is up:
    /// every priority frame, and bulk frames until the window is full.
    /// Then it asks for an ack, and bulk waits for it.
    fn pump(&mut self, i: usize) {
        let p = &mut self.peers[i];
        let Link::Up(window) = &mut p.link else {
            return;
        };
        let mut bulk = 0;
        while *window < BULK_WINDOW && bulk < p.bulk.len() {
            *window += p.bulk[bulk].len();
            bulk += 1;
        }
        let full = bulk > 0 && *window >= BULK_WINDOW;
        let high = p.high.drain(..).map(|bytes| (bytes, true));
        for (bytes, priority) in high.chain(p.bulk.drain(..bulk).map(|bytes| (bytes, false))) {
            self.stats.record_drain(i);
            self.out.push_back(Output::Write(i, bytes, priority));
        }
        if full {
            self.out.push_back(Output::Ack(i));
        }
    }

    /// Peer `i`'s connection failed or never came up: redial at once after
    /// one that `carried` a frame, else back off towards [`backoff::CAP_MS`].
    fn lost(&mut self, i: usize, carried: bool, now: Instant) {
        let p = &mut self.peers[i];
        if carried {
            p.attempt = 0;
            return self.dial(i);
        }
        let delay = backoff::delay(self.spec.seed, i as u32, p.attempt);
        (p.link, p.attempt) = (Link::Wait(now + delay), p.attempt + 1);
        self.stats.record_backoff(i, delay.as_millis() as u64);
    }

    /// Asks for a dial to peer `i`, its connection opening with the hello.
    fn dial(&mut self, i: usize) {
        self.peers[i].link = Link::Dialing;
        let hello = [&HELLO_MAGIC[..], &self.spec.me.0.to_be_bytes()].concat();
        self.out.push_back(Output::Dial(i, hello));
    }

    /// Drops and counts what is queued for peer `i`, and never dials it
    /// again.
    fn discard(&mut self, i: usize) {
        let p = &mut self.peers[i];
        let lost = (p.high.len() + p.bulk.len()) as u64;
        (p.high, p.bulk, p.link) = Default::default();
        (0..lost).for_each(|_| self.stats.record_drain(i));
        self.stats.record_dropped_disconnected(i, lost);
    }

    /// A greeted inbound connection from `from` ended, on `error` if any.
    fn gone(&mut self, from: ReplicaId, error: Option<WireError>) {
        self.stats.record_disconnect(from.index());
        self.telemetry.instant(format!("net.peer.{}.down", from.0));
        if let Some(e) = error {
            self.peer_errors.push(format!("peer {}: {e}", from.0));
        }
    }

    /// Lifts the barrier once every peer is greeted both ways, releasing
    /// the frames held behind it.
    fn check_formed(&mut self) {
        let me = self.spec.me.index();
        let mut peers = self.peers.iter().enumerate();
        if peers.all(|(i, p)| i == me || p.greeted && p.epochs > 0) {
            if let Some((_, early)) = self.forming.take() {
                self.out.push_back(Output::Formed);
                self.out
                    .extend(early.into_iter().map(|(f, m)| Output::Deliver(f, m)));
            }
        }
    }
}
