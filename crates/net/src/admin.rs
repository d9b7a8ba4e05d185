//! The socket replica's one observer: a line-oriented TCP admin endpoint
//! whose thread also keeps the flight recorder.
//!
//! Every 250 ms the endpoint's thread publishes the socket runtime's
//! lock-free counters ([`NetStats`]) into the registry under
//! `replica.<i>.net.*` and samples its [`FlightRecorder`]; it publishes
//! again before each `METRICS`/`SERIES` reply, and once more, with a last
//! sample, when it stops.  It is the only publisher of those counters.
//! It reads shared telemetry state, never the protocol's.
//!
//! A client connects, sends one uppercase command per line, and receives
//! one line back (JSON documents are compact, single-line).  Commands:
//!
//! | command   | reply                                                  |
//! |-----------|--------------------------------------------------------|
//! | `HEALTH`  | `ok replica=<id> uptime_us=<n> spans=<n> reconnects=<n> requeued=<n> dropped_disconnected=<n> backoff_ms=<n>` |
//! | `METRICS` | the metrics registry as compact JSON                   |
//! | `SERIES`  | the flight recorder's window series as compact JSON    |
//! | `TRACE`   | retained spans as a compact chrome://tracing document  |
//! | `QUIT`    | `bye`, then the connection closes                      |
//!
//! Anything else answers `err unknown command ...`.  A line that reaches
//! 64 bytes without its newline answers `err line too long` and the
//! connection closes: the endpoint never holds more of a line than that.

use crate::NetStats;
use smp_telemetry::{FlightRecorder, Telemetry, DEFAULT_WINDOW_CAPACITY};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How often the observer samples the flight recorder.
const FLIGHT_CADENCE: Duration = Duration::from_millis(250);

/// What the admin endpoint observes.
#[derive(Clone, Debug)]
pub struct AdminState {
    /// This process's replica id (reported by `HEALTH`, and the
    /// `replica.<id>` prefix the socket counters are published under).
    pub replica: u32,
    /// The process's telemetry sink (`METRICS`, `TRACE`, uptime).
    pub telemetry: Telemetry,
    /// The socket runtime's counters: `HEALTH` appends reconnect, requeue
    /// and drop totals, so a degraded peer is visible from one line
    /// mid-run.
    pub net: Arc<NetStats>,
}

/// What the endpoint's threads share: the state, the registry view the
/// counters are published into, and the recorder.
struct Observer {
    state: AdminState,
    published: Telemetry,
    recorder: Mutex<FlightRecorder>,
}

impl Observer {
    /// Mirrors the socket counters into the registry.
    fn publish(&self) {
        self.state.net.publish(&self.published);
    }

    /// Publishes, then records one window.
    fn sample(&self) {
        self.publish();
        let telemetry = &self.state.telemetry;
        let now_us = telemetry.epoch_elapsed_us();
        self.recorder
            .lock()
            .expect("flight recorder poisoned")
            .sample(telemetry.snapshot(), now_us);
    }
}

/// A running admin endpoint.  Dropping the handle stops it.
#[derive(Debug)]
pub struct AdminHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<FlightRecorder>>,
}

impl AdminHandle {
    /// The endpoint's actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the endpoint, joins its thread and returns the flight
    /// recorder, whose last window was sampled at the stop.
    pub fn stop(mut self) -> FlightRecorder {
        self.stop.store(true, Ordering::Relaxed);
        let thread = self.thread.take().expect("a handle stops once");
        thread.join().expect("the admin thread panicked")
    }
}

impl Drop for AdminHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            thread.join().ok();
        }
    }
}

/// Serves admin commands on `listener` and samples the flight recorder,
/// on a background thread, until the returned handle stops (or drops).
pub fn spawn_admin(listener: TcpListener, state: AdminState) -> io::Result<AdminHandle> {
    let bound = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let cadence_us = FLIGHT_CADENCE.as_micros() as u64;
    let observer = Observer {
        published: simnet::node_telemetry(&state.telemetry, state.replica as usize),
        state,
        recorder: Mutex::new(FlightRecorder::new(DEFAULT_WINDOW_CAPACITY, cadence_us)),
    };
    let stop2 = Arc::clone(&stop);
    let thread = thread::spawn(move || observe(listener, Arc::new(observer), &stop2));
    Ok(AdminHandle {
        addr: bound,
        stop,
        thread: Some(thread),
    })
}

/// Sends `cmd` to the endpoint at `addr` and returns its one-line reply.
pub fn ask(addr: SocketAddr, cmd: &str) -> io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    (&stream).write_all(format!("{cmd}\n").as_bytes())?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply)?;
    match reply.trim_end() {
        "" => Err(io::ErrorKind::UnexpectedEof.into()),
        line => Ok(line.to_string()),
    }
}

/// Asks replica `replica`'s endpoint at `addr` for `HEALTH`, `METRICS`
/// and `SERIES`, again every 20 ms while it is not up yet or answers
/// amiss, until all three answer well or `deadline` passes.  Returns the
/// `HEALTH` reply, or what went wrong last.
pub fn probe(addr: SocketAddr, replica: u32, deadline: Instant) -> Result<String, String> {
    let check = || {
        let reply = |cmd| ask(addr, cmd).map_err(|e| format!("{cmd}: {e}"));
        let health = reply("HEALTH")?;
        if !health.starts_with(&format!("ok replica={replica} ")) {
            return Err(format!("HEALTH replied '{health}'"));
        }
        let metrics = reply("METRICS")?;
        if !metrics.starts_with('{') {
            return Err(format!("METRICS not a JSON object: '{metrics}'"));
        }
        let series = reply("SERIES")?;
        if !series.contains("smp-flightrec-v1") {
            return Err(format!("SERIES not schema-versioned: '{series}'"));
        }
        Ok(health)
    };
    loop {
        match check() {
            Err(_) if Instant::now() < deadline => thread::sleep(Duration::from_millis(20)),
            verdict => return verdict,
        }
    }
}

/// The observer's loop: accepts clients and samples on the cadence until
/// `stop`, then cuts every client off and samples a last time.
fn observe(listener: TcpListener, observer: Arc<Observer>, stop: &AtomicBool) -> FlightRecorder {
    // Each client is served on a thread of its own, so a silent one holds
    // up neither the next client, nor sampling, nor shutdown.
    let mut clients: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
    let mut next_sample = Instant::now() + FLIGHT_CADENCE;
    while !stop.load(Ordering::Relaxed) {
        if Instant::now() >= next_sample {
            observer.sample();
            next_sample = Instant::now() + FLIGHT_CADENCE;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let Ok(client) = stream.try_clone() else {
                    continue;
                };
                let observer = Arc::clone(&observer);
                let thread = thread::spawn(move || drop(serve_client(stream, &observer)));
                clients.retain(|(_, thread)| !thread.is_finished());
                clients.push((client, thread));
            }
            // Nothing to accept, or a connection that failed before its
            // accept: neither ends the observer.
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
    for (client, thread) in clients {
        client.shutdown(Shutdown::Both).ok();
        thread.join().expect("admin client thread panicked");
    }
    observer.sample();
    let observer = Arc::into_inner(observer).expect("every client thread has ended");
    observer
        .recorder
        .into_inner()
        .expect("flight recorder poisoned")
}

/// Longest line read, newline included; the longest command is 7 bytes.
const MAX_LINE_BYTES: u64 = 64;

fn serve_client(stream: TcpStream, observer: &Observer) -> io::Result<()> {
    let AdminState {
        replica,
        telemetry,
        net,
    } = &observer.state;
    stream.set_nonblocking(false)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        let read = (&mut reader)
            .take(MAX_LINE_BYTES)
            .read_until(b'\n', &mut line)?;
        if read == 0 {
            return Ok(()); // client hung up
        }
        if read as u64 == MAX_LINE_BYTES && line.last() != Some(&b'\n') {
            writer.write_all(b"err line too long\n")?;
            // FIN after the reply, before the close resets over unread bytes.
            return writer.shutdown(Shutdown::Write);
        }
        let cmd = String::from_utf8_lossy(&line).trim().to_ascii_uppercase();
        let reply = match cmd.as_str() {
            "" => continue,
            "HEALTH" => format!(
                "ok replica={replica} uptime_us={} spans={} reconnects={} requeued={} \
                 dropped_disconnected={} backoff_ms={}",
                telemetry.epoch_elapsed_us(),
                telemetry.trace_len(),
                net.reconnects_total(),
                net.frames_requeued_total(),
                net.frames_dropped_disconnected_total(),
                net.backoff_ms_total(),
            ),
            "METRICS" => {
                observer.publish();
                telemetry.registry_json().to_compact()
            }
            "SERIES" => {
                observer.publish();
                let recorder = observer.recorder.lock().expect("flight recorder poisoned");
                recorder.to_json().to_compact()
            }
            "TRACE" => telemetry.trace_json().to_compact(),
            "QUIT" => {
                writer.write_all(b"bye\n")?;
                return Ok(());
            }
            other => format!("err unknown command {other}"),
        };
        writer.write_all(reply.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    fn ask(addr: SocketAddr, cmd: &str) -> String {
        super::ask(addr, cmd).expect("admin reply")
    }

    /// An endpoint for replica 3 of a two-replica deployment, and the
    /// counters it observes.
    fn observed() -> (AdminHandle, Telemetry, Arc<NetStats>) {
        let telemetry = Telemetry::wall_clock();
        let net = Arc::new(NetStats::new(2));
        let state = AdminState {
            replica: 3,
            telemetry: telemetry.clone(),
            net: Arc::clone(&net),
        };
        let admin = spawn_admin(TcpListener::bind("127.0.0.1:0").unwrap(), state)
            .expect("spawn admin endpoint");
        (admin, telemetry, net)
    }

    #[test]
    fn admin_answers_every_command() {
        let (admin, telemetry, net) = observed();
        telemetry.instant("net.peer.1.up");
        net.record_reconnect(1);
        net.record_backoff(1, 12);
        let addr = admin.addr();

        let health = ask(addr, "health");
        assert!(
            health.starts_with("ok replica=3 uptime_us="),
            "unexpected HEALTH reply: {health}"
        );
        assert!(
            health.contains("reconnects=1") && health.contains("backoff_ms=12"),
            "HEALTH must surface net counters: {health}"
        );
        assert!(ask(addr, "METRICS").starts_with('{'));
        let series = ask(addr, "SERIES");
        assert!(series.contains("smp-flightrec-v1"));
        let trace = ask(addr, "TRACE");
        assert!(trace.contains("net.peer.1.up"));
        assert_eq!(ask(addr, "bogus"), "err unknown command BOGUS");

        // One connection can issue several commands, then QUIT.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"HEALTH\nQUIT\n").unwrap();
        let mut reader = BufReader::new(stream);
        let mut l1 = String::new();
        let mut l2 = String::new();
        reader.read_line(&mut l1).unwrap();
        reader.read_line(&mut l2).unwrap();
        assert!(l1.starts_with("ok replica=3"));
        assert_eq!(l2.trim_end(), "bye");

        admin.stop();
        assert!(TcpStream::connect(addr).is_err() || ask_fails(addr));
    }

    fn ask_fails(addr: SocketAddr) -> bool {
        // After stop the listener is gone; a connection that raced it into
        // the kernel backlog is reset when the listener closes, so no reply
        // ever arrives.
        let Ok(mut stream) = TcpStream::connect(addr) else {
            return true;
        };
        stream.write_all(b"HEALTH\n").ok();
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply).is_err() || reply.is_empty()
    }

    #[test]
    fn metrics_shows_the_socket_counters_as_they_stand() {
        let (admin, _, net) = observed();
        net.record_in(1, 100);
        net.record_in(1, 50);
        let metrics = ask(admin.addr(), "METRICS");
        assert!(
            metrics.contains(r#""replica.3.net.peer.1.frames_in":{"type":"counter","value":2}"#),
            "METRICS lacks the published counter: {metrics}"
        );
        net.record_in(1, 10);
        assert!(ask(admin.addr(), "METRICS")
            .contains(r#""replica.3.net.peer.1.bytes_in":{"type":"counter","value":160}"#));
    }

    #[test]
    fn a_run_longer_than_one_cadence_records_a_window() {
        let (admin, _, net) = observed();
        net.record_in(1, 100);
        let started = Instant::now();
        while ask(admin.addr(), "SERIES").contains(r#""windows":[]"#) {
            assert!(started.elapsed() < 10 * FLIGHT_CADENCE, "no window sampled");
            thread::sleep(FLIGHT_CADENCE / 10);
        }
        let recorder = admin.stop();
        assert!(recorder.len() >= 2, "a window on the cadence, one at stop");
        let first = recorder.windows().next().unwrap();
        assert!(first.end_us >= FLIGHT_CADENCE.as_micros() as u64);
        let key = "replica.3.net.peer.1.frames_in";
        assert_eq!(first.delta.counter(key), Some(1));
    }

    #[test]
    fn stop_adds_a_window_with_the_last_counters() {
        let (admin, _, net) = observed();
        net.record_in(1, 100);
        net.record_in(1, 100);
        let recorder = admin.stop();
        let key = "replica.3.net.peer.1.frames_in";
        assert!(!recorder.is_empty(), "stop samples a window");
        assert_eq!(
            recorder.last_snapshot().and_then(|s| s.counter(key)),
            Some(2)
        );
    }

    #[test]
    fn an_endless_line_is_refused_not_buffered() {
        let (admin, ..) = observed();
        let stream = TcpStream::connect(admin.addr()).expect("connect admin");
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut sender = stream.try_clone().unwrap();
        // 1 MiB with no newline; the write fails once the endpoint closes.
        let flood = thread::spawn(move || drop(sender.write_all(&vec![b'A'; 1 << 20])));
        let mut reader = BufReader::new(stream);
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("a reply within 2 s");
        assert_eq!(reply, "err line too long\n");
        reply.clear();
        let after = reader.read_line(&mut reply).expect("EOF within 2 s");
        assert_eq!(after, 0, "the connection closes after the refusal");
        flood.join().unwrap();
    }
}
