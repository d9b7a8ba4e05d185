//! Line-oriented TCP admin endpoint for live introspection.
//!
//! Each process can expose one admin socket.  A client connects, sends
//! one uppercase command per line, and receives one line back (JSON
//! documents are compact, single-line).  Commands:
//!
//! | command   | reply                                                  |
//! |-----------|--------------------------------------------------------|
//! | `HEALTH`  | `ok replica=<id> uptime_us=<n> spans=<n>` (plus `reconnects=`/`requeued=`/`dropped_disconnected=`/`backoff_ms=` when [`NetStats`](crate::NetStats) is attached) |
//! | `METRICS` | the metrics registry as compact JSON                   |
//! | `SERIES`  | the flight recorder's window series as compact JSON    |
//! | `TRACE`   | retained spans as a compact chrome://tracing document  |
//! | `QUIT`    | `bye`, then the connection closes                      |
//!
//! Anything else answers `err unknown command ...`.  The endpoint is an
//! observer only: it reads shared telemetry state, never the protocol's.
//! Before `METRICS`/`SERIES` it runs the state's refresh hook (which
//! typically mirrors [`NetStats`](crate::NetStats) atomics into the
//! registry) so replies reflect the counters as of the request.

use smp_telemetry::{FlightRecorder, Telemetry};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Shared state the admin endpoint serves from.
#[derive(Clone)]
pub struct AdminState {
    /// This process's replica id (reported by `HEALTH`).
    pub replica: u32,
    /// The process's telemetry sink (`METRICS`, `TRACE`, uptime).
    pub telemetry: Telemetry,
    /// The flight recorder behind `SERIES`, when a sampler is attached.
    pub recorder: Option<Arc<Mutex<FlightRecorder>>>,
    /// Hook run before `METRICS`/`SERIES` replies, typically publishing
    /// lock-free counters into the registry.
    pub refresh: Option<Arc<dyn Fn() + Send + Sync>>,
    /// The socket runtime's counters; when attached, `HEALTH` appends
    /// reconnect/requeue/drop totals so a degraded peer is visible from
    /// one line mid-run.
    pub net: Option<Arc<crate::NetStats>>,
}

impl std::fmt::Debug for AdminState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdminState")
            .field("replica", &self.replica)
            .field("recorder", &self.recorder.is_some())
            .field("refresh", &self.refresh.is_some())
            .finish()
    }
}

/// A running admin endpoint.  Dropping the handle stops it.
#[derive(Debug)]
pub struct AdminHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl AdminHandle {
    /// The endpoint's actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener and joins its thread.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            h.join().ok();
        }
    }
}

impl Drop for AdminHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Binds `addr` and serves admin commands on a background thread until
/// the returned handle stops (or drops).
pub fn spawn_admin(addr: SocketAddr, state: AdminState) -> io::Result<AdminHandle> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let handle = thread::spawn(move || accept_admin(listener, state, stop2));
    Ok(AdminHandle {
        addr: bound,
        stop,
        handle: Some(handle),
    })
}

fn accept_admin(listener: TcpListener, state: AdminState, stop: Arc<AtomicBool>) {
    // Each client is served on a thread of its own, so a silent one holds
    // up neither the next client nor shutdown, which cuts every client off.
    let mut clients: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let Ok(client) = stream.try_clone() else {
                    continue;
                };
                let state = state.clone();
                let thread = thread::spawn(move || drop(serve_client(stream, &state)));
                clients.retain(|(_, thread)| !thread.is_finished());
                clients.push((client, thread));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
    for (client, thread) in clients {
        client.shutdown(Shutdown::Both).ok();
        thread.join().expect("admin client thread panicked");
    }
}

fn serve_client(stream: TcpStream, state: &AdminState) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(()); // client hung up
        }
        let cmd = line.trim().to_ascii_uppercase();
        let reply = match cmd.as_str() {
            "" => continue,
            "HEALTH" => {
                let mut reply = format!(
                    "ok replica={} uptime_us={} spans={}",
                    state.replica,
                    state.telemetry.epoch_elapsed_us(),
                    state.telemetry.trace_len(),
                );
                if let Some(net) = &state.net {
                    reply.push_str(&format!(
                        " reconnects={} requeued={} dropped_disconnected={} backoff_ms={}",
                        net.reconnects_total(),
                        net.frames_requeued_total(),
                        net.frames_dropped_disconnected_total(),
                        net.backoff_ms_total(),
                    ));
                }
                reply
            }
            "METRICS" => {
                if let Some(refresh) = &state.refresh {
                    refresh();
                }
                state.telemetry.registry_json().to_compact()
            }
            "SERIES" => match &state.recorder {
                Some(recorder) => {
                    if let Some(refresh) = &state.refresh {
                        refresh();
                    }
                    recorder
                        .lock()
                        .expect("flight recorder poisoned")
                        .to_json()
                        .to_compact()
                }
                None => "err no flight recorder attached".to_string(),
            },
            "TRACE" => state.telemetry.trace_json().to_compact(),
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
    use smp_telemetry::FlightRecorder;
    use std::io::BufRead;

    fn ask(addr: SocketAddr, cmd: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect admin");
        stream
            .write_all(format!("{cmd}\n").as_bytes())
            .expect("send command");
        let mut reply = String::new();
        BufReader::new(stream)
            .read_line(&mut reply)
            .expect("read reply");
        reply.trim_end().to_string()
    }

    #[test]
    fn admin_answers_every_command() {
        let telemetry = Telemetry::wall_clock();
        telemetry.counter_add("net.peer.1.frames_in", 7);
        telemetry.instant("net.peer.1.up");
        let recorder = Arc::new(Mutex::new(FlightRecorder::new(8, 1_000)));
        recorder
            .lock()
            .unwrap()
            .sample(telemetry.snapshot(), telemetry.epoch_elapsed_us());
        let refreshed = Arc::new(AtomicBool::new(false));
        let refreshed2 = Arc::clone(&refreshed);
        let net = Arc::new(crate::NetStats::new(2));
        net.record_reconnect(1);
        net.record_backoff(1, 12);
        let state = AdminState {
            replica: 3,
            telemetry,
            recorder: Some(recorder),
            refresh: Some(Arc::new(move || {
                refreshed2.store(true, Ordering::Relaxed);
            })),
            net: Some(net),
        };
        let mut admin =
            spawn_admin("127.0.0.1:0".parse().unwrap(), state).expect("spawn admin endpoint");
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
        let metrics = ask(addr, "METRICS");
        assert!(metrics.contains("net.peer.1.frames_in"));
        assert!(
            refreshed.load(Ordering::Relaxed),
            "refresh hook did not run"
        );
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
    fn series_without_recorder_is_an_error_line() {
        let state = AdminState {
            replica: 0,
            telemetry: Telemetry::wall_clock(),
            recorder: None,
            refresh: None,
            net: None,
        };
        let admin =
            spawn_admin("127.0.0.1:0".parse().unwrap(), state).expect("spawn admin endpoint");
        assert_eq!(
            ask(admin.addr(), "SERIES"),
            "err no flight recorder attached"
        );
    }
}
