//! Running one scenario on `smp-net`: every replica a thread of this
//! process, talking over loopback TCP.  Loopback injects no message
//! delay, so latency here is processor and batching time only.

use crate::assemble::{probed_replica, with_stack, Scenario, StackVisitor};
use crate::outcome::{collect_probes, RunOutcome};
use crate::probe::{take_trace, Hub};
use crate::stats::process_cpu_s;
use smp_consensus::ConsensusEngine;
use smp_mempool::Mempool;
use smp_net::{ClusterSpec, NetRuntime};
use smp_replica::{MempoolWire, WireCodec};
use smp_telemetry::Telemetry;
use smp_types::{ReplicaId, SystemConfig};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::Ordering;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Formation attempts before a socket run gives up.
const MAX_ATTEMPTS: u64 = 4;
/// How long one formation may take.  Loopback forms in milliseconds; a
/// replica that lost its port to another process never forms, and the
/// attempt is repeated on fresh ports.
const FORMATION_TIMEOUT: Duration = Duration::from_secs(3);

struct NetVisitor<'a> {
    scn: &'a Scenario,
    traced: bool,
    /// Wall-clock microseconds each replica runs once the cluster has
    /// formed; 0 forms the cluster and shuts it down at once.
    horizon_us: u64,
}

impl StackVisitor for NetVisitor<'_> {
    type Out = Result<RunOutcome, String>;

    fn visit<E, M, FE, FM>(self, make_engine: FE, make_mempool: FM) -> Self::Out
    where
        E: ConsensusEngine + Send + 'static,
        M: Mempool + Send + 'static,
        M::Msg: MempoolWire + WireCodec + Send + 'static,
        FE: Fn(&SystemConfig, ReplicaId) -> E + Sync,
        FM: Fn(&SystemConfig, ReplicaId) -> M + Sync,
    {
        // Failed formations are part of what set-up cost.
        let mut wasted_s = 0.0;
        let mut last_error = String::new();
        for attempt in 0..MAX_ATTEMPTS {
            let started = Instant::now();
            match form_and_run(
                self.scn,
                self.traced,
                self.horizon_us,
                &make_engine,
                &make_mempool,
            ) {
                Ok(mut out) => {
                    out.setup_retries = attempt;
                    out.setup_s += wasted_s;
                    return Ok(out);
                }
                Err(e) => {
                    wasted_s += started.elapsed().as_secs_f64();
                    last_error = e;
                }
            }
        }
        Err(format!(
            "cluster formation failed {MAX_ATTEMPTS} times: {last_error}"
        ))
    }
}

fn form_and_run<E, M>(
    scn: &Scenario,
    traced: bool,
    horizon_us: u64,
    make_engine: &(impl Fn(&SystemConfig, ReplicaId) -> E + Sync),
    make_mempool: &(impl Fn(&SystemConfig, ReplicaId) -> M + Sync),
) -> Result<RunOutcome, String>
where
    E: ConsensusEngine + Send + 'static,
    M: Mempool + Send + 'static,
    M::Msg: MempoolWire + WireCodec + Send + 'static,
{
    let n = scn.n;
    let sys = scn.system();
    let rates = scn.experiment().workload.rates(n);
    let mut ledger = scn.ledger();
    ledger.sample_latency();
    let hub = Hub::new(traced, ledger);
    let mut out = RunOutcome::new(scn);

    // Reserve one loopback port per replica and keep the listeners until
    // every replica is built and about to bind: the window in which
    // another process can take a port is microseconds, not the whole
    // construction.  They must be gone before anyone dials, or a dial
    // would land in a reserved listener's backlog and be lost.
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("reserving ports: {e}"))?;
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(TcpListener::local_addr)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("reading reserved ports: {e}"))?;

    let built = Barrier::new(n + 1);
    let go = Barrier::new(n + 1);
    let (cpu0, run_started, reports) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let (hub, sys, addrs, built, go) = (&hub, &sys, &addrs, &built, &go);
                let rate = rates[i];
                s.spawn(move || {
                    let id = ReplicaId(i as u32);
                    let replica = probed_replica(
                        scn,
                        sys,
                        hub,
                        i,
                        make_engine(sys, id),
                        make_mempool(sys, id),
                        rate,
                        Some(scn.tx_limit()),
                    );
                    let mut spec = ClusterSpec::new(id, addrs.clone(), scn.seed);
                    spec.connect_timeout = FORMATION_TIMEOUT;
                    let runtime = NetRuntime::new(replica, spec, Telemetry::disabled());
                    let stats = runtime.stats();
                    take_trace();
                    built.wait();
                    go.wait();
                    let report = runtime.run(horizon_us);
                    (report, stats, take_trace())
                })
            })
            .collect();
        built.wait();
        drop(listeners);
        let cpu0 = process_cpu_s();
        let run_started = Instant::now();
        go.wait();
        let reports: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("a replica thread panicked"))
            .collect();
        (cpu0, run_started, reports)
    });
    out.wall_s = run_started.elapsed().as_secs_f64();
    out.cpu_s = process_cpu_s() - cpu0;
    out.cpu_raw_s = out.cpu_s;

    let ns_per_tick = hub.ns_per_tick();
    for (i, (report, stats, trace)) in reports.into_iter().enumerate() {
        let report = report.map_err(|e| format!("replica {i}: {e}"))?;
        collect_probes(&mut out, &report.node, ns_per_tick);
        out.wire_msgs += report.frames_out;
        out.wire_bytes += report.bytes_out;
        out.peer_errors.extend(report.peer_errors);
        out.frame_errors.extend(report.frame_errors);
        out.reconnects += stats.reconnects_total();
        for peer in (0..n).filter_map(|p| stats.peer(p)) {
            out.queue_hwm = out.queue_hwm.max(peer.queue_hwm.load(Ordering::Relaxed));
            out.enqueue_stalls += peer.enqueue_stalls.load(Ordering::Relaxed);
        }
        out.spans.extend(trace.into_spans(ns_per_tick));
    }
    // Formed: every engine has been started.
    out.setup_s = hub.last_start_ns.load(Ordering::Relaxed) as f64 / 1e9;
    out.take_ledger(&hub);
    Ok(out)
}

/// Runs `scn` on loopback sockets for its offered window plus drain.
pub fn run_net(scn: &Scenario, traced: bool) -> Result<RunOutcome, String> {
    with_stack(
        scn,
        NetVisitor {
            scn,
            traced,
            horizon_us: scn.horizon_us(),
        },
    )
}

/// Forms the cluster once and shuts it down; seconds from the start of
/// construction to the last engine's `on_start`, failed formations
/// included.
pub fn net_setup(scn: &Scenario) -> Result<RunOutcome, String> {
    with_stack(
        scn,
        NetVisitor {
            scn,
            traced: false,
            horizon_us: 0,
        },
    )
}
