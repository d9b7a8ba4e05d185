//! Running a replica under the real-socket runtime (`smp-net`).
//!
//! The same [`Replica`] state machines that
//! [`experiment::run`](crate::experiment::run) drives inside the simulator
//! run here over real TCP: this module supplies the [`smp_net::WireMsg`]
//! impl for [`ReplicaMsg`] (framing via [`wire::codec`](crate::wire::codec)),
//! the visitor that assembles *one* replica for *this* process, a cluster
//! of them as threads of one process that ends when its work is done, and
//! a simulator reference runner producing the commit log an `smp-net`
//! cluster must reproduce byte-for-byte.

use crate::assembly::{comparable, dispatch, ProtocolVisitor};
use crate::experiment::ExperimentConfig;
use crate::replica::Replica;
use crate::wire::codec::{self, WireCodec};
use crate::wire::{MempoolWire, ReplicaMsg};
use simnet::{ObsKind, Telemetry};
use smp_consensus::ConsensusEngine;
use smp_mempool::Mempool;
use smp_net::{
    bind_loopback, spawn_admin, AdminState, ClusterSpec, NetRuntime, WireError, WireMsg,
};
use smp_types::{ReplicaId, TxId};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;

impl<MM> WireMsg for ReplicaMsg<MM>
where
    MM: MempoolWire + WireCodec + Send + 'static,
{
    const HEADER_BYTES: usize = codec::FRAME_HEADER_BYTES;

    fn encode(&self) -> Vec<u8> {
        codec::encode_frame(self)
    }

    fn body_len(header: &[u8]) -> Result<usize, WireError> {
        codec::decode_header(header)
            .map(|h| h.body_len)
            .map_err(|e| WireError::new(e.taxonomy(), e.to_string()))
    }

    fn decode(header: &[u8], body: &[u8]) -> Result<Self, WireError> {
        let h = codec::decode_header(header)
            .map_err(|e| WireError::new(e.taxonomy(), e.to_string()))?;
        codec::decode_body(body, h.priority)
            .map_err(|e| WireError::new(e.taxonomy(), e.to_string()))
    }
}

/// Options for a socket-runtime run.
#[derive(Clone, Debug)]
pub struct NetRunOptions {
    /// Cap on client transactions offered per replica (finite workloads
    /// make cross-runtime commit logs comparable).
    pub tx_limit: Option<u64>,
    /// The longest the run may last, wall-clock microseconds from cluster
    /// formation; a run ends sooner once its end predicate holds.
    pub horizon_us: u64,
    /// Observe the replica: serve a line-oriented admin endpoint
    /// (`HEALTH`/`METRICS`/`SERIES`/`TRACE`) at this address for the
    /// duration of the run, whose thread also samples the flight recorder
    /// ([`smp_net::admin`]).  Implies a live telemetry sink.
    pub admin_addr: Option<SocketAddr>,
    /// Start in crash-recovery mode: the replica boots as a passive
    /// sync observer, replays the committed sequence from its peers via
    /// the `Sync` wire family, and never runs the engine or workload.
    pub recover: bool,
}

impl Default for NetRunOptions {
    fn default() -> Self {
        NetRunOptions {
            tx_limit: None,
            horizon_us: 1_000_000,
            admin_addr: None,
            recover: false,
        }
    }
}

/// What one replica process measured during a socket-runtime run.
#[derive(Clone, Debug)]
pub struct NetRunSummary {
    /// Committed inline transaction ids, in commit order.
    pub commit_log: Vec<TxId>,
    /// Transactions committed (from the observation log).
    pub committed_txs: u64,
    /// Client transactions this replica offered.
    pub client_txs: u64,
    /// View changes observed (from the observation log).
    pub view_changes: u64,
    /// Frames received from peers.
    pub frames_in: u64,
    /// Frames sent to peers.
    pub frames_out: u64,
    /// Bytes received from peers.
    pub bytes_in: u64,
    /// Bytes sent to peers.
    pub bytes_out: u64,
    /// Wall-clock duration, microseconds.
    pub wall_us: u64,
    /// Connection/codec failures seen during the run.
    pub peer_errors: Vec<String>,
    /// Recoverable frame-body decode failures (connection survived).
    pub frame_errors: Vec<String>,
    /// The run's telemetry sink (disabled unless an admin endpoint was
    /// asked for).
    pub telemetry: Telemetry,
    /// The telemetry epoch as µs since the Unix epoch (None when the
    /// sink is disabled) — the cross-process trace-alignment anchor.
    pub epoch_unix_us: Option<u64>,
    /// The flight recorder's exported series (None when no admin
    /// endpoint observed the run).
    pub flight_series: Option<smp_metrics::JsonValue>,
}

struct NetVisitor<'a> {
    config: &'a ExperimentConfig,
    me: ReplicaId,
    addrs: Vec<SocketAddr>,
    /// This replica's listener, when the caller bound it already.
    listener: Option<TcpListener>,
    /// The admin endpoint's listener, bound from `opts.admin_addr`.
    admin: Option<TcpListener>,
    opts: &'a NetRunOptions,
    done: &'a mut dyn FnMut(&[TxId], u64) -> bool,
}

impl ProtocolVisitor for NetVisitor<'_> {
    type Out = io::Result<NetRunSummary>;

    fn visit<E, M>(self, build: &dyn Fn(usize, &Telemetry) -> Replica<E, M>) -> Self::Out
    where
        E: ConsensusEngine,
        M: Mempool + Send + 'static,
        M::Msg: MempoolWire + WireCodec + Send + 'static,
    {
        let config = self.config;
        // No simulated clock exists under the socket runtime, so the
        // sink runs in wall-clock-only mode: spans self-stamp from the
        // process epoch.  Only an observer has a use for a live sink.
        let telemetry = if self.admin.is_some() {
            Telemetry::wall_clock()
        } else {
            Telemetry::disabled()
        };
        let i = self.me.index();
        let mut replica = comparable(build(i, &telemetry), self.opts.tx_limit);
        if self.opts.recover {
            replica.start_recovery();
        }
        let spec = ClusterSpec::new(self.me, self.addrs, config.seed);
        let mut runtime = NetRuntime::new(replica, spec, simnet::node_telemetry(&telemetry, i));
        if let Some(listener) = self.listener {
            runtime = runtime.with_listener(listener);
        }
        // The observer publishes the runtime's lock-free counters and
        // samples the flight recorder; it never touches protocol state, so
        // instrumentation on/off leaves commit logs identical.
        let state = AdminState {
            replica: self.me.0,
            telemetry: telemetry.clone(),
            net: runtime.stats(),
        };
        let admin = self.admin.map(|l| spawn_admin(l, state)).transpose()?;

        let (done, mut committed, mut read) = (self.done, 0, 0);
        let report = runtime.run_until(self.opts.horizon_us, |node, observations| {
            for o in &observations.entries()[read..] {
                if let ObsKind::Committed { txs, .. } = o.kind {
                    committed += u64::from(txs);
                }
            }
            read = observations.len();
            done(node.commit_log().unwrap_or(&[]), committed)
        })?;

        let flight_series = admin.map(|admin| admin.stop().to_json());

        let tally = report.observations.tally(|r| r == self.me, ..);
        let node = report.node;
        Ok(NetRunSummary {
            commit_log: node.commit_log().unwrap_or(&[]).to_vec(),
            committed_txs: tally.committed_txs,
            client_txs: node.metrics().client_txs,
            view_changes: tally.view_changes,
            frames_in: report.frames_in,
            frames_out: report.frames_out,
            bytes_in: report.bytes_in,
            bytes_out: report.bytes_out,
            wall_us: report.wall_us,
            peer_errors: report.peer_errors,
            frame_errors: report.frame_errors,
            epoch_unix_us: telemetry.epoch_unix_us(),
            flight_series,
            telemetry,
        })
    }
}

/// Runs replica `me` of `config`'s deployment over real sockets.
/// `addrs[i]` is the listen address of replica `i`.  The call blocks
/// through cluster formation and then until `done(commit_log,
/// committed_txs)` holds, or for at most `opts.horizon_us` wall-clock
/// microseconds; `committed_txs` counts the transactions the replica has
/// executed.  `done` is asked after every event and at least every 10 ms.
pub fn run_replica_over_net(
    config: &ExperimentConfig,
    me: ReplicaId,
    addrs: Vec<SocketAddr>,
    opts: &NetRunOptions,
    mut done: impl FnMut(&[TxId], u64) -> bool,
) -> io::Result<NetRunSummary> {
    assert_eq!(addrs.len(), config.n, "need one listen address per replica");
    let visitor = NetVisitor {
        config,
        me,
        addrs,
        listener: None,
        admin: opts.admin_addr.map(TcpListener::bind).transpose()?,
        opts,
        done: &mut done,
    };
    dispatch(config, visitor)
}

/// Runs every replica of `config` with `opts` as a thread of this
/// process, each on a loopback listener bound before any of them starts.
/// With `opts.admin_addr` every replica binds an admin endpoint there up
/// front too, so it names port 0 (for distinct ports).
///
/// The cluster is done when every replica has committed every
/// transaction the workload offers ([`offered_txs`]).  A replica that is
/// done keeps running until all are, since a leader that stopped at its
/// own commit would leave its peers without the certificate.
/// `while_running` runs on the calling thread meanwhile, given the admin
/// endpoints' addresses in replica order (say, to poll them), and the
/// replicas end together once it has returned and the cluster is done.
///
/// A cluster that reaches its horizon short of its offer fails, naming
/// each replica that is and how many transactions it lacks.  A workload
/// that offers nothing leaves nothing to wait for, and the run lasts its
/// horizon.
pub fn run_cluster_over_net(
    config: &ExperimentConfig,
    opts: &NetRunOptions,
    while_running: impl FnOnce(&[SocketAddr]),
) -> io::Result<Vec<NetRunSummary>> {
    let txs = offered_txs(config, opts.tx_limit);
    let (listeners, addrs) = bind_loopback(config.n)?;
    let admins = (0..config.n)
        .map(|_| opts.admin_addr.map(TcpListener::bind).transpose())
        .collect::<io::Result<Vec<_>>>()?;
    let admin_addrs = admins
        .iter()
        .flatten()
        .map(TcpListener::local_addr)
        .collect::<io::Result<Vec<_>>>()?;
    // Replicas that have committed `txs` transactions (none ever has with
    // `txs` 0), and whether `while_running` has returned.
    let (finished, released) = (AtomicUsize::new(0), AtomicBool::new(false));
    let summaries = thread::scope(|s| {
        let replicas: Vec<_> = listeners
            .into_iter()
            .zip(admins)
            .enumerate()
            .map(|(i, (listener, admin))| {
                let (addrs, finished, released) = (addrs.clone(), &finished, &released);
                s.spawn(move || {
                    let mut counted = false;
                    let mut done = |_: &[TxId], committed: u64| {
                        if !counted && txs > 0 && committed >= txs {
                            counted = true;
                            finished.fetch_add(1, Ordering::Relaxed);
                        }
                        finished.load(Ordering::Relaxed) == config.n
                            && released.load(Ordering::Relaxed)
                    };
                    let visitor = NetVisitor {
                        config,
                        me: ReplicaId(i as u32),
                        addrs,
                        listener: Some(listener),
                        admin,
                        opts,
                        done: &mut done,
                    };
                    dispatch(config, visitor)
                })
            })
            .collect();
        while_running(&admin_addrs);
        released.store(true, Ordering::Relaxed);
        replicas
            .into_iter()
            .map(|r| r.join().expect("a replica thread panicked"))
            .collect::<io::Result<Vec<_>>>()
    })?;
    let short: Vec<String> = summaries
        .iter()
        .enumerate()
        .filter(|(_, r)| r.committed_txs < txs)
        .map(|(i, r)| format!("replica {i} lacks {} of {txs}", txs - r.committed_txs))
        .collect();
    if short.is_empty() {
        return Ok(summaries);
    }
    let why = format!(
        "the {} us horizon came first: {}",
        opts.horizon_us,
        short.join(", ")
    );
    Err(io::Error::new(io::ErrorKind::TimedOut, why))
}

/// The transactions a run of `config` offers with `tx_limit` per replica:
/// the limit from every replica whose share of the workload is not zero,
/// and none when the rate is 0 or there is no limit.
pub fn offered_txs(config: &ExperimentConfig, tx_limit: Option<u64>) -> u64 {
    let rates = config.workload.rates(config.n);
    let sources = rates.iter().filter(|&&rate| rate > 0.0).count() as u64;
    tx_limit.map_or(0, |limit| sources * limit)
}

struct SimVisitor<'a> {
    config: &'a ExperimentConfig,
    tx_limit: Option<u64>,
    horizon_us: u64,
}

impl ProtocolVisitor for SimVisitor<'_> {
    type Out = Vec<Vec<TxId>>;

    fn visit<E, M>(self, build: &dyn Fn(usize, &Telemetry) -> Replica<E, M>) -> Self::Out
    where
        E: ConsensusEngine,
        M: Mempool + Send + 'static,
        M::Msg: MempoolWire + WireCodec + Send + 'static,
    {
        let config = self.config;
        let nodes = (0..config.n)
            .map(|i| comparable(build(i, &Telemetry::disabled()), self.tx_limit))
            .collect();
        let mut sim = config.simulation(nodes);
        sim.run_until(self.horizon_us);
        (0..config.n)
            .map(|i| sim.node(i).commit_log().unwrap_or(&[]).to_vec())
            .collect()
    }
}

/// Reference run: executes `config` inside the simulator, replaying its
/// fault schedule, with commit logging on, and returns every replica's
/// committed-transaction-id sequence.  An `smp-net` cluster of the same
/// configuration and seed must commit byte-identical sequences.
pub fn sim_commit_logs(
    config: &ExperimentConfig,
    tx_limit: Option<u64>,
    horizon_us: u64,
) -> Vec<Vec<TxId>> {
    dispatch(
        config,
        SimVisitor {
            config,
            tx_limit,
            horizon_us,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::Protocol;
    use smp_types::MICROS_PER_SEC;
    use smp_workload::LoadDistribution;

    fn single_source(n: usize) -> ExperimentConfig {
        ExperimentConfig::new(Protocol::NativeHotStuff, n, 2_000.0)
            .with_distribution(LoadDistribution::SingleReplica(0))
            .with_batch_size(16 * 1024)
    }

    #[test]
    fn sim_reference_commits_every_offered_tx_on_every_replica() {
        let config = single_source(4);
        let logs = sim_commit_logs(&config, Some(100), 3 * MICROS_PER_SEC);
        assert_eq!(logs.len(), 4);
        assert_eq!(logs[0].len(), 100, "all offered txs commit");
        for i in 1..4 {
            assert_eq!(logs[i], logs[0], "replica {i} commit log diverges");
        }
    }

    #[test]
    fn tx_limit_caps_the_offered_load() {
        let config = single_source(4);
        let capped = sim_commit_logs(&config, Some(25), 3 * MICROS_PER_SEC);
        assert_eq!(capped[0].len(), 25);
    }
}
