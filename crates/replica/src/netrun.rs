//! Running a replica under the real-socket runtime (`smp-net`).
//!
//! The same [`Replica`] state machines that
//! [`experiment::run`](crate::experiment::run) drives inside the simulator
//! run here over real TCP: this module supplies the [`smp_net::WireMsg`]
//! impl for [`ReplicaMsg`] (framing via [`wire::codec`](crate::wire::codec)),
//! the visitor that assembles *one* replica for *this* process, and a
//! simulator reference runner producing the commit log an `smp-net`
//! cluster must reproduce byte-for-byte.

use crate::assembly::{comparable, dispatch, ProtocolVisitor};
use crate::experiment::ExperimentConfig;
use crate::replica::Replica;
use crate::wire::codec::{self, WireCodec};
use crate::wire::{MempoolWire, ReplicaMsg};
use simnet::Telemetry;
use smp_consensus::ConsensusEngine;
use smp_mempool::Mempool;
use smp_net::{spawn_admin, AdminState, ClusterSpec, NetRuntime, WireError, WireMsg};
use smp_telemetry::{FlightSampler, DEFAULT_WINDOW_CAPACITY};
use smp_types::{ReplicaId, TxId};
use std::io;
use std::net::SocketAddr;

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
    /// Wall-clock run duration in microseconds.
    pub horizon_us: u64,
    /// Serve a line-oriented admin endpoint (`HEALTH`/`METRICS`/`SERIES`/
    /// `TRACE`) at this address for the duration of the run.  Implies a
    /// live telemetry sink.
    pub admin_addr: Option<SocketAddr>,
    /// Run a background flight-recorder sampler on this wall-clock
    /// cadence (µs), retaining recent metrics windows.  Implies a live
    /// telemetry sink.
    pub flight_cadence_us: Option<u64>,
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
            flight_cadence_us: None,
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
    /// The run's telemetry sink (disabled unless an admin endpoint or a
    /// flight sampler was asked for).
    pub telemetry: Telemetry,
    /// The telemetry epoch as µs since the Unix epoch (None when the
    /// sink is disabled) — the cross-process trace-alignment anchor.
    pub epoch_unix_us: Option<u64>,
    /// The flight recorder's exported series (None when no sampler ran).
    pub flight_series: Option<smp_metrics::JsonValue>,
}

struct NetVisitor<'a> {
    config: &'a ExperimentConfig,
    me: ReplicaId,
    addrs: Vec<SocketAddr>,
    opts: &'a NetRunOptions,
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
        // process epoch.  Only an admin endpoint or a flight sampler has a
        // use for a live sink.
        let telemetry = if self.opts.admin_addr.is_some() || self.opts.flight_cadence_us.is_some() {
            Telemetry::wall_clock()
        } else {
            Telemetry::disabled()
        };
        let i = self.me.index();
        let node_telemetry = simnet::node_telemetry(&telemetry, i);
        let mut replica = comparable(build(i, &telemetry), self.opts.tx_limit);
        if self.opts.recover {
            replica.start_recovery();
        }
        let spec = ClusterSpec::new(self.me, self.addrs, config.seed);
        let runtime = NetRuntime::new(replica, spec, node_telemetry.clone());
        let stats = runtime.stats();

        // Observers: both publish the runtime's lock-free counters into
        // the registry before reading it, and neither touches protocol
        // state — instrumentation on/off leaves commit logs identical.
        let sampler = self.opts.flight_cadence_us.map(|cadence_us| {
            let stats = std::sync::Arc::clone(&stats);
            let publish_to = node_telemetry.clone();
            FlightSampler::spawn(
                telemetry.clone(),
                std::time::Duration::from_micros(cadence_us),
                DEFAULT_WINDOW_CAPACITY,
                Some(Box::new(move || stats.publish(&publish_to))),
            )
        });
        let admin = match self.opts.admin_addr {
            Some(addr) => {
                let net = std::sync::Arc::clone(&stats);
                let stats = std::sync::Arc::clone(&stats);
                let publish_to = node_telemetry.clone();
                Some(spawn_admin(
                    addr,
                    AdminState {
                        replica: self.me.0,
                        telemetry: telemetry.clone(),
                        recorder: sampler.as_ref().map(FlightSampler::recorder),
                        refresh: Some(std::sync::Arc::new(move || stats.publish(&publish_to))),
                        net: Some(net),
                    },
                )?)
            }
            None => None,
        };

        let report = runtime.run(self.opts.horizon_us)?;

        let flight_series = sampler.map(|s| {
            let recorder = s.stop();
            let json = recorder.lock().expect("flight recorder poisoned").to_json();
            json
        });
        drop(admin);

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
/// `addrs[i]` is the listen address of replica `i`; the call blocks for
/// `opts.horizon_us` wall-clock microseconds of measurement (plus
/// cluster formation).
pub fn run_replica_over_net(
    config: &ExperimentConfig,
    me: ReplicaId,
    addrs: Vec<SocketAddr>,
    opts: &NetRunOptions,
) -> io::Result<NetRunSummary> {
    assert_eq!(addrs.len(), config.n, "need one listen address per replica");
    dispatch(
        config,
        NetVisitor {
            config,
            me,
            addrs,
            opts,
        },
    )
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
