//! The experiment runner: builds a simulated deployment of one protocol,
//! offers client load, and collects the measurements the paper reports
//! (throughput, latency, view changes, per-kind outbound bandwidth,
//! throughput time series).

use crate::assembly::{dispatch, ProtocolVisitor, OBSERVER};
use crate::protocols::Protocol;
use crate::replica::{Behavior, Replica};
use crate::wire::codec::WireCodec;
use crate::wire::MempoolWire;
use simnet::{FaultWindow, NetConfig, Node, Simulation, Telemetry};
use smp_consensus::{ConsensusEngine, StateSize};
use smp_mempool::{Mempool, MempoolStats};
use smp_metrics::{bytes_to_mbps, BandwidthBreakdown, RoleBandwidth, RunSummary};
use smp_types::{
    ExecutorKind, MempoolConfig, NetworkPreset, ReplicaId, SimTime, SystemConfig, MICROS_PER_MS,
    MICROS_PER_SEC,
};
use smp_workload::{LoadDistribution, WorkloadSpec};
use stratus::{DlbConfig, StratusConfig};

/// Full description of one experiment run (one data point).
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Protocol under test.
    pub protocol: Protocol,
    /// Number of replicas.
    pub n: usize,
    /// Network environment.
    pub network: NetworkPreset,
    /// Asynchrony windows injected into the network (Figure 8).
    pub fault_windows: Vec<FaultWindow>,
    /// Offered client load.
    pub workload: WorkloadSpec,
    /// Microblock batch size in bytes.
    pub batch_size_bytes: usize,
    /// Measurement duration (after warm-up).
    pub duration: SimTime,
    /// Warm-up period excluded from measurements.
    pub warmup: SimTime,
    /// RNG / key seed.
    pub seed: u64,
    /// PAB quorum override (`None` = `f + 1`).
    pub pab_quorum: Option<usize>,
    /// Power-of-d-choices parameter for DLB.
    pub dlb_d: usize,
    /// Whether DLB is enabled (S-HS-Even disables it).
    pub dlb_enabled: bool,
    /// Number of Byzantine *senders* (Section VII-C), assigned to the
    /// highest replica ids.
    pub num_byzantine: usize,
    /// How many extra replicas (besides the leader) Byzantine senders
    /// still serve.
    pub byzantine_extra: usize,
    /// View-change / pacemaker timeout.
    pub view_timeout: SimTime,
    /// Number of shared-mempool dissemination shards per replica
    /// (`smp-shard`); `1` runs the backend mempool unwrapped.
    pub shards: usize,
    /// How the shards are driven.  Both kinds run every shard on the
    /// replica thread, so results are identical (see [`ExecutorKind`]).
    pub executor: ExecutorKind,
    /// Whether to attach a live [`Telemetry`] sink to the run (metrics
    /// registry + span tracer, exposed on [`ExperimentResult::telemetry`]).
    /// Off by default; results are byte-identical either way.
    pub telemetry: bool,
}

impl ExperimentConfig {
    /// A baseline configuration for `protocol` with `n` replicas offering
    /// `rate_tps` of evenly spread load.
    pub fn new(protocol: Protocol, n: usize, rate_tps: f64) -> Self {
        ExperimentConfig {
            protocol,
            n,
            network: NetworkPreset::Lan,
            fault_windows: Vec::new(),
            workload: WorkloadSpec::even(rate_tps, 128),
            batch_size_bytes: 128 * 1024,
            duration: 5 * MICROS_PER_SEC,
            warmup: MICROS_PER_SEC,
            seed: 42,
            pab_quorum: None,
            dlb_d: 1,
            dlb_enabled: true,
            num_byzantine: 0,
            byzantine_extra: 0,
            view_timeout: 1_000 * MICROS_PER_MS,
            shards: 1,
            executor: ExecutorKind::Sequential,
            telemetry: false,
        }
    }

    /// Enables (or disables) the telemetry sink for this run.
    pub fn with_telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }

    /// Sets the number of shared-mempool dissemination shards.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the shard-executor kind (sequential or parallel).
    pub fn with_executor(mut self, executor: ExecutorKind) -> Self {
        self.executor = executor;
        self
    }

    /// Switches to the WAN environment.
    pub fn wan(mut self) -> Self {
        self.network = NetworkPreset::Wan;
        self
    }

    /// Sets the workload distribution.
    pub fn with_distribution(mut self, distribution: LoadDistribution) -> Self {
        self.workload.distribution = distribution;
        self
    }

    /// Sets the offered load (tx/s, aggregate).
    pub fn with_rate(mut self, rate_tps: f64) -> Self {
        self.workload.total_rate_tps = rate_tps;
        self
    }

    /// Sets the microblock batch size.
    pub fn with_batch_size(mut self, bytes: usize) -> Self {
        self.batch_size_bytes = bytes;
        self
    }

    /// Sets measurement duration and warm-up.
    pub fn with_duration(mut self, warmup: SimTime, duration: SimTime) -> Self {
        self.warmup = warmup;
        self.duration = duration;
        self
    }

    /// Injects Byzantine senders.
    pub fn with_byzantine(mut self, count: usize, extra: usize) -> Self {
        self.num_byzantine = count;
        self.byzantine_extra = extra;
        self
    }

    /// Adds a network fluctuation window.
    pub fn with_fault_window(mut self, w: FaultWindow) -> Self {
        self.fault_windows.push(w);
        self
    }

    /// Sets the PAB quorum explicitly.
    pub fn with_pab_quorum(mut self, q: usize) -> Self {
        self.pab_quorum = Some(q);
        self
    }

    /// Sets the power-of-d-choices parameter (and enables DLB).
    pub fn with_dlb_d(mut self, d: usize) -> Self {
        self.dlb_d = d;
        self.dlb_enabled = true;
        self
    }

    /// Disables distributed load balancing (the S-HS-Even configuration).
    pub fn without_dlb(mut self) -> Self {
        self.dlb_enabled = false;
        self
    }

    /// The derived system configuration.
    pub fn system(&self) -> SystemConfig {
        let mut sys = SystemConfig::new(self.n)
            .with_network(self.network)
            .with_seed(self.seed);
        sys.mempool = MempoolConfig {
            batch_size_bytes: self.batch_size_bytes,
            tx_payload_bytes: self.workload.payload_bytes,
            ..MempoolConfig::default()
        };
        sys.view_change_timeout = self.view_timeout;
        sys = sys.with_shards(self.shards).with_executor(self.executor);
        if let Some(q) = self.pab_quorum {
            sys = sys.with_pab_quorum(q);
        }
        sys
    }

    pub(crate) fn net_config(&self) -> NetConfig {
        let mut net = NetConfig::from_preset(self.network);
        net.fault_windows = self.fault_windows.clone();
        net
    }

    pub(crate) fn behavior_for(&self, i: usize) -> Behavior {
        if i >= self.n.saturating_sub(self.num_byzantine) {
            Behavior::ByzantineSender {
                extra: self.byzantine_extra,
            }
        } else {
            Behavior::Honest
        }
    }

    pub(crate) fn stratus_config(&self, sys: &SystemConfig) -> StratusConfig {
        let dlb = if self.dlb_enabled {
            DlbConfig::default().with_d(self.dlb_d)
        } else {
            DlbConfig::disabled()
        };
        let mut cfg = StratusConfig::default().with_dlb(dlb);
        cfg.pab_quorum_override = Some(self.pab_quorum.unwrap_or(sys.f + 1));
        cfg
    }
}

/// Everything measured in one run.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// Headline numbers (throughput, latency percentiles, view changes).
    pub summary: RunSummary,
    /// Outbound bandwidth split by role and message kind (Table III).
    pub bandwidth: BandwidthBreakdown,
    /// Committed-transaction throughput per second of simulated time, from
    /// the observer replica (Figure 8's timeline).
    pub throughput_series: Vec<f64>,
    /// Total view changes observed across honest replicas.
    pub view_changes: u64,
    /// Transactions committed at the observer during the measurement
    /// window.
    pub committed_txs: u64,
    /// Offered load during the run (tx/s).
    pub offered_tps: f64,
    /// The full observation log of the run (every commit, view change,
    /// stability and fetch event, in emission order).  This is what the
    /// cross-executor conformance suite compares byte-for-byte.
    pub observations: simnet::ObservationLog,
    /// The run's telemetry sink: metrics registry and span trace.
    /// Disabled (and empty) unless the configuration set
    /// [`ExperimentConfig::telemetry`].
    pub telemetry: Telemetry,
}

impl ExperimentResult {
    /// One-line rendering used by the harness binaries.
    pub fn row(&self) -> String {
        self.summary.to_row()
    }
}

/// Runs a single experiment.
pub fn run(config: &ExperimentConfig) -> ExperimentResult {
    run_sampled(config, config.warmup + config.duration, &mut |_, _, _| {})
}

/// What one replica holds at a sampling instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplicaSizes {
    /// The mempool's counters and live sizes.
    pub mempool: MempoolStats,
    /// The consensus engine's live sizes.
    pub engine: StateSize,
    /// Entries of the replica's throughput meter and runs of its latency
    /// histogram — outputs, which grow with the run by design.
    pub meter_entries: usize,
    /// See `meter_entries`.
    pub latency_runs: usize,
}

/// Runs a single experiment like [`run`], pausing every `every` of
/// simulated time to hand `sample` the time, every replica's sizes and the
/// length of the observation log so far.  Slicing the run changes nothing
/// the simulation can see.
pub fn run_sampled(
    config: &ExperimentConfig,
    every: SimTime,
    sample: &mut dyn FnMut(SimTime, &[ReplicaSizes], usize),
) -> ExperimentResult {
    dispatch(
        config,
        SimRun {
            config,
            every: every.max(1),
            sample,
        },
    )
}

/// The simulated deployment of one protocol, run to its horizon.
struct SimRun<'a> {
    config: &'a ExperimentConfig,
    every: SimTime,
    sample: &'a mut dyn FnMut(SimTime, &[ReplicaSizes], usize),
}

impl ProtocolVisitor for SimRun<'_> {
    type Out = ExperimentResult;

    fn visit<E, M>(self, build: &dyn Fn(usize, &Telemetry) -> Replica<E, M>) -> Self::Out
    where
        E: ConsensusEngine,
        M: Mempool + Send + 'static,
        M::Msg: MempoolWire + WireCodec + Send + 'static,
    {
        let config = self.config;
        let telemetry = if config.telemetry {
            Telemetry::new()
        } else {
            Telemetry::disabled()
        };
        let nodes = (0..config.n).map(|i| build(i, &telemetry)).collect();
        let mut sim = Simulation::new(nodes, config.net_config(), config.seed)
            .with_telemetry(telemetry.clone());
        let horizon = config.warmup + config.duration;
        let mut now = 0;
        loop {
            now = horizon.min(now + self.every);
            sim.run_until(now);
            let sizes: Vec<ReplicaSizes> = sim
                .nodes()
                .map(|r| ReplicaSizes {
                    mempool: r.mempool().stats(),
                    engine: r.engine().state_size(),
                    meter_entries: r.metrics().throughput.len(),
                    latency_runs: r.metrics().latency.runs(),
                })
                .collect();
            (self.sample)(now, &sizes, sim.observations().len());
            if now >= horizon {
                break;
            }
        }
        collect_results(config, sim, OBSERVER, horizon, telemetry)
    }
}

fn collect_results<E, M>(
    config: &ExperimentConfig,
    mut sim: Simulation<Replica<E, M>>,
    observer: usize,
    horizon: SimTime,
    telemetry: Telemetry,
) -> ExperimentResult
where
    E: ConsensusEngine,
    M: Mempool,
    M::Msg: MempoolWire,
    Replica<E, M>: Node,
{
    let window = (config.warmup, horizon);
    let view_changes: u64 = sim
        .nodes()
        .filter(|r| *r.behavior() == Behavior::Honest)
        .map(|r| r.metrics().view_changes)
        .sum();

    // Bandwidth breakdown (Table III): attribute proposal traffic to the
    // leader role (exactly one leader transmits proposals at a time) and
    // average the remaining kinds over all replicas.
    let traffic = sim.traffic();
    let mut leader = RoleBandwidth::default();
    let mut non_leader = RoleBandwidth::default();
    let totals = traffic.total_by_kind();
    let duration = horizon.max(1);
    for (kind, bytes) in &totals {
        let total_mbps = bytes_to_mbps(*bytes, duration);
        if *kind == "proposal" {
            leader.mbps_by_kind.insert((*kind).to_string(), total_mbps);
        } else {
            let per_replica = total_mbps / config.n as f64;
            non_leader
                .mbps_by_kind
                .insert((*kind).to_string(), per_replica);
            // The leader also behaves as an ordinary replica for these kinds.
            leader.mbps_by_kind.insert((*kind).to_string(), per_replica);
        }
    }
    let bandwidth = BandwidthBreakdown { leader, non_leader };

    let throughput_series =
        sim.observations()
            .throughput_series(ReplicaId(observer as u32), MICROS_PER_SEC, horizon);
    let observations = sim.observations().clone();

    let obs_metrics = sim.node_mut(observer);
    let committed = obs_metrics
        .metrics()
        .throughput
        .total_in(window.0, window.1);
    let mut latency = obs_metrics.metrics().latency.clone();
    let summary = RunSummary::from_measurements(
        config.protocol.label(),
        config.n,
        &obs_metrics.metrics().throughput,
        &mut latency,
        view_changes,
        window.0,
        window.1,
    );

    ExperimentResult {
        summary,
        bandwidth,
        throughput_series,
        view_changes,
        committed_txs: committed,
        offered_tps: config.workload.total_rate_tps,
        observations,
        telemetry,
    }
}

/// Runs the experiment at each offered load in `rates_tps` and returns all
/// results together with the index of the saturation point (the highest
/// throughput whose latency has not yet exploded past `latency_cap_ms`).
pub fn saturation_sweep(
    base: &ExperimentConfig,
    rates_tps: &[f64],
    latency_cap_ms: f64,
) -> (usize, Vec<ExperimentResult>) {
    let results: Vec<ExperimentResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = rates_tps
            .iter()
            .map(|rate| {
                let cfg = base.clone().with_rate(*rate);
                scope.spawn(move || run(&cfg))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("experiment thread panicked"))
            .collect()
    });
    let mut best = 0;
    for (i, r) in results.iter().enumerate() {
        let ok_latency = r.summary.p95_latency_ms <= latency_cap_ms || latency_cap_ms <= 0.0;
        if ok_latency && r.summary.throughput_ktps > results[best].summary.throughput_ktps {
            best = i;
        }
    }
    (best, results)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(protocol: Protocol, n: usize, rate: f64) -> ExperimentConfig {
        ExperimentConfig::new(protocol, n, rate)
            .with_duration(500 * MICROS_PER_MS, 2 * MICROS_PER_SEC)
            .with_batch_size(16 * 1024)
    }

    #[test]
    fn stratus_hotstuff_commits_transactions_in_a_small_lan() {
        let result = run(&quick(Protocol::StratusHotStuff, 4, 2_000.0));
        assert!(
            result.summary.throughput_ktps > 1.0,
            "expected ≥1 KTx/s, got {}",
            result.summary.throughput_ktps
        );
        assert!(result.summary.mean_latency_ms > 0.0);
        assert_eq!(
            result.view_changes, 0,
            "no view changes in the failure-free case"
        );
    }

    #[test]
    fn native_hotstuff_also_commits_at_low_load() {
        let result = run(&quick(Protocol::NativeHotStuff, 4, 1_000.0));
        assert!(
            result.summary.throughput_ktps > 0.5,
            "got {}",
            result.summary.throughput_ktps
        );
    }

    #[test]
    fn all_protocols_make_progress_on_a_tiny_network() {
        for protocol in Protocol::all() {
            let result = run(&quick(protocol, 4, 500.0));
            assert!(
                result.committed_txs > 0,
                "{} committed nothing",
                protocol.label()
            );
        }
    }

    #[test]
    fn byzantine_senders_hurt_smp_hs_more_than_s_hs() {
        let smp = run(&quick(Protocol::SmpHotStuff, 7, 2_000.0).with_byzantine(2, 0));
        let stratus = run(&quick(Protocol::StratusHotStuff, 7, 2_000.0).with_byzantine(2, 2));
        assert!(
            stratus.summary.throughput_ktps >= smp.summary.throughput_ktps,
            "S-HS ({:.2}) should outperform SMP-HS ({:.2}) under Byzantine senders",
            stratus.summary.throughput_ktps,
            smp.summary.throughput_ktps
        );
    }

    #[test]
    fn telemetry_leaves_results_byte_identical_and_fills_the_registry() {
        let cfg = quick(Protocol::StratusHotStuff, 4, 2_000.0);
        let plain = run(&cfg);
        let traced = run(&cfg.clone().with_telemetry(true));
        assert_eq!(
            plain.observations, traced.observations,
            "telemetry changed the observation log"
        );
        assert_eq!(plain.committed_txs, traced.committed_txs);
        assert!(!plain.telemetry.is_enabled());
        assert!(traced.telemetry.is_enabled());
        let snap = traced.telemetry.snapshot();
        assert!(
            snap.counter("replica.0.net.msgs_out").unwrap_or(0) > 0,
            "per-replica net counters missing"
        );
        assert!(
            snap.counter("replica.0.commit.txs").unwrap_or(0) > 0,
            "commit counters missing"
        );
        assert!(
            snap.counter("replica.0.batcher.sealed").unwrap_or(0) > 0,
            "mempool batcher counters missing"
        );
        // The live sizes, published after every commit.
        for gauge in [
            "mempool.store.len",
            "mempool.retired.len",
            "mempool.queue.slots",
            "mempool.fetch.outstanding",
            "pab.proofs.len",
            "pab.push.len",
            "consensus.chain.blocks",
            "consensus.tallies",
        ] {
            let key = format!("replica.0.{gauge}");
            assert!(snap.get(&key).is_some(), "gauge {key} missing");
        }
        assert!(traced.telemetry.trace_len() > 0, "no spans recorded");
        let profile = traced.telemetry.profile();
        assert!(profile.contains_key("simnet.deliver"));
        assert!(profile.contains_key("replica.mempool.on_message"));
    }

    #[test]
    fn saturation_sweep_returns_all_points() {
        let base = quick(Protocol::StratusHotStuff, 4, 1_000.0);
        let (best, results) = saturation_sweep(&base, &[500.0, 2_000.0], 10_000.0);
        assert_eq!(results.len(), 2);
        assert!(best < 2);
    }
}
