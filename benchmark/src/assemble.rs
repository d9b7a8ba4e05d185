//! Scenarios and the harness's own replica assembly.
//!
//! A [`Scenario`] is one deployment: protocol, size, load, faults.  The
//! assembly builds `Probe<Replica<Probe<Engine>, Probe<Mempool>>>` per
//! replica through the crates' public constructors — the composition
//! `smp_replica::run` uses, with probes between the layers.

use crate::ledger::Ledger;
use crate::probe::{Hub, Probe};
use simnet::{FaultAction, FaultSchedule};
use smp_consensus::{ConsensusEngine, HotStuffEngine, MirBftEngine, PbftEngine, StreamletEngine};
use smp_mempool::{DagMempool, GossipSmp, Mempool, NarwhalMempool, NativeMempool, SimpleSmp};
use smp_replica::{Behavior, ExperimentConfig, MempoolWire, Protocol, Replica, WireCodec};
use smp_shard::ShardedMempool;
use smp_types::{DagMode, ExecutorKind, ReplicaId, SimTime, SystemConfig, MICROS_PER_SEC};
use std::sync::Arc;
use stratus::{DlbConfig, StratusConfig, StratusMempool};

/// One deployment under one load.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Row label, e.g. `S-HS` or `S-HS.k4`.
    pub label: String,
    pub protocol: Protocol,
    pub n: usize,
    /// Aggregate offered load, spread evenly.
    pub rate_tps: f64,
    pub batch_bytes: usize,
    /// Dissemination shards per replica (sequential executor); 1 = none.
    pub shards: usize,
    /// Byzantine senders (the highest ids) and how many replicas besides
    /// the leader they still serve.
    pub byzantine: usize,
    pub byzantine_extra: usize,
    /// Load is offered for `offered_us`, then the run drains for
    /// `drain_us` with no new load.
    pub offered_us: SimTime,
    pub drain_us: SimTime,
    /// Scripted faults (simulator only).
    pub faults: Vec<(SimTime, FaultAction)>,
    pub seed: u64,
}

impl Scenario {
    pub fn new(protocol: Protocol, n: usize, rate_tps: f64, batch_bytes: usize) -> Self {
        Scenario {
            label: protocol.label().to_string(),
            protocol,
            n,
            rate_tps,
            batch_bytes,
            shards: 1,
            byzantine: 0,
            byzantine_extra: 0,
            offered_us: MICROS_PER_SEC,
            drain_us: MICROS_PER_SEC,
            faults: Vec::new(),
            seed: 42,
        }
    }

    pub fn horizon_us(&self) -> SimTime {
        self.offered_us + self.drain_us
    }

    /// Transactions each replica offers before its generator stops.
    pub fn tx_limit(&self) -> u64 {
        (self.rate_tps / self.n as f64 * self.offered_us as f64 / MICROS_PER_SEC as f64) as u64
    }

    /// The equivalent `smp_replica` configuration (5 ms ticks, 128-byte
    /// transactions, LAN, even load come with its defaults).
    pub fn experiment(&self) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::new(self.protocol, self.n, self.rate_tps)
            .with_batch_size(self.batch_bytes)
            .with_duration(0, self.horizon_us())
            .with_shards(self.shards)
            // `ExperimentConfig::new` reads SMP_EXECUTOR; the benchmark's
            // inputs come from its arguments alone.
            .with_executor(ExecutorKind::Sequential)
            .with_byzantine(self.byzantine, self.byzantine_extra);
        cfg.seed = self.seed;
        cfg
    }

    pub fn system(&self) -> SystemConfig {
        self.experiment().system()
    }

    pub fn fault_schedule(&self) -> FaultSchedule {
        self.faults
            .iter()
            .cloned()
            .fold(FaultSchedule::new(), |s, (at, action)| s.at(at, action))
    }

    fn is_byzantine(&self, i: usize) -> bool {
        i >= self.n.saturating_sub(self.byzantine)
    }

    fn behavior(&self, i: usize) -> Behavior {
        if self.is_byzantine(i) {
            Behavior::ByzantineSender {
                extra: self.byzantine_extra,
            }
        } else {
            Behavior::Honest
        }
    }

    /// Replicas whose offers count as operations.
    fn honest(&self) -> Vec<bool> {
        (0..self.n).map(|i| !self.is_byzantine(i)).collect()
    }

    /// Honest replicas the schedule never crashes: they are expected to
    /// commit everything the cluster commits.
    fn live(&self) -> Vec<bool> {
        let mut live = self.honest();
        for (_, action) in &self.faults {
            if let FaultAction::Crash(r) = action {
                live[r.index()] = false;
            }
        }
        live
    }

    /// The commit ledger of a run of this scenario: on-time offers end
    /// with the offered window, stalls count from the first fault.
    pub fn ledger(&self) -> Ledger {
        let mut ledger = Ledger::new(
            self.honest(),
            self.live(),
            self.protocol == Protocol::MirBft,
        );
        ledger.count_on_time_until(self.offered_us);
        if let Some(at) = self.faults.iter().map(|(at, _)| *at).min() {
            ledger.stall_from(at);
        }
        ledger
    }
}

/// A probed replica.
pub type ProbedReplica<E, M> = Probe<Replica<Probe<E>, Probe<M>>>;

/// Receives the concrete engine and mempool constructors of a protocol.
pub trait StackVisitor {
    type Out;
    fn visit<E, M, FE, FM>(self, make_engine: FE, make_mempool: FM) -> Self::Out
    where
        E: ConsensusEngine + Send + 'static,
        M: Mempool + Send + 'static,
        M::Msg: MempoolWire + WireCodec + Send + 'static,
        FE: Fn(&SystemConfig, ReplicaId) -> E + Sync,
        FM: Fn(&SystemConfig, ReplicaId) -> M + Sync;
}

fn visit_backend<V, E, M, FE, FM>(scn: &Scenario, v: V, make_engine: FE, make_mempool: FM) -> V::Out
where
    V: StackVisitor,
    E: ConsensusEngine + Send + 'static,
    M: Mempool + Send + 'static,
    M::Msg: MempoolWire + WireCodec + Send + 'static,
    FE: Fn(&SystemConfig, ReplicaId) -> E + Sync,
    FM: Fn(&SystemConfig, ReplicaId) -> M + Sync,
{
    if scn.shards > 1 {
        let k = scn.shards;
        v.visit(make_engine, move |s: &SystemConfig, i: ReplicaId| {
            ShardedMempool::sequential(s, k, i.0 as u64, |_, shard_sys| make_mempool(shard_sys, i))
        })
    } else {
        v.visit(make_engine, make_mempool)
    }
}

/// Resolves the scenario's protocol to concrete types, as
/// `smp_replica::run` does.
pub fn with_stack<V: StackVisitor>(scn: &Scenario, v: V) -> V::Out {
    // PAB quorum f + 1 and DLB with d = 1, as `ExperimentConfig` defaults.
    let pab_quorum = scn.system().f + 1;
    let stratus = move |s: &SystemConfig, i: ReplicaId| {
        let mut cfg = StratusConfig::default().with_dlb(DlbConfig::default().with_d(1));
        cfg.pab_quorum_override = Some(pab_quorum);
        StratusMempool::new(s, cfg, i)
    };
    match scn.protocol {
        Protocol::NativeHotStuff => visit_backend(scn, v, HotStuffEngine::new, NativeMempool::new),
        Protocol::NativePbft => visit_backend(scn, v, PbftEngine::new, NativeMempool::new),
        Protocol::SmpHotStuff => visit_backend(scn, v, HotStuffEngine::new, SimpleSmp::new),
        Protocol::SmpHotStuffGossip => visit_backend(scn, v, HotStuffEngine::new, GossipSmp::new),
        Protocol::StratusHotStuff => visit_backend(scn, v, HotStuffEngine::new, stratus),
        Protocol::StratusPbft => visit_backend(scn, v, PbftEngine::new, stratus),
        Protocol::StratusStreamlet => visit_backend(scn, v, StreamletEngine::new, stratus),
        Protocol::Narwhal => visit_backend(scn, v, HotStuffEngine::new, NarwhalMempool::new),
        Protocol::MirBft => visit_backend(scn, v, MirBftEngine::new, NativeMempool::new),
        Protocol::DagHotStuff => visit_backend(scn, v, HotStuffEngine::new, DagMempool::new),
        Protocol::DagHotStuffFast => {
            visit_backend(scn, v, HotStuffEngine::new, |s: &SystemConfig, i| {
                DagMempool::with_mode(s, i, DagMode::FastPath)
            })
        }
    }
}

/// Builds replica `i` of the scenario with probes between the layers.
/// `rate_tps` is the replica's share of the load (from
/// `WorkloadSpec::rates`, so it is bit-identical to what
/// `smp_replica::run` passes); `tx_limit` caps what its generator offers.
#[allow(clippy::too_many_arguments)]
pub fn probed_replica<E, M>(
    scn: &Scenario,
    sys: &SystemConfig,
    hub: &Arc<Hub>,
    i: usize,
    engine: E,
    mempool: M,
    rate_tps: f64,
    tx_limit: Option<u64>,
) -> ProbedReplica<E, M>
where
    E: ConsensusEngine,
    M: Mempool,
    M::Msg: MempoolWire,
{
    let id = ReplicaId(i as u32);
    let mut replica = Replica::new(
        sys,
        id,
        Probe::new(engine, id, hub),
        Probe::new(mempool, id, hub),
        scn.behavior(i),
        rate_tps,
        scn.protocol.is_stratus(),
        i == 0,
    );
    if let Some(limit) = tx_limit {
        replica.limit_client_txs(limit);
    }
    Probe::new(replica, id, hub)
}
