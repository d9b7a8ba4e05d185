//! Assembling a deployment: the one protocol table and the one replica
//! builder.
//!
//! [`dispatch`] resolves a [`Protocol`] to its concrete consensus engine
//! and mempool (Table II), wraps the mempool in a [`ShardedMempool`] when
//! the configuration asks for more than one dissemination shard, and hands
//! a [`ProtocolVisitor`] a function that builds replica `i` of that stack.
//! The simulator runner, the simulator reference for conformance, and the
//! socket runner are three visitors over it.

use crate::experiment::ExperimentConfig;
use crate::protocols::Protocol;
use crate::replica::Replica;
use crate::wire::codec::WireCodec;
use crate::wire::MempoolWire;
use simnet::{node_telemetry, Telemetry};
use smp_consensus::{ConsensusEngine, HotStuffEngine, MirBftEngine, PbftEngine, StreamletEngine};
use smp_mempool::{DagMempool, GossipSmp, Mempool, NarwhalMempool, NativeMempool, SimpleSmp};
use smp_shard::ShardedMempool;
use smp_types::{DagMode, ReplicaId, SystemConfig};
use stratus::StratusMempool;

/// Index of the replica whose latencies and throughput a run reports.
pub(crate) const OBSERVER: usize = 0;

/// What runs over the concrete (engine, mempool) types of a protocol.
pub(crate) trait ProtocolVisitor {
    type Out;

    /// `build(i, telemetry)` assembles replica `i`, its metrics and spans
    /// going to `telemetry` under [`simnet::node_telemetry`]'s prefix.
    fn visit<E, M>(self, build: &dyn Fn(usize, &Telemetry) -> Replica<E, M>) -> Self::Out
    where
        E: ConsensusEngine,
        M: Mempool + Send + 'static,
        M::Msg: MempoolWire + WireCodec + Send + 'static;
}

/// Makes a replica's run comparable across runtimes: the commit log is
/// recorded and the offered workload is finite.
pub(crate) fn comparable<E, M>(mut replica: Replica<E, M>, tx_limit: Option<u64>) -> Replica<E, M>
where
    E: ConsensusEngine,
    M: Mempool,
    M::Msg: MempoolWire,
{
    replica.enable_commit_log();
    if let Some(limit) = tx_limit {
        replica.limit_client_txs(limit);
    }
    replica
}

/// Resolves the protocol matrix to concrete types and runs the visitor.
pub(crate) fn dispatch<V: ProtocolVisitor>(config: &ExperimentConfig, v: V) -> V::Out {
    let sys = &config.system();
    let st = config.stratus_config();
    let stratus = move |s: &SystemConfig, i| StratusMempool::new(s, st, i);
    let dag_fast = |s: &SystemConfig, i| DagMempool::with_mode(s, i, DagMode::FastPath);
    match config.protocol {
        Protocol::NativeHotStuff => {
            assemble(config, sys, v, HotStuffEngine::new, NativeMempool::new)
        }
        Protocol::NativePbft => assemble(config, sys, v, PbftEngine::new, NativeMempool::new),
        Protocol::SmpHotStuff => assemble(config, sys, v, HotStuffEngine::new, SimpleSmp::new),
        Protocol::SmpHotStuffGossip => {
            assemble(config, sys, v, HotStuffEngine::new, GossipSmp::new)
        }
        Protocol::StratusHotStuff => assemble(config, sys, v, HotStuffEngine::new, stratus),
        Protocol::StratusPbft => assemble(config, sys, v, PbftEngine::new, stratus),
        Protocol::StratusStreamlet => assemble(config, sys, v, StreamletEngine::new, stratus),
        Protocol::Narwhal => assemble(config, sys, v, HotStuffEngine::new, NarwhalMempool::new),
        Protocol::MirBft => assemble(config, sys, v, MirBftEngine::new, NativeMempool::new),
        Protocol::DagHotStuff => assemble(config, sys, v, HotStuffEngine::new, DagMempool::new),
        Protocol::DagHotStuffFast => assemble(config, sys, v, HotStuffEngine::new, dag_fast),
    }
}

/// Applies the sharding wrap, if configured.  Every protocol of Table II
/// composes with sharding this way (e.g. `StratusHotStuff` × k shards),
/// with the shard count and executor kind read by
/// [`ShardedMempool::from_system`]: the backend constructor receives the
/// per-shard configuration (batch budget divided by `k`), and the replica
/// id salts the per-shard RNG streams so different replicas stay
/// decorrelated.
fn assemble<V, E, M>(
    config: &ExperimentConfig,
    sys: &SystemConfig,
    v: V,
    make_engine: impl Fn(&SystemConfig, ReplicaId) -> E,
    make_mempool: impl Fn(&SystemConfig, ReplicaId) -> M,
) -> V::Out
where
    V: ProtocolVisitor,
    E: ConsensusEngine,
    M: Mempool + Send + 'static,
    M::Msg: MempoolWire + WireCodec + Send + 'static,
{
    if config.shards <= 1 {
        return visit(config, sys, v, make_engine, make_mempool);
    }
    visit(config, sys, v, make_engine, |s, i| {
        ShardedMempool::from_system(s, i.0 as u64, |_, shard_sys| make_mempool(shard_sys, i))
    })
}

/// Hands the visitor the builder of replica `i` over the final stack.
fn visit<V, E, M>(
    config: &ExperimentConfig,
    sys: &SystemConfig,
    v: V,
    make_engine: impl Fn(&SystemConfig, ReplicaId) -> E,
    make_mempool: impl Fn(&SystemConfig, ReplicaId) -> M,
) -> V::Out
where
    V: ProtocolVisitor,
    E: ConsensusEngine,
    M: Mempool + Send + 'static,
    M::Msg: MempoolWire + WireCodec + Send + 'static,
{
    let rates = config.workload.rates(config.n);
    v.visit(&|i, telemetry| {
        let id = ReplicaId(i as u32);
        let mut mempool = make_mempool(sys, id);
        mempool.set_telemetry(node_telemetry(telemetry, i));
        Replica::new(
            sys,
            id,
            make_engine(sys, id),
            mempool,
            config.behavior_for(i),
            rates[i],
            config.protocol.is_stratus(),
            i == OBSERVER,
        )
    })
}
