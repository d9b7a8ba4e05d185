//! A permissioned key-value chain built directly on the library API.
//!
//! This example uses the Stratus mempool and the chained-HotStuff engine
//! as a library (no simulator): four in-process replicas order client
//! `SET key value` commands — batched into microblocks, disseminated with
//! PAB, referenced by id in HotStuff proposals, and finally applied to a
//! key-value store once committed.  It demonstrates the full
//! `ReceiveTx → ShareTx → MakeProposal → FillProposal → Commit` pipeline
//! of the paper's Figure 1, including the executor-side resolution of
//! microblock references.
//!
//! ```text
//! cargo run --release --example permissioned_kv_chain
//! ```

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use smp_consensus::{CDest, CEvent, ConsensusEngine, HotStuffEngine, ProposalVerdict};
use smp_mempool::{Dest, Mempool, MempoolEvent};
use smp_types::{ClientId, MicroblockId, Payload, Proposal, ReplicaId, SystemConfig, Transaction};
use std::collections::{BTreeMap, HashMap, VecDeque};
use stratus::{StratusConfig, StratusMempool, StratusMsg};

const N: usize = 4;

struct KvReplica {
    id: ReplicaId,
    engine: HotStuffEngine,
    mempool: StratusMempool,
    /// Executor-side cache: microblock id -> decoded commands.
    mb_commands: HashMap<MicroblockId, Vec<String>>,
    store: BTreeMap<String, String>,
    applied_txs: usize,
    rng: SmallRng,
}

enum Wire {
    Consensus(smp_consensus::ConsensusMsg),
    Mempool(StratusMsg),
}

fn main() {
    let system = SystemConfig::new(N);
    let mut replicas: Vec<KvReplica> = (0..N as u32)
        .map(|i| KvReplica {
            id: ReplicaId(i),
            engine: HotStuffEngine::new(&system, ReplicaId(i)),
            mempool: StratusMempool::new(&system, StratusConfig::default(), ReplicaId(i)),
            mb_commands: HashMap::new(),
            store: BTreeMap::new(),
            applied_txs: 0,
            rng: SmallRng::seed_from_u64(1000 + i as u64),
        })
        .collect();

    let mut wire: VecDeque<(usize, usize, Wire)> = VecDeque::new();
    let mut now: u64 = 0;

    // Submit 600 SET commands; clients pick replicas round-robin.
    for i in 0..600u64 {
        let replica = (i % N as u64) as usize;
        let cmd = format!("SET account-{:03} {}", i % 100, 10 * i);
        let tx = Transaction::with_payload(ClientId(replica as u32), i, Bytes::from(cmd), now);
        let fx = {
            let r = &mut replicas[replica];
            r.mempool.on_client_txs(now, vec![tx], &mut r.rng)
        };
        enqueue_mempool(replica, fx, &mut replicas, &mut wire);
        now += 500;
    }
    // Flush partial batches.
    for r in 0..N {
        let fx = {
            let node = &mut replicas[r];
            node.mempool
                .on_timer(now, smp_mempool::BATCH_TIMEOUT_TAG, &mut node.rng)
        };
        enqueue_mempool(r, fx, &mut replicas, &mut wire);
    }

    // Start consensus.
    for r in 0..N {
        let fx = replicas[r].engine.on_start(now);
        apply_consensus(r, fx, &mut replicas, &mut wire, now);
    }

    // Deliver messages until quiescence.
    let mut delivered = 0u64;
    while let Some((from, to, msg)) = wire.pop_front() {
        delivered += 1;
        now += 50;
        match msg {
            Wire::Consensus(cm) => {
                let fx = replicas[to]
                    .engine
                    .on_message(now, ReplicaId(from as u32), cm);
                apply_consensus(to, fx, &mut replicas, &mut wire, now);
            }
            Wire::Mempool(mm) => {
                cache_commands(&mut replicas[to], &mm);
                let fx = {
                    let r = &mut replicas[to];
                    r.mempool
                        .on_message(now, ReplicaId(from as u32), mm, &mut r.rng)
                };
                handle_mempool_effects(to, fx, &mut replicas, &mut wire, now);
            }
        }
        if delivered > 2_000_000 {
            break;
        }
    }

    println!("== permissioned key-value chain (Stratus + chained HotStuff) ==");
    for r in &replicas {
        println!(
            "{}: applied {:>4} transactions, {:>3} keys, committed blocks = {}",
            r.id,
            r.applied_txs,
            r.store.len(),
            r.engine.committed_count()
        );
    }
    let reference = &replicas[0].store;
    let consistent = replicas.iter().all(|r| &r.store == reference);
    println!("replica key-value stores identical: {consistent}");
    println!("sample: account-042 = {:?}", reference.get("account-042"));
    assert!(
        replicas[0].applied_txs > 0,
        "the chain should have applied transactions"
    );
}

/// Decodes and caches the commands carried by data-bearing messages so the
/// executor can resolve microblock references at commit time.
fn cache_commands(replica: &mut KvReplica, msg: &StratusMsg) {
    let mbs: Vec<&smp_types::Microblock> = match msg {
        StratusMsg::PabMsg(mb) | StratusMsg::LbForward(mb) => vec![mb],
        StratusMsg::PabResponse { mbs } => mbs.iter().collect(),
        _ => return,
    };
    for mb in mbs {
        let commands = mb
            .txs
            .iter()
            .map(|t| String::from_utf8_lossy(&t.payload).to_string())
            .collect();
        replica.mb_commands.insert(mb.id, commands);
    }
}

fn enqueue_mempool(
    from: usize,
    fx: smp_mempool::Effects<StratusMsg>,
    replicas: &mut [KvReplica],
    wire: &mut VecDeque<(usize, usize, Wire)>,
) {
    for (dest, msg) in fx.msgs {
        // The sender also caches its own outgoing data for execution.
        cache_commands(&mut replicas[from], &msg);
        match dest {
            Dest::One(r) => wire.push_back((from, r.index(), Wire::Mempool(msg))),
            Dest::AllButSelf => {
                for to in 0..N {
                    if to != from {
                        wire.push_back((from, to, Wire::Mempool(msg.clone())));
                    }
                }
            }
            Dest::Many(rs) => {
                for r in rs {
                    wire.push_back((from, r.index(), Wire::Mempool(msg.clone())));
                }
            }
        }
    }
}

fn apply_consensus(
    at: usize,
    fx: smp_consensus::CEffects,
    replicas: &mut Vec<KvReplica>,
    wire: &mut VecDeque<(usize, usize, Wire)>,
    now: u64,
) {
    for (dest, msg) in fx.msgs {
        match dest {
            CDest::One(r) => {
                if r.index() == at {
                    let fx2 = replicas[at]
                        .engine
                        .on_message(now, ReplicaId(at as u32), msg);
                    apply_consensus(at, fx2, replicas, wire, now);
                } else {
                    wire.push_back((at, r.index(), Wire::Consensus(msg)));
                }
            }
            CDest::AllButSelf => {
                for to in 0..N {
                    if to != at {
                        wire.push_back((at, to, Wire::Consensus(msg.clone())));
                    }
                }
            }
        }
    }
    for ev in fx.events {
        match ev {
            CEvent::NeedPayload { view, .. } => {
                let payload = replicas[at].mempool.make_payload(now);
                let fx2 = replicas[at].engine.on_payload(now, view, payload);
                apply_consensus(at, fx2, replicas, wire, now);
            }
            CEvent::VerifyProposal { proposal } => {
                let (status, mfx) = {
                    let r = &mut replicas[at];
                    r.mempool.on_proposal(now, &proposal, &mut r.rng)
                };
                handle_mempool_effects(at, mfx, replicas, wire, now);
                let verdict = if status.is_ready() {
                    ProposalVerdict::Accept
                } else {
                    ProposalVerdict::Reject
                };
                let fx2 = replicas[at]
                    .engine
                    .on_proposal_verdict(now, proposal.id, verdict);
                apply_consensus(at, fx2, replicas, wire, now);
            }
            CEvent::Committed { proposal } => {
                let mfx = replicas[at].mempool.on_commit(now, &proposal);
                apply_committed(at, &proposal, replicas);
                handle_mempool_effects(at, mfx, replicas, wire, now);
            }
            CEvent::ViewChange { .. } => {}
        }
    }
}

fn handle_mempool_effects(
    at: usize,
    fx: smp_mempool::Effects<StratusMsg>,
    replicas: &mut Vec<KvReplica>,
    wire: &mut VecDeque<(usize, usize, Wire)>,
    now: u64,
) {
    let events = fx.events.clone();
    enqueue_mempool(at, fx, replicas, wire);
    for ev in events {
        if let MempoolEvent::ProposalReady { proposal } = ev {
            let fx2 =
                replicas[at]
                    .engine
                    .on_proposal_verdict(now, proposal, ProposalVerdict::Accept);
            apply_consensus(at, fx2, replicas, wire, now);
        }
    }
}

/// Applies the committed proposal to the replica's key-value store.
fn apply_committed(at: usize, proposal: &Proposal, replicas: &mut [KvReplica]) {
    let replica = &mut replicas[at];
    match &proposal.payload {
        Payload::Inline(txs) => {
            for t in txs.iter() {
                let cmd = String::from_utf8_lossy(&t.payload).to_string();
                apply_command(replica, &cmd);
            }
        }
        Payload::Refs(refs) => {
            for r in refs {
                if let Some(commands) = replica.mb_commands.get(&r.id).cloned() {
                    for cmd in commands {
                        apply_command(replica, &cmd);
                    }
                }
            }
        }
        // This example runs an unsharded Stratus mempool, so sharded
        // payloads never appear.
        Payload::Sharded(_) | Payload::Empty => {}
    }
}

fn apply_command(replica: &mut KvReplica, cmd: &str) {
    let mut parts = cmd.split_whitespace();
    if let (Some("SET"), Some(k), Some(v)) = (parts.next(), parts.next(), parts.next()) {
        replica.store.insert(k.to_string(), v.to_string());
        replica.applied_txs += 1;
    }
}
