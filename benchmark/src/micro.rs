//! Layer probes: direct timed calls into one public function of one
//! layer, the `*.probe.*` and `replica.codec.*` metrics.  Each probe
//! iterates for at least `Budget::min_time` and reports the median of
//! `Budget::reps` such measurements.  Inputs are built outside the timed
//! region; results pass through `black_box`.

use crate::metrics::Values;
use crate::stats::median;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use simnet::{NetConfig, Node, NodeCtx, SimMessage, Simulation, Telemetry, TimerTag};
use smp_consensus::testkit::EngineNet;
use smp_consensus::{ConsensusMsg, HotStuffEngine};
use smp_crypto::{Digest, KeyPair, QuorumProof, Signature};
use smp_mempool::{Mempool, NativeMsg, TxBatcher};
use smp_metrics::LatencyHistogram;
use smp_net::{ClusterSpec, NetRuntime, WireError, WireMsg};
use smp_replica::{decode_frame, encode_frame, MempoolWire, ReplicaMsg, WireCodec};
use smp_shard::ShardedMempool;
use smp_types::{
    BlockId, ClientId, MempoolConfig, Microblock, Payload, Proposal, ReplicaId, SystemConfig,
    Transaction, View,
};
use smp_workload::TxFactory;
use std::hint::black_box;
use std::net::TcpListener;
use std::time::{Duration, Instant};
use stratus::{PabEngine, StratusConfig, StratusMempool, StratusMsg};

/// How long and how often each probe measures.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    pub min_time: Duration,
    pub reps: usize,
}

impl Budget {
    /// The documented budget: at least 200 ms of iterations, median of 5.
    pub const FULL: Budget = Budget {
        min_time: Duration::from_millis(200),
        reps: 5,
    };
    /// What fits beside a workload in one traced benchmark run.
    pub const QUICK: Budget = Budget {
        min_time: Duration::from_millis(30),
        reps: 3,
    };
}

/// Median nanoseconds per unit of work.  `setup` builds the input of one
/// call outside the timed region; `run` consumes it and returns how many
/// units it did.
fn measure<I>(budget: Budget, mut setup: impl FnMut() -> I, mut run: impl FnMut(I) -> u64) -> f64 {
    let mut samples = Vec::with_capacity(budget.reps);
    for _ in 0..budget.reps {
        let mut busy = Duration::ZERO;
        let mut units = 0u64;
        while busy < budget.min_time {
            let input = setup();
            let started = Instant::now();
            units += run(input);
            busy += started.elapsed();
        }
        samples.push(busy.as_nanos() as f64 / units.max(1) as f64);
    }
    median(&samples).unwrap_or(0.0)
}

fn txs(n: usize, base: u64) -> Vec<Transaction> {
    (0..n as u64)
        .map(|i| Transaction::synthetic(ClientId(1), base + i, 128, 0))
        .collect()
}

fn system(n: usize) -> SystemConfig {
    SystemConfig::new(n).with_mempool(MempoolConfig {
        batch_size_bytes: 128 * 1024,
        ..MempoolConfig::default()
    })
}

// ----- simnet ---------------------------------------------------------

#[derive(Clone, Debug)]
struct Blob {
    bytes: usize,
}

impl SimMessage for Blob {
    fn wire_size(&self) -> usize {
        self.bytes
    }
    fn kind(&self) -> &'static str {
        "blob"
    }
}

/// Returns whatever it receives; node 0 serves first.
struct PingNode;

impl Node for PingNode {
    type Msg = Blob;
    fn on_start(&mut self, ctx: &mut NodeCtx<'_, Blob>) {
        if ctx.id() == ReplicaId(0) {
            ctx.send(ReplicaId(1), Blob { bytes: 64 });
        }
    }
    fn on_message(&mut self, ctx: &mut NodeCtx<'_, Blob>, from: ReplicaId, msg: Blob) {
        ctx.send(from, msg);
    }
    fn on_timer(&mut self, _: &mut NodeCtx<'_, Blob>, _: TimerTag) {}
}

/// Broadcasts a 128 KiB message every simulated millisecond.
struct BroadcastNode;

impl Node for BroadcastNode {
    type Msg = Blob;
    fn on_start(&mut self, ctx: &mut NodeCtx<'_, Blob>) {
        ctx.set_timer(1_000, 0);
    }
    fn on_message(&mut self, _: &mut NodeCtx<'_, Blob>, _: ReplicaId, _: Blob) {}
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, Blob>, _: TimerTag) {
        ctx.broadcast(Blob { bytes: 128 * 1024 });
        ctx.set_timer(1_000, 0);
    }
}

/// Events per host second of a simulation advanced in `step_us` slices.
fn sim_events_per_s<N: Node>(budget: Budget, make: impl Fn() -> Vec<N>, step_us: u64) -> f64 {
    let mut sim = Simulation::new(make(), NetConfig::lan(), 7);
    let ns_per_event = measure(
        budget,
        || (),
        |()| {
            let before = sim.events_processed();
            sim.run_for(step_us);
            sim.events_processed() - before
        },
    );
    1e9 / ns_per_event
}

// ----- codec ----------------------------------------------------------

/// (encode ns, decode ns, encoded bytes, modelled bytes) of one message.
fn codec_probe<MM>(budget: Budget, msg: &ReplicaMsg<MM>) -> (f64, f64, usize, usize)
where
    MM: MempoolWire + WireCodec,
{
    let frame = encode_frame(msg);
    let enc = measure(
        budget,
        || (),
        |()| {
            black_box(encode_frame(black_box(msg)));
            1
        },
    );
    let dec = measure(
        budget,
        || (),
        |()| {
            black_box(decode_frame::<MM>(black_box(&frame)).expect("own frame decodes"));
            1
        },
    );
    (enc, dec, frame.len(), msg.wire_size())
}

fn codec_probes(budget: Budget, out: &mut Values) {
    let keys = KeyPair::derive_all(42, 4);
    let mb = Microblock::seal(ReplicaId(0), txs(128, 0), 0);
    let vote: ReplicaMsg<StratusMsg> = ReplicaMsg::consensus(
        ConsensusMsg::Vote {
            view: View(7),
            block: BlockId(Digest::of_u64(7)),
            voter: ReplicaId(1),
        },
        true,
    );
    let ack: ReplicaMsg<StratusMsg> = ReplicaMsg::mempool(
        StratusMsg::PabAck {
            id: mb.id,
            sig: Signature::sign(&keys[1].secret, &mb.id.digest()),
        },
        true,
    );
    let microblock: ReplicaMsg<StratusMsg> = ReplicaMsg::mempool(StratusMsg::PabMsg(mb), false);
    let propose: ReplicaMsg<NativeMsg> = ReplicaMsg::consensus(
        ConsensusMsg::Propose(Proposal::new(
            View(7),
            7,
            BlockId(Digest::of_u64(6)),
            ReplicaId(3),
            Payload::inline(txs(8_000, 0)),
            true,
        )),
        false,
    );
    let small = [codec_probe(budget, &vote), codec_probe(budget, &ack)];
    let bulk = [
        codec_probe(budget, &microblock),
        codec_probe(budget, &propose),
    ];
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let per_kib = |ns: f64, bytes: usize| ns / (bytes as f64 / 1024.0);
    out.push((
        "replica.codec.enc_small_ns".into(),
        mean(&small.map(|p| p.0)),
    ));
    out.push((
        "replica.codec.dec_small_ns".into(),
        mean(&small.map(|p| p.1)),
    ));
    out.push((
        "replica.codec.enc_bulk_ns_per_kib".into(),
        mean(&bulk.map(|p| per_kib(p.0, p.2))),
    ));
    out.push((
        "replica.codec.dec_bulk_ns_per_kib".into(),
        mean(&bulk.map(|p| per_kib(p.1, p.2))),
    ));
    // The simulator charges `wire_size()`; the socket sends the frame.
    let worst = small
        .iter()
        .chain(&bulk)
        .map(|p| (p.3 as f64 - p.2 as f64).abs() / p.2 as f64 * 100.0)
        .fold(0.0, f64::max);
    out.push(("replica.codec.model_err_pct".into(), worst));
}

// ----- net ------------------------------------------------------------

#[derive(Clone, Debug)]
struct EchoMsg(Vec<u8>);

impl SimMessage for EchoMsg {
    fn wire_size(&self) -> usize {
        4 + self.0.len()
    }
    fn kind(&self) -> &'static str {
        "echo"
    }
}

impl WireMsg for EchoMsg {
    const HEADER_BYTES: usize = 4;

    fn encode(&self) -> Vec<u8> {
        let mut frame = Vec::with_capacity(4 + self.0.len());
        frame.extend_from_slice(&(self.0.len() as u32).to_be_bytes());
        frame.extend_from_slice(&self.0);
        frame
    }

    fn body_len(header: &[u8]) -> Result<usize, WireError> {
        let len: [u8; 4] = header
            .try_into()
            .map_err(|_| WireError::other("short echo header"))?;
        let len = u32::from_be_bytes(len) as usize;
        if len > 1 << 20 {
            return Err(WireError::other("echo frame too long"));
        }
        Ok(len)
    }

    fn decode(_header: &[u8], body: &[u8]) -> Result<Self, WireError> {
        Ok(EchoMsg(body.to_vec()))
    }
}

/// The trivial node: returns every frame; node 0 serves `window` frames.
struct EchoNode {
    window: usize,
    payload: usize,
    echoed: u64,
}

impl Node for EchoNode {
    type Msg = EchoMsg;
    fn on_start(&mut self, ctx: &mut NodeCtx<'_, EchoMsg>) {
        if ctx.id() == ReplicaId(0) {
            for _ in 0..self.window {
                ctx.send(ReplicaId(1), EchoMsg(vec![0xA5; self.payload]));
            }
        }
    }
    fn on_message(&mut self, ctx: &mut NodeCtx<'_, EchoMsg>, from: ReplicaId, msg: EchoMsg) {
        self.echoed += 1;
        ctx.send(from, msg);
    }
    fn on_timer(&mut self, _: &mut NodeCtx<'_, EchoMsg>, _: TimerTag) {}
}

/// Frames per second through two runtimes bouncing `window` frames of
/// `payload` bytes: the runtime alone, no protocol.  0 when the pair
/// could not form.
fn echo_frames_per_s(budget: Budget, window: usize, payload: usize) -> f64 {
    let horizon = budget.min_time.max(Duration::from_millis(100));
    let mut samples = Vec::new();
    for _ in 0..budget.reps {
        let Ok(listeners) = (0..2)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<Result<Vec<_>, _>>()
        else {
            continue;
        };
        let Ok(addrs) = listeners
            .iter()
            .map(TcpListener::local_addr)
            .collect::<Result<Vec<_>, _>>()
        else {
            continue;
        };
        drop(listeners);
        let reports: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2u32)
                .map(|i| {
                    let addrs = addrs.clone();
                    s.spawn(move || {
                        let node = EchoNode {
                            window,
                            payload,
                            echoed: 0,
                        };
                        let mut spec = ClusterSpec::new(ReplicaId(i), addrs, 7);
                        spec.connect_timeout = Duration::from_secs(3);
                        NetRuntime::new(node, spec, Telemetry::disabled())
                            .run(horizon.as_micros() as u64)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("echo thread panicked"))
                .collect()
        });
        let frames: u64 = reports.iter().flatten().map(|r| r.node.echoed).sum();
        if reports.iter().all(Result::is_ok) {
            samples.push(frames as f64 / horizon.as_secs_f64());
        }
    }
    median(&samples).unwrap_or(0.0)
}

// ----- everything ------------------------------------------------------

/// Runs every layer probe.
pub fn run_all(budget: Budget) -> Values {
    let mut out: Values = Vec::new();

    out.push((
        "simnet.probe.ping_events_per_s".into(),
        sim_events_per_s(budget, || vec![PingNode, PingNode], 100_000),
    ));
    out.push((
        "simnet.probe.bcast128k_events_per_s".into(),
        sim_events_per_s(budget, || (0..16).map(|_| BroadcastNode).collect(), 10_000),
    ));

    codec_probes(budget, &mut out);

    let sys = system(16);
    let mut base = 0u64;
    let mut fresh_txs = |n: usize| {
        base += n as u64;
        txs(n, base)
    };

    let mut batcher = TxBatcher::new(ReplicaId(0), sys.mempool);
    out.push((
        "mempool.probe.batcher_ns_per_tx".into(),
        measure(
            budget,
            || fresh_txs(1_000),
            |batch| {
                black_box(batcher.add(0, batch));
                1_000
            },
        ),
    ));

    // PAB: n = 16, quorum f + 1 = 6.
    let keys = KeyPair::derive_all(sys.seed, 16);
    let quorum = sys.f + 1;
    out.push((
        "core.probe.pab_ack_ns".into(),
        measure(
            budget,
            || {
                let mb = Microblock::seal(ReplicaId(0), fresh_txs(8), 0);
                let mut pab = PabEngine::new(sys.seed, 16, ReplicaId(0), quorum, 0.5);
                pab.start_push(&mb, 0, None);
                let acks: Vec<Signature> = (1..quorum as u32 - 1)
                    .map(|i| Signature::sign(&keys[i as usize].secret, &mb.id.digest()))
                    .collect();
                (pab, mb.id, acks)
            },
            |(mut pab, id, acks)| {
                let n = acks.len() as u64;
                for sig in acks {
                    black_box(pab.on_ack(id, sig, 1));
                }
                n
            },
        ),
    ));
    let proven = Microblock::seal(ReplicaId(0), fresh_txs(8), 0);
    let proof = QuorumProof::from_signatures(
        proven.id.digest(),
        (0..quorum).map(|i| Signature::sign(&keys[i].secret, &proven.id.digest())),
    );
    let pab = PabEngine::new(sys.seed, 16, ReplicaId(0), quorum, 0.5);
    out.push((
        "core.probe.pab_verify_ns".into(),
        measure(
            budget,
            || (),
            |()| {
                black_box(pab.verify_proof(black_box(&proven.id), black_box(&proof)))
                    .expect("own proof verifies");
                1
            },
        ),
    ));

    let mut rng = SmallRng::seed_from_u64(1);
    out.push((
        "core.probe.shs_ingest_ns_per_tx".into(),
        measure(
            budget,
            || {
                (
                    StratusMempool::new(&sys, StratusConfig::default(), ReplicaId(0)),
                    fresh_txs(4_000),
                )
            },
            |(mut mempool, batch)| {
                black_box(mempool.on_client_txs(0, batch, &mut rng));
                4_000
            },
        ),
    ));

    out.push((
        "types.probe.mb_seal_ns_per_tx".into(),
        measure(
            budget,
            || fresh_txs(1_000),
            |batch| {
                black_box(Microblock::seal(ReplicaId(0), batch, 0));
                1_000
            },
        ),
    ));

    let sys4 = SystemConfig::new(4);
    out.push((
        "consensus.probe.hotstuff_step_ns".into(),
        measure(
            budget,
            || {
                let mut net = EngineNet::new(
                    (0..4u32)
                        .map(|i| HotStuffEngine::new(&sys4, ReplicaId(i)))
                        .collect(),
                );
                net.start();
                net
            },
            |mut net| net.run(2_000) as u64,
        ),
    ));

    let small = echo_frames_per_s(budget, 16, 64);
    let bulk = echo_frames_per_s(budget, 4, 256 * 1024);
    out.push(("net.probe.echo_frames_per_s".into(), small));
    out.push((
        "net.probe.echo_mib_per_s".into(),
        bulk * (256.0 * 1024.0 + 4.0) / (1024.0 * 1024.0),
    ));

    let buffer = vec![0x5Au8; 64 * 1024];
    out.push((
        "crypto.probe.digest_ns_per_kib".into(),
        measure(
            budget,
            || (),
            |()| {
                black_box(Digest::of_bytes(black_box(&buffer)));
                64
            },
        ),
    ));
    let digest = Digest::of_u64(99);
    out.push((
        "crypto.probe.sign_ns".into(),
        measure(
            budget,
            || (),
            |()| {
                for _ in 0..100 {
                    black_box(Signature::sign(
                        black_box(&keys[1].secret),
                        black_box(&digest),
                    ));
                }
                100
            },
        ),
    ));
    let sig = Signature::sign(&keys[1].secret, &digest);
    out.push((
        "crypto.probe.verify_ns".into(),
        measure(
            budget,
            || (),
            |()| {
                for _ in 0..100 {
                    black_box(black_box(&sig).verify(&keys[1].public, black_box(&digest)));
                }
                100
            },
        ),
    ));

    // Sharded ingest at k = 4, the `S-HS.k4` stack, under both executors.
    let sharded = sys.clone().with_shards(4);
    let shard_of = |_: usize, cfg: &SystemConfig| {
        StratusMempool::new(cfg, StratusConfig::default(), ReplicaId(0))
    };
    out.push((
        "shard.probe.ingest_seq_ns_per_tx".into(),
        measure(
            budget,
            || {
                (
                    ShardedMempool::sequential(&sharded, 4, 0, shard_of),
                    fresh_txs(4_000),
                )
            },
            |(mut mempool, batch)| {
                black_box(mempool.on_client_txs(0, batch, &mut rng));
                4_000
            },
        ),
    ));
    out.push((
        "shard.probe.ingest_par_ns_per_tx".into(),
        measure(
            budget,
            || {
                (
                    ShardedMempool::parallel(&sharded, 4, 0, shard_of),
                    fresh_txs(4_000),
                )
            },
            |(mut mempool, batch)| {
                black_box(mempool.on_client_txs(0, batch, &mut rng));
                4_000
            },
        ),
    ));

    let mut factory = TxFactory::new(ReplicaId(0), 128);
    let mut now = 0u64;
    out.push((
        "workload.probe.txgen_ns_per_tx".into(),
        measure(
            budget,
            || (),
            |()| {
                now += 5_000;
                black_box(factory.tick(now, 5_000, 200_000.0)).len() as u64
            },
        ),
    ));

    out.push((
        "metrics.probe.hist_record_ns".into(),
        measure(budget, LatencyHistogram::new, |mut hist| {
            for i in 0..1_000u64 {
                hist.record(black_box(1_000 + (i * 7_919) % 997));
            }
            black_box(hist);
            1_000
        }),
    ));

    for (name, telemetry) in [
        ("telemetry.probe.span_ns", Telemetry::new()),
        ("telemetry.probe.span_off_ns", Telemetry::disabled()),
    ] {
        out.push((
            name.into(),
            measure(
                budget,
                || (),
                |()| {
                    for _ in 0..1_000 {
                        drop(black_box(telemetry.span("probe")));
                    }
                    1_000
                },
            ),
        ));
    }
    out
}
