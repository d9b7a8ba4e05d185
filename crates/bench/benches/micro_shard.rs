//! Criterion micro-benchmarks of the sharded mempool hot paths: routing,
//! client-transaction fan-out, and cross-shard payload assembly as the
//! shard count grows.

use criterion::{criterion_group, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use smp_bench::{BenchRecorder, Scale};
use smp_mempool::{Mempool, SimpleSmp};
use smp_shard::{ShardRouter, ShardedMempool};
use smp_types::{ClientId, MempoolConfig, ReplicaId, SystemConfig, Transaction};

fn txs(n: usize, base: u64) -> Vec<Transaction> {
    (0..n)
        .map(|i| Transaction::synthetic(ClientId(1), base + i as u64, 128, 0))
        .collect()
}

fn system(shards: usize) -> SystemConfig {
    SystemConfig::new(16)
        .with_shards(shards)
        .with_mempool(MempoolConfig {
            batch_size_bytes: 16 * 1024,
            ..MempoolConfig::default()
        })
}

fn bench_router(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard_router_1k_txs");
    for shards in [1usize, 4, 16] {
        group.bench_with_input(
            BenchmarkId::new("partition", shards),
            &shards,
            |b, &shards| {
                let router = ShardRouter::new(shards);
                let mut base = 0u64;
                b.iter(|| {
                    base += 1_000;
                    router.partition(txs(1_000, base))
                })
            },
        );
    }
    group.finish();
}

fn bench_sharded_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded_ingest_1k_txs");
    for shards in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("simple_smp", shards),
            &shards,
            |b, &shards| {
                let sys = system(shards);
                let mut rng = SmallRng::seed_from_u64(1);
                let mut mp = ShardedMempool::from_system(&sys, 0, |_, scfg| {
                    SimpleSmp::new(scfg, ReplicaId(0))
                });
                let mut seq = 0u64;
                b.iter(|| {
                    seq += 1_000;
                    mp.on_client_txs(seq, txs(1_000, seq), &mut rng)
                })
            },
        );
    }
    group.finish();
}

fn bench_cross_shard_payload(c: &mut Criterion) {
    let mut group = c.benchmark_group("cross_shard_make_payload");
    for shards in [1usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("assemble", shards),
            &shards,
            |b, &shards| {
                let sys = system(shards);
                let mut rng = SmallRng::seed_from_u64(2);
                let mut mp = ShardedMempool::from_system(&sys, 0, |_, scfg| {
                    SimpleSmp::new(scfg, ReplicaId(0))
                });
                let mut seq = 0u64;
                b.iter(|| {
                    // Keep refilling so every call assembles real content.
                    seq += 2_000;
                    let _ = mp.on_client_txs(seq, txs(2_000, seq), &mut rng);
                    mp.make_payload(seq)
                })
            },
        );
    }
    group.finish();
}

fn bench_executor_comparison(c: &mut Criterion) {
    // Sequential vs parallel executor on the same workload: ingest a
    // large client batch and assemble the cross-shard payload.  The two
    // produce byte-identical results; this measures the wall-clock gain
    // of spreading the pipelines over worker threads once the per-shard
    // work outweighs the inbox hand-off.
    let mut group = c.benchmark_group("executor_ingest_4k_txs");
    for shards in [2usize, 4] {
        for kind in ["sequential", "parallel"] {
            group.bench_with_input(BenchmarkId::new(kind, shards), &shards, |b, &shards| {
                let sys = system(shards);
                let mut rng = SmallRng::seed_from_u64(3);
                let mut mp = if kind == "sequential" {
                    ShardedMempool::sequential(&sys, shards, 0, |_, scfg| {
                        SimpleSmp::new(scfg, ReplicaId(0))
                    })
                } else {
                    ShardedMempool::parallel(&sys, shards, 0, |_, scfg| {
                        SimpleSmp::new(scfg, ReplicaId(0))
                    })
                };
                let mut seq = 0u64;
                b.iter(|| {
                    seq += 4_000;
                    let _ = mp.on_client_txs(seq, txs(4_000, seq), &mut rng);
                    mp.make_payload(seq)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_router,
    bench_sharded_ingest,
    bench_cross_shard_payload,
    bench_executor_comparison
);

// Custom main instead of `criterion_main!`: runs the groups, then exports
// the collected measurements as a `BENCH_micro_shard.json` artifact when
// `--bench-out <path>` is passed (e.g. via
// `cargo bench --bench micro_shard -- --bench-out bench-out/`).
fn main() {
    let mut rec = BenchRecorder::from_args("micro_shard", Scale::from_args());
    benches();
    for r in criterion::take_reports() {
        rec.metric(&r.id, "ns_per_iter", r.ns_per_iter);
    }
    rec.finish();
}
