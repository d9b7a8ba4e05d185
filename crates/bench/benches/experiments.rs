//! End-to-end experiment benchmarks: small versions of the paper's
//! headline comparison (Figure 7's 16-replica point) run under Criterion
//! so `cargo bench` exercises the full stack.  The paper-scale sweeps are
//! produced by the `fig*`/`table*` binaries in `src/bin/` (see the README's
//! "Figure / table harnesses" section).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smp_replica::{run, ExperimentConfig, Protocol};

fn bench_protocol_comparison(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end_n16_lan");
    group.sample_size(10);
    for protocol in [
        Protocol::NativeHotStuff,
        Protocol::SmpHotStuff,
        Protocol::StratusHotStuff,
        Protocol::StratusPbft,
    ] {
        group.bench_with_input(
            BenchmarkId::new("protocol", protocol.label()),
            &protocol,
            |b, &protocol| {
                b.iter(|| {
                    let cfg = ExperimentConfig::new(protocol, 16, 10_000.0)
                        .with_duration(500_000, 1_500_000)
                        .with_batch_size(32 * 1024);
                    run(&cfg).committed_txs
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_protocol_comparison);
criterion_main!(benches);
