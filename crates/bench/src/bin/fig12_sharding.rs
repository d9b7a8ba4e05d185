//! Figure 12 (extension): throughput vs. shard count for the sharded
//! shared mempool (`smp-shard`).
//!
//! Runs Stratus-HotStuff and Narwhal with k ∈ {1, 2, 4, 8} dissemination
//! shards per replica at a saturating offered load and prints a
//! throughput-vs-shards table.  One shard is the unwrapped backend
//! (pass-through), so the k = 1 row doubles as the baseline.  Each
//! point also records its wall-clock time (`seq_wall_secs`).
//!
//! `--quick` is a LAN sanity sweep at n = 8; `--full` is the
//! paper-scale figure-12 setting: the WAN preset (100 Mb/s, 100 ms RTT)
//! at n = 32.  `--net lan|wan` overrides the preset either way.

use smp_bench::{arg_value, header, print_point, rate_grid, saturated, BenchRecorder, Scale};
use smp_replica::{ExperimentConfig, Protocol};
use smp_types::MICROS_PER_SEC;
use std::time::Instant;

fn main() {
    let scale = Scale::from_args();
    // Paper-scale fig12 is a WAN experiment; quick mode stays on the LAN
    // so the sanity sweep saturates in seconds.
    let net = arg_value("--net").unwrap_or_else(|| scale.pick("lan", "wan").to_string());
    let wan = net == "wan";
    header(
        &format!(
            "Figure 12 — sharded mempool scaling ({})",
            net.to_uppercase()
        ),
        scale,
    );

    let n = scale.pick(8, 32);
    let shard_counts: Vec<usize> = scale.pick(vec![1, 2, 4], vec![1, 2, 4, 8]);
    let rates = rate_grid(scale, wan);
    let mut rec = BenchRecorder::from_args("fig12_sharding", scale);

    for protocol in [Protocol::StratusHotStuff, Protocol::Narwhal] {
        println!("\n--- {} (n = {n}) ---", protocol.label());
        for &shards in &shard_counts {
            let mut cfg = ExperimentConfig::new(protocol, n, rates[0])
                .with_duration(MICROS_PER_SEC, scale.pick(3, 5) * MICROS_PER_SEC)
                .with_shards(shards);
            if wan {
                cfg = cfg.wan();
            }
            let started = Instant::now();
            let seq = saturated(&cfg, &rates);
            let seq_wall = started.elapsed().as_secs_f64();
            print_point("shards", shards, &seq);
            let label = format!("{}/k={shards}", protocol.label());
            rec.result(&label, &seq);
            rec.metric(&label, "seq_wall_secs", seq_wall);
        }
    }
    rec.finish();
    println!("\nExpected shape: with one shard the sharded wrapper matches the unwrapped");
    println!("backend exactly; as k grows, dissemination work spreads over k independent");
    println!("pipelines per replica, so saturated throughput holds or improves while");
    println!("per-pipeline batching latency rises slightly at low offered load.");
}
