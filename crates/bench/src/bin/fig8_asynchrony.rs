//! Figure 8: throughput timeline while a 10-second network fluctuation
//! (delays of 100–300 ms) is injected — SMP-HS vs S-HS at a fixed offered
//! rate of 25 KTx/s in the WAN setting.

use simnet::{FaultAction, FaultSchedule};
use smp_bench::{header, BenchRecorder, Scale};
use smp_replica::{run, ExperimentConfig, Protocol};
use smp_types::MICROS_PER_SEC;

fn main() {
    let scale = Scale::from_args();
    header(
        "Figure 8 — throughput under a network fluctuation (WAN)",
        scale,
    );

    let n = scale.pick(16, 32);
    let rate = scale.pick(10_000.0, 25_000.0);
    let total_secs = scale.pick(15u64, 30u64);
    let fluct_start = scale.pick(5u64, 10u64);
    let fluct_len = scale.pick(5u64, 10u64);
    let fluctuation = FaultSchedule::new().at(
        fluct_start * MICROS_PER_SEC,
        FaultAction::Fluctuation {
            duration: fluct_len * MICROS_PER_SEC,
            min_us: 100_000,
            max_us: 300_000,
        },
    );

    let mut rec = BenchRecorder::from_args("fig8_asynchrony", scale);
    let mut series = Vec::new();
    for protocol in [Protocol::SmpHotStuff, Protocol::StratusHotStuff] {
        let cfg = ExperimentConfig::new(protocol, n, rate)
            .wan()
            .with_duration(0, total_secs * MICROS_PER_SEC)
            .with_faults(fluctuation.clone());
        let r = run(&cfg);
        println!(
            "{}: total committed = {}, view changes = {}",
            protocol.label(),
            r.committed_txs,
            r.view_changes
        );
        rec.result(protocol.label(), &r);
        series.push((protocol.label(), r.throughput_series.clone()));
    }
    rec.finish();

    println!(
        "\nper-second committed throughput (KTx/s); fluctuation during t = {fluct_start}..{} s",
        fluct_start + fluct_len
    );
    println!("{:<6} {:>12} {:>12}", "t (s)", series[0].0, series[1].0);
    let len = series.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
    for t in 0..len {
        let a = series[0].1.get(t).copied().unwrap_or(0.0) / 1_000.0;
        let b = series[1].1.get(t).copied().unwrap_or(0.0) / 1_000.0;
        let marker = if (t as u64) >= fluct_start && (t as u64) < fluct_start + fluct_len {
            "  <-- fluctuation"
        } else {
            ""
        };
        println!("{t:<6} {a:>12.1} {b:>12.1}{marker}");
    }
    println!(
        "\nExpected shape (paper Figure 8): SMP-HS drops to ~0 during the fluctuation (missing"
    );
    println!("microblocks block consensus, view changes fire) and recovers slowly; S-HS keeps");
    println!("committing at network speed with no view changes.");
}
