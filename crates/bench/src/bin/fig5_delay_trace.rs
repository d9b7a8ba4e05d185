//! Figure 5: inter-datacenter round-trip delay stability (synthetic trace
//! with the statistical shape of the paper's Virginia ↔ Singapore
//! measurements).

use smp_bench::{header, BenchRecorder, Scale};
use smp_workload::{DelayTrace, TraceConfig};

fn main() {
    let scale = Scale::from_args();
    header(
        "Figure 5 — WAN round-trip delay stability (synthetic trace)",
        scale,
    );
    let config = TraceConfig {
        minutes: scale.pick(120, 1_440),
        samples_per_minute: scale.pick(1_000, 4_000),
    };
    let trace = DelayTrace::generate(config, 2023);

    println!("\n(a) heat map: samples per 1 ms bin, aggregated over the whole trace");
    for (bin, count) in trace.histogram_1ms() {
        let bar = "#".repeat(((count as f64).log10() * 8.0).max(1.0) as usize);
        println!("  {bin:>4} ms  {count:>9}  {bar}");
    }

    println!("\n(b) distribution within one minute (minute 12h equivalent)");
    let minute = trace.samples.len() / 2;
    for p in [1.0, 25.0, 50.0, 75.0, 99.0] {
        println!("  p{p:<4} = {:.2} ms", trace.minute_percentile(minute, p));
    }
    println!("\nmean over the trace: {:.2} ms", trace.mean_ms());
    let mut rec = BenchRecorder::from_args("fig5_delay_trace", scale);
    rec.metric("trace", "mean_ms", trace.mean_ms());
    rec.metric("trace", "p50_ms", trace.minute_percentile(minute, 50.0));
    rec.metric("trace", "p99_ms", trace.minute_percentile(minute, 99.0));
    rec.finish();
    println!(
        "=> delays are stable and predictable, which is what the stable-time estimator relies on."
    );
}
