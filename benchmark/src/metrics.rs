//! The metric registry — every name the benchmark prints, with its unit,
//! direction and (end-to-end only) bound — and the arithmetic that turns
//! executions into values.  `BENCHMARK.json` is generated from this file
//! (`spec` subcommand) and a unit test keeps the two from drifting.

use crate::outcome::RunOutcome;
use crate::probe::{Call, CONSENSUS_CALLS, MEMPOOL_CALLS, NODE_CALLS};
use crate::workloads::{Execution, Runtime};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics: the share of the parent's median by which the
    /// metric may get worse.
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees.  Every workload reports every one:
/// in the simulator `goodput_tps`, `commit_p50_ms` and
/// `wire_bytes_per_tx` are model outputs on the simulated clock; on
/// sockets they are measured on the host.
pub fn end_to_end() -> Vec<MetricDef> {
    let bounded = |name, unit, better, bound| MetricDef {
        bound: Some(bound),
        ..def(name, unit, better)
    };
    vec![
        bounded("setup_s", "s", Lower, 0.25),
        bounded("goodput_tps", "tx/s", Higher, 0.20),
        bounded("commit_p50_ms", "ms", Lower, 0.25),
        bounded("cpu_us_per_tx", "us/tx", Lower, 0.25),
        bounded("wire_bytes_per_tx", "B/tx", Lower, 0.20),
        bounded("peak_rss_mb", "MiB", Lower, 0.10),
    ]
}

/// Row labels of `sim_matrix_n16`, the `model.<label>.*` guards.
pub const MODEL_LABELS: [&str; 12] = [
    "N-HS", "N-PBFT", "SMP-HS", "SMP-HS-G", "S-HS", "S-PBFT", "S-SL", "Narwhal", "MirBFT", "D-HS",
    "D-HS-F", "S-HS.k4",
];

/// Names of the layer probes (`micro.rs`), in the order they run.
pub const PROBE_METRICS: [(&str, &str, Better); 24] = [
    ("simnet.probe.ping_events_per_s", "1/s", Higher),
    ("simnet.probe.bcast128k_events_per_s", "1/s", Higher),
    ("replica.codec.enc_small_ns", "ns", Lower),
    ("replica.codec.dec_small_ns", "ns", Lower),
    ("replica.codec.enc_bulk_ns_per_kib", "ns/KiB", Lower),
    ("replica.codec.dec_bulk_ns_per_kib", "ns/KiB", Lower),
    ("replica.codec.model_err_pct", "%", Lower),
    ("mempool.probe.batcher_ns_per_tx", "ns/tx", Lower),
    ("core.probe.pab_ack_ns", "ns", Lower),
    ("core.probe.pab_verify_ns", "ns", Lower),
    ("core.probe.shs_ingest_ns_per_tx", "ns/tx", Lower),
    ("types.probe.mb_seal_ns_per_tx", "ns/tx", Lower),
    ("consensus.probe.hotstuff_step_ns", "ns", Lower),
    ("net.probe.echo_frames_per_s", "1/s", Higher),
    ("net.probe.echo_mib_per_s", "MiB/s", Higher),
    ("crypto.probe.digest_ns_per_kib", "ns/KiB", Lower),
    ("crypto.probe.sign_ns", "ns", Lower),
    ("crypto.probe.verify_ns", "ns", Lower),
    ("shard.probe.ingest_seq_ns_per_tx", "ns/tx", Lower),
    ("shard.probe.ingest_par_ns_per_tx", "ns/tx", Lower),
    ("workload.probe.txgen_ns_per_tx", "ns/tx", Lower),
    ("metrics.probe.hist_record_ns", "ns", Lower),
    ("telemetry.probe.span_ns", "ns", Lower),
    ("telemetry.probe.span_off_ns", "ns", Lower),
];

/// Single-layer metrics, reported by the traced run.  A metric that does
/// not apply to a workload (`net.*` in the simulator, `simnet.*` on
/// sockets, probes when they were not run) reads 0.
pub fn per_layer() -> Vec<MetricDef> {
    let mut v = vec![
        def("simnet.events", "count", Lower),
        def("simnet.events_per_s", "1/s", Higher),
        def("simnet.events_per_ktx", "count", Lower),
        def("simnet.self_share", "share", Lower),
        def("simnet.msgs_per_ktx", "count", Lower),
        def("simnet.bytes_per_ktx", "B", Lower),
        def("simnet.wall_s_per_sim_s", "s/s", Lower),
        def("replica.self_us_per_ktx", "us", Lower),
        def("replica.commit_p99_ms", "ms", Lower),
        def("replica.view_changes", "count", Lower),
    ];
    for call in MEMPOOL_CALLS {
        v.push(def(&us_per_ktx_name(call), "us", Lower));
    }
    v.extend([
        def("mempool.calls_per_ktx", "count", Lower),
        def("mempool.dup_commit_share", "share", Lower),
        def("mempool.fill_wait_share", "share", Lower),
        def("mempool.fetches_per_ktx", "count", Lower),
        def("types.mb_id_derivations_per_mb", "count", Lower),
    ]);
    for call in [
        Call::CsMessage,
        Call::CsPayload,
        Call::CsVerdict,
        Call::CsTimer,
    ] {
        v.push(def(&us_per_ktx_name(call), "us", Lower));
    }
    v.extend([
        def("consensus.views_per_s", "1/s", Higher),
        def("consensus.empty_view_share", "share", Lower),
        def("consensus.gap_share", "share", Lower),
        def("consensus.stall_ms", "ms", Lower),
        def("consensus.height_collisions", "count", Lower),
        def("consensus.sibling_commits", "count", Lower),
        def("net.frames_per_ktx", "count", Lower),
        def("net.bytes_per_frame", "B", Higher),
        def("net.cpu_us_per_frame", "us", Lower),
        def("net.self_cpu_share", "share", Lower),
        def("net.cpu_cores", "cores", Lower),
        def("net.queue_hwm", "count", Lower),
        def("net.enqueue_stalls", "count", Lower),
        def("net.reconnects", "count", Lower),
        def("net.frame_errors", "count", Lower),
        def("workload.offered_share", "share", Higher),
    ]);
    for (name, unit, better) in PROBE_METRICS {
        v.push(def(name, unit, better));
    }
    for label in MODEL_LABELS {
        v.push(def(&format!("model.{label}.goodput_tps"), "tx/s", Higher));
        v.push(def(&format!("model.{label}.p50_ms"), "ms", Lower));
        v.push(def(&format!("model.{label}.wall_s"), "s", Lower));
    }
    v.extend([
        def("bench.failed_share", "share", Lower),
        def("bench.trace_overhead_share", "share", Lower),
        def("bench.host_speed", "share", Higher),
        def("bench.clock_skew_us", "us", Lower),
        def("bench.setup_retries", "count", Lower),
    ]);
    v
}

/// `mempool.on_commit` → `mempool.on_commit_us_per_ktx`.
fn us_per_ktx_name(call: Call) -> String {
    format!("{}_us_per_ktx", call.name())
}

pub type Values = Vec<(String, f64)>;

/// The value reported under `name`, 0 when there is none.
pub fn value_of(values: &Values, name: &str) -> f64 {
    values
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| *v)
}

fn succeeded(p: &RunOutcome) -> f64 {
    p.ledger.succeeded as f64
}

/// The end-to-end metrics of an untraced execution (`peak_rss_mb` is the
/// caller's: it belongs to the process, not the execution).
pub fn end_to_end_values(exec: &Execution, peak_rss_mb: f64) -> Values {
    vec![
        ("setup_s".into(), exec.setup_s()),
        ("goodput_tps".into(), exec.ratio(succeeded, |p| p.window_s)),
        (
            "commit_p50_ms".into(),
            exec.latency_ms(|p| &p.latency, 50.0),
        ),
        (
            "cpu_us_per_tx".into(),
            exec.ratio(|p| p.cpu_s * 1e6, succeeded),
        ),
        (
            "wire_bytes_per_tx".into(),
            exec.ratio(|p| p.wire_bytes as f64, succeeded),
        ),
        ("peak_rss_mb".into(), peak_rss_mb),
    ]
}

fn nanos(p: &RunOutcome, calls: &[Call]) -> f64 {
    p.stats.nanos_of(calls) as f64
}

/// Self time of each layer in seconds, summed over the parts of a traced
/// execution.  By construction the rows add up to `total_s`: wall in the
/// simulator (one thread), process CPU on sockets.
pub struct SelfTimes {
    pub total_s: f64,
    /// `simnet` or `net`: everything outside the node handlers.
    pub runtime_s: f64,
    pub replica_s: f64,
    pub mempool_s: f64,
    pub consensus_s: f64,
}

pub fn self_times(exec: &Execution) -> SelfTimes {
    let total_s = match exec.runtime {
        Runtime::Simulator => exec.sum(|p| p.wall_s),
        Runtime::Sockets => exec.sum(|p| p.cpu_s),
    };
    let node_s = exec.sum(|p| nanos(p, &NODE_CALLS)) / 1e9;
    let mempool_s = exec.sum(|p| nanos(p, &MEMPOOL_CALLS)) / 1e9;
    let consensus_s = exec.sum(|p| nanos(p, &CONSENSUS_CALLS)) / 1e9;
    SelfTimes {
        total_s,
        runtime_s: total_s - node_s,
        replica_s: node_s - mempool_s - consensus_s,
        mempool_s,
        consensus_s,
    }
}

/// The per-layer metrics of a traced execution.  `untraced` is the same
/// work with clocks off, for the tracing overhead; `probes` the layer
/// probe results (empty when they were not run).
pub fn per_layer_values(traced: &Execution, untraced: &Execution, probes: &Values) -> Values {
    let ktx = |p: &RunOutcome| succeeded(p) / 1e3;
    let sim = traced.runtime == Runtime::Simulator;
    let only = |applies: bool, v: f64| if applies { v } else { 0.0 };
    let times = self_times(traced);
    let mut v: Values = Vec::new();
    let mut put = |name: &str, value: f64| v.push((name.to_string(), value));

    put("simnet.events", traced.sum(|p| p.events as f64));
    put(
        "simnet.events_per_s",
        // Clocks off: the traced run's own event rate includes the probes.
        untraced.ratio(|p| p.events as f64, |p| p.wall_s),
    );
    put(
        "simnet.events_per_ktx",
        traced.ratio(|p| p.events as f64, ktx),
    );
    put(
        "simnet.self_share",
        only(sim, times.runtime_s / times.total_s),
    );
    put(
        "simnet.msgs_per_ktx",
        only(sim, traced.ratio(|p| p.wire_msgs as f64, ktx)),
    );
    put(
        "simnet.bytes_per_ktx",
        only(sim, traced.ratio(|p| p.wire_bytes as f64, ktx)),
    );
    put(
        "simnet.wall_s_per_sim_s",
        only(sim, untraced.ratio(|p| p.wall_s, |p| p.horizon_s)),
    );
    put(
        "replica.self_us_per_ktx",
        times.replica_s * 1e6 / traced.sum(ktx).max(1e-9),
    );
    put(
        "replica.commit_p99_ms",
        traced.latency_ms(
            |p| {
                if sim {
                    &p.latency
                } else {
                    &p.executed_latency
                }
            },
            99.0,
        ),
    );
    put(
        "replica.view_changes",
        traced.sum(|p| p.view_changes as f64),
    );
    for call in MEMPOOL_CALLS {
        put(
            &us_per_ktx_name(call),
            traced.ratio(|p| nanos(p, &[call]) / 1e3, ktx),
        );
    }
    put(
        "mempool.calls_per_ktx",
        traced.ratio(|p| p.stats.calls_of(&MEMPOOL_CALLS) as f64, ktx),
    );
    put(
        "mempool.dup_commit_share",
        traced.ratio(
            |p| p.ledger.committed_dup as f64,
            |p| p.ledger.committed_all as f64,
        ),
    );
    put(
        "mempool.fill_wait_share",
        traced.ratio(
            |p| p.must_waits as f64,
            |p| p.stats.calls_of(&[Call::MpProposal]) as f64,
        ),
    );
    put(
        "mempool.fetches_per_ktx",
        traced.ratio(|p| p.fetches as f64, ktx),
    );
    put(
        "types.mb_id_derivations_per_mb",
        only(
            sim,
            traced.ratio(
                |p| p.mb_derivations as f64,
                |p| p.created_microblocks as f64,
            ),
        ),
    );
    for call in [
        Call::CsMessage,
        Call::CsPayload,
        Call::CsVerdict,
        Call::CsTimer,
    ] {
        put(
            &us_per_ktx_name(call),
            traced.ratio(|p| nanos(p, &[call]) / 1e3, ktx),
        );
    }
    put(
        "consensus.views_per_s",
        traced.ratio(|p| p.max_view as f64, |p| p.horizon_s),
    );
    put(
        "consensus.empty_view_share",
        traced.ratio(
            |p| p.empty_payloads as f64,
            |p| p.stats.calls_of(&[Call::CsPayload]) as f64,
        ),
    );
    put(
        "consensus.gap_share",
        // Mean over rows, median over clusters.
        traced.ratio(|p| p.ledger.gap_share, |_| 1.0),
    );
    put(
        "consensus.stall_ms",
        traced.max(|p| p.ledger.stall_us as f64 / 1e3),
    );
    put(
        "consensus.height_collisions",
        traced.sum(|p| p.height_collisions as f64),
    );
    put(
        "consensus.sibling_commits",
        traced.sum(|p| p.sibling_commits as f64),
    );

    let frames = |p: &RunOutcome| p.wire_msgs as f64;
    put("net.frames_per_ktx", only(!sim, traced.ratio(frames, ktx)));
    put(
        "net.bytes_per_frame",
        only(!sim, traced.ratio(|p| p.wire_bytes as f64, frames)),
    );
    let net_self_cpu = |p: &RunOutcome| p.cpu_s - nanos(p, &NODE_CALLS) / 1e9;
    put(
        "net.cpu_us_per_frame",
        only(!sim, traced.ratio(|p| net_self_cpu(p) * 1e6, frames)),
    );
    put(
        "net.self_cpu_share",
        only(!sim, times.runtime_s / times.total_s),
    );
    put(
        "net.cpu_cores",
        only(!sim, untraced.ratio(|p| p.cpu_s, |p| p.wall_s)),
    );
    put("net.queue_hwm", traced.max(|p| p.queue_hwm as f64));
    put(
        "net.enqueue_stalls",
        traced.sum(|p| p.enqueue_stalls as f64),
    );
    put("net.reconnects", traced.sum(|p| p.reconnects as f64));
    put(
        "net.frame_errors",
        traced.sum(|p| (p.frame_errors.len() + p.peer_errors.len()) as f64),
    );
    put(
        "workload.offered_share",
        traced.ratio(
            |p| p.ledger.generated_on_time as f64,
            |p| p.scheduled_txs as f64,
        ),
    );
    for (name, _, _) in PROBE_METRICS {
        put(name, value_of(probes, name));
    }
    for label in MODEL_LABELS {
        // Exact-repeat guards: model outputs of the untraced rows.
        let row = untraced.parts.iter().find(|p| sim && p.label == label);
        put(
            &format!("model.{label}.goodput_tps"),
            row.map_or(0.0, |p| succeeded(p) / p.window_s),
        );
        put(
            &format!("model.{label}.p50_ms"),
            row.and_then(|p| p.latency.clone().percentile_ms(50.0))
                .unwrap_or(0.0),
        );
        put(
            &format!("model.{label}.wall_s"),
            row.map_or(0.0, |p| p.wall_s),
        );
    }
    put(
        "bench.failed_share",
        if traced.attempted() == 0 {
            0.0
        } else {
            traced.failed() as f64 / traced.attempted() as f64
        },
    );
    // Same work, clocks on against clocks off, in CPU time (which the
    // simulator rows report at reference-host speed).
    let cost = |e: &Execution| e.sum(|p| p.cpu_s);
    put(
        "bench.trace_overhead_share",
        if cost(untraced) > 0.0 {
            cost(traced) / cost(untraced) - 1.0
        } else {
            0.0
        },
    );
    // How fast the host ran next to the reference host while the
    // simulator rows were measured (1 on sockets: not normalised).
    put(
        "bench.host_speed",
        traced.ratio(|p| p.cpu_s, |p| p.cpu_raw_s),
    );
    // One simulated clock has no skew; on sockets every replica starts
    // its own.
    put(
        "bench.clock_skew_us",
        only(!sim, traced.max(|p| p.clock_skew_us)),
    );
    put(
        "bench.setup_retries",
        traced.sum(|p| p.setup_retries as f64) + untraced.sum(|p| p.setup_retries as f64),
    );
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn registry_names_and_units_meet_the_contract() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer metrics",
            layers.len()
        );
        let mut seen = std::collections::HashSet::new();
        for m in e2e.iter().chain(&layers) {
            assert!(valid_name(&m.name), "bad name {}", m.name);
            assert!(valid_unit(m.unit), "bad unit {} of {}", m.unit, m.name);
            assert!(seen.insert(m.name.clone()), "{} is used twice", m.name);
        }
        for m in &e2e {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
        let setup = e2e.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }
}
