//! The workspace's perf gate: `bench_gate <baseline.json> <candidate.json>`.
//!
//! One rule, no options.  What the harness bins record is simulated, so a
//! seed reproduces it bit for bit: every point and metric of the baseline
//! must be in the candidate with the same `f64` bits.  Drift in either
//! direction is a behaviour change — a refactor's licence is "the gate
//! says equal", a deliberate change re-records the baseline and says so.
//! Host-time metrics ([`is_host_time`]) are printed and never compared;
//! points and metrics only the candidate has are new coverage, not drift.
//!
//! Exit codes: 0 equal, 1 drift, 2 usage / unreadable artifact / schema
//! mismatch.

use smp_bench::{is_host_time, BenchArtifact};

const USAGE: &str = "usage: bench_gate <baseline.json> <candidate.json>";

/// The two artifact paths.  Anything that looks like a flag is a usage
/// error: the gate has no knobs.
fn parse_args(args: &[String]) -> Result<(&str, &str), String> {
    if let Some(flag) = args.iter().find(|a| a.starts_with('-')) {
        return Err(format!("unknown flag '{flag}'"));
    }
    match args {
        [baseline, candidate] => Ok((baseline, candidate)),
        _ => Err(format!(
            "expected exactly 2 artifact paths, got {}",
            args.len()
        )),
    }
}

/// What comparing a candidate against a baseline found.
#[derive(Debug, Default)]
struct Verdict {
    /// Metrics found bit-equal.
    equal: usize,
    /// Host-time metrics, as `label/key: baseline -> candidate`.
    host_time: Vec<String>,
    /// One line per baseline point or metric the candidate lacks or
    /// reproduces with different bits.
    drift: Vec<String>,
}

fn compare(baseline: &BenchArtifact, candidate: &BenchArtifact) -> Verdict {
    let mut v = Verdict::default();
    for bp in &baseline.points {
        let Some(cp) = candidate.point(&bp.label) else {
            v.drift
                .push(format!("{}: point missing from candidate", bp.label));
            continue;
        };
        for (key, base) in &bp.metrics {
            let id = format!("{}/{key}", bp.label);
            match cp.metrics.get(key) {
                None => v.drift.push(format!("{id}: missing from candidate")),
                Some(cand) if is_host_time(key) => {
                    v.host_time.push(format!("{id}: {base} -> {cand}"));
                }
                Some(cand) if cand.to_bits() == base.to_bits() => v.equal += 1,
                Some(cand) => v.drift.push(format!("{id}: {base} -> {cand}")),
            }
        }
    }
    v
}

/// The command that regenerates `baseline` in place, from the arguments
/// the artifact says it was recorded with.
fn rerecord_command(baseline: &BenchArtifact) -> String {
    format!(
        "cargo run --release -p smp-bench --bin {} -- {}",
        baseline.name,
        baseline.args.join(" ")
    )
}

fn load(path: &str) -> BenchArtifact {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_gate: cannot read {path}: {e}");
        std::process::exit(2);
    });
    BenchArtifact::parse(&text).unwrap_or_else(|e| {
        eprintln!("bench_gate: cannot parse {path}: {e:?}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (baseline, candidate) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("bench_gate: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let baseline = load(baseline);
    let candidate = load(candidate);
    if baseline.schema != candidate.schema {
        eprintln!(
            "bench_gate: schema mismatch (baseline v{}, candidate v{})",
            baseline.schema, candidate.schema
        );
        std::process::exit(2);
    }

    println!(
        "bench_gate: {} — baseline {:?} ({} points) vs candidate {:?} ({} points)",
        baseline.name,
        baseline.git_rev,
        baseline.points.len(),
        candidate.git_rev,
        candidate.points.len()
    );
    let verdict = compare(&baseline, &candidate);
    for line in &verdict.host_time {
        println!("  (host time, not compared) {line}");
    }
    if verdict.drift.is_empty() {
        println!("bench_gate: PASS ({} metrics equal)", verdict.equal);
        return;
    }
    eprintln!(
        "bench_gate: FAIL — {} of {} metrics drifted or went missing:",
        verdict.drift.len(),
        verdict.drift.len() + verdict.equal
    );
    for line in &verdict.drift {
        eprintln!("  {line}");
    }
    eprintln!(
        "a refactor must not move these; after a deliberate behaviour change re-record with\n  {}",
        rerecord_command(&baseline)
    );
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use smp_bench::BenchPoint;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// An artifact with one fig7-like point.
    fn artifact(metrics: &[(&str, f64)]) -> BenchArtifact {
        let mut p = BenchPoint::new("lan/n=16/S-HS");
        for (key, value) in metrics {
            p.metrics.insert(key.to_string(), *value);
        }
        BenchArtifact {
            name: "fig7_scalability".to_string(),
            args: strs(&[
                "--quick",
                "--sizes",
                "16,32",
                "--bench-out",
                "bench/baselines/",
            ]),
            points: vec![p],
            ..BenchArtifact::default()
        }
    }

    const ROW: [(&str, f64); 3] = [
        ("throughput_ktps", 59.97),
        ("view_changes", 0.0),
        ("seq_wall_secs", 1.5),
    ];

    #[test]
    fn identical_baseline_and_candidate_paths_both_survive() {
        // Comparing an artifact against itself is the obvious smoke test.
        let args = strs(&["a.json", "a.json"]);
        assert_eq!(parse_args(&args), Ok(("a.json", "a.json")));
    }

    #[test]
    fn bad_usage_is_rejected() {
        assert!(parse_args(&strs(&["a.json"])).is_err());
        assert!(parse_args(&strs(&["a.json", "b.json", "c.json"])).is_err());
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn any_flag_is_a_usage_error() {
        for flag in ["--tolerance", "--tolerance=0.15", "-v"] {
            assert!(parse_args(&strs(&["a.json", "b.json", flag])).is_err());
            assert!(parse_args(&strs(&[flag, "a.json", "b.json"])).is_err());
            assert!(parse_args(&strs(&["a.json", flag])).is_err());
        }
    }

    #[test]
    fn an_artifact_equals_itself() {
        let v = compare(&artifact(&ROW), &artifact(&ROW));
        assert_eq!(v.equal, 2);
        assert_eq!(v.host_time.len(), 1);
        assert!(v.drift.is_empty(), "{:?}", v.drift);
    }

    #[test]
    fn a_view_change_against_a_zero_baseline_is_drift() {
        let mut row = ROW;
        row[1].1 = 1.0;
        let v = compare(&artifact(&ROW), &artifact(&row));
        assert_eq!(v.drift, ["lan/n=16/S-HS/view_changes: 0 -> 1"]);
    }

    #[test]
    fn one_ulp_is_drift_in_either_direction() {
        let base = ROW[0].1;
        for bits in [base.to_bits() + 1, base.to_bits() - 1] {
            let mut row = ROW;
            row[0].1 = f64::from_bits(bits);
            let v = compare(&artifact(&ROW), &artifact(&row));
            assert_eq!(v.equal, 1);
            assert_eq!(v.drift.len(), 1, "{:?}", v.drift);
            assert!(v.drift[0].starts_with("lan/n=16/S-HS/throughput_ktps: 59.97 -> 59.9"));
        }
    }

    #[test]
    fn host_time_is_reported_and_never_compared() {
        let mut row = ROW;
        row[2].1 = 150.0;
        let v = compare(&artifact(&ROW), &artifact(&row));
        assert!(v.drift.is_empty(), "{:?}", v.drift);
        assert_eq!(v.host_time, ["lan/n=16/S-HS/seq_wall_secs: 1.5 -> 150"]);
    }

    #[test]
    fn a_missing_point_or_metric_is_drift_and_an_extra_one_is_not() {
        let v = compare(&artifact(&ROW), &artifact(&ROW[..1]));
        // A dropped host-time metric is dropped coverage all the same.
        assert_eq!(
            v.drift,
            [
                "lan/n=16/S-HS/seq_wall_secs: missing from candidate",
                "lan/n=16/S-HS/view_changes: missing from candidate"
            ]
        );

        let mut renamed = artifact(&ROW);
        renamed.points[0].label = "lan/n=32/S-HS".to_string();
        let v = compare(&artifact(&ROW), &renamed);
        assert_eq!(v.drift, ["lan/n=16/S-HS: point missing from candidate"]);

        let v = compare(&artifact(&ROW[..1]), &artifact(&ROW));
        assert_eq!((v.equal, v.drift.len()), (1, 0));
    }

    #[test]
    fn the_rerecord_command_is_rebuilt_from_the_baseline() {
        assert_eq!(
            rerecord_command(&artifact(&ROW)),
            "cargo run --release -p smp-bench --bin fig7_scalability -- \
             --quick --sizes 16,32 --bench-out bench/baselines/"
        );
    }
}
