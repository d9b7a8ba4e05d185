//! `compare <a.json> <b.json>`: one row per (end-to-end metric,
//! workload) of two result files written with `run --out`, plus the
//! exact-repeat guards of the simulator workloads.

use crate::metrics::{end_to_end, Better, MODEL_LABELS};
use crate::stats::{median, spread};
use smp_metrics::JsonValue;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    /// The run-to-run spread of either side is wider than the bound, so
    /// the medians cannot be told apart at that resolution.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Classifies `b` against `a` (samples of one metric on one workload).
/// Returns the verdict, both medians and the wider spread.
pub fn classify(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Verdict, f64, f64, f64) {
    let (ma, mb) = (median(a).unwrap_or(0.0), median(b).unwrap_or(0.0));
    let wider = spread(a).unwrap_or(0.0).max(spread(b).unwrap_or(0.0));
    let worse_by = if ma == 0.0 {
        0.0
    } else {
        match better {
            Better::Lower => (mb - ma) / ma.abs(),
            Better::Higher => (ma - mb) / ma.abs(),
        }
    };
    let verdict = if wider > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    (verdict, ma, mb, wider)
}

/// The records of one workload in a result file, oldest first.
fn records<'a>(doc: &'a JsonValue, workload: &str) -> Vec<&'a JsonValue> {
    doc.get("runs")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .flat_map(|run| {
            run.get("workloads")
                .and_then(JsonValue::as_array)
                .unwrap_or(&[])
        })
        .filter(|r| r.get("workload").and_then(JsonValue::as_str) == Some(workload))
        .collect()
}

fn workload_names(doc: &JsonValue) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for run in doc.get("runs").and_then(JsonValue::as_array).unwrap_or(&[]) {
        for r in run
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
        {
            if let Some(name) = r.get("workload").and_then(JsonValue::as_str) {
                if !names.iter().any(|n| n == name) {
                    names.push(name.to_string());
                }
            }
        }
    }
    names
}

fn samples(records: &[&JsonValue], section: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter_map(|r| r.get(section)?.get(metric)?.as_f64())
        .collect()
}

/// Compares two parsed result files.  Returns the report and whether
/// anything got worse or an exact guard broke.
pub fn compare_docs(a: &JsonValue, b: &JsonValue) -> (String, bool) {
    use std::fmt::Write as _;
    let mut report = String::new();
    let mut failed = false;
    let names_b = workload_names(b);
    writeln!(
        report,
        "{:<16} {:<18} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "spread", "bound"
    )
    .expect("writing");
    for workload in workload_names(a).iter().filter(|w| names_b.contains(w)) {
        let (ra, rb) = (records(a, workload), records(b, workload));
        for m in end_to_end() {
            let (sa, sb) = (
                samples(&ra, "end_to_end", &m.name),
                samples(&rb, "end_to_end", &m.name),
            );
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let (verdict, ma, mb, wider) = classify(&sa, &sb, m.better, bound);
            failed |= verdict == Verdict::Worse;
            writeln!(
                report,
                "{workload:<16} {:<18} {ma:>14.4} {mb:>14.4} {:>7.2}% {:>6.1}%  {} (n={}/{})",
                m.name,
                wider * 100.0,
                bound * 100.0,
                verdict.as_str(),
                sa.len(),
                sb.len()
            )
            .expect("writing");
        }

        // failed_share: equal to within 0.2 percentage points.
        let share = |rs: &[&JsonValue]| median(&samples(rs, "summary", "failed_share"));
        if let (Some(fa), Some(fb)) = (share(&ra), share(&rb)) {
            let ok = (fa - fb).abs() <= 0.002;
            failed |= !ok;
            writeln!(
                report,
                "{workload:<16} {:<18} {:>13.3}% {:>13.3}% {:>8} {:>7}  {}",
                "failed_share",
                fa * 100.0,
                fb * 100.0,
                "",
                "0.2pp",
                if ok { "equal" } else { "DIFFERS" }
            )
            .expect("writing");
        }

        // Exact-repeat guards: same seed and length must give the same
        // simulation, bit for bit.
        let same_inputs = |key: &str| {
            ra[0].get(key).and_then(JsonValue::as_f64) == rb[0].get(key).and_then(JsonValue::as_f64)
        };
        if !workload.starts_with("sim_") || !same_inputs("seed") || !same_inputs("seconds") {
            continue;
        }
        let mut guards: Vec<(String, bool)> = Vec::new();
        let rows = |r: &JsonValue| {
            r.get("rows")
                .and_then(JsonValue::as_object)
                .map(<[_]>::to_vec)
        };
        if let (Some(rows_a), Some(rows_b)) = (rows(ra[0]), rows(rb[0])) {
            guards.push(("fingerprints and events".into(), rows_a == rows_b));
        }
        let mut exact = vec!["simnet.events".to_string()];
        for label in MODEL_LABELS {
            exact.push(format!("model.{label}.goodput_tps"));
            exact.push(format!("model.{label}.p50_ms"));
        }
        for name in exact {
            let (va, vb) = (
                samples(&ra[..1], "per_layer", &name),
                samples(&rb[..1], "per_layer", &name),
            );
            if !va.is_empty() && !vb.is_empty() {
                guards.push((name, va == vb));
            }
        }
        let broken: Vec<&str> = guards
            .iter()
            .filter(|(_, ok)| !ok)
            .map(|(n, _)| n.as_str())
            .collect();
        failed |= !broken.is_empty();
        writeln!(
            report,
            "{workload:<16} {:<18} {} exact guards, {}",
            "exact-repeat",
            guards.len(),
            if broken.is_empty() {
                "all identical".to_string()
            } else {
                format!("DIFFERENT: {}", broken.join(", "))
            }
        )
        .expect("writing");
    }
    (report, failed)
}

/// Entry point of the subcommand; the process exit code.
pub fn run(path_a: &str, path_b: &str) -> i32 {
    let load = |path: &str| -> Result<JsonValue, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => {
            let (report, failed) = compare_docs(&a, &b);
            print!("{report}");
            i32::from(failed)
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_tells_a_regression_from_noise() {
        let base = [10.0, 10.1, 9.9, 10.05, 9.95];
        // 20 % slower on a lower-is-better metric with a 10 % bound.
        let slower = [12.0, 12.1, 11.9, 12.05, 11.95];
        assert_eq!(
            classify(&base, &slower, Better::Lower, 0.10).0,
            Verdict::Worse
        );
        // The same numbers are an improvement when higher is better.
        assert_eq!(
            classify(&base, &slower, Better::Higher, 0.10).0,
            Verdict::Better
        );
        // 3 % is inside the bound.
        let close = [10.3, 10.4, 10.2, 10.35, 10.25];
        assert_eq!(
            classify(&base, &close, Better::Lower, 0.10).0,
            Verdict::WithinBound
        );
        // A side whose own runs spread wider than the bound resolves nothing.
        let noisy = [8.0, 12.0, 10.0, 14.0, 6.0];
        assert_eq!(
            classify(&base, &noisy, Better::Lower, 0.10).0,
            Verdict::Unresolved
        );
        // One sample a side: no spread to speak of, medians decide.
        assert_eq!(
            classify(&[10.0], &[10.2], Better::Lower, 0.05).0,
            Verdict::WithinBound
        );
    }

    fn doc(cpu: f64, events: u64) -> JsonValue {
        let text = format!(
            r#"{{"runs": [{{"workloads": [{{"workload": "sim_shs_n100", "seed": 42, "seconds": 10,
                "summary": {{"failed_share": 0.0}},
                "end_to_end": {{"cpu_us_per_tx": {cpu}, "goodput_tps": 60000}},
                "per_layer": {{"simnet.events": {events}}},
                "rows": {{"S-HS": {{"fingerprint": "abc-1", "events": {events}}}}}}}]}}]}}"#
        );
        JsonValue::parse(&text).expect("valid test document")
    }

    #[test]
    fn compare_flags_a_synthetic_regression_and_a_broken_guard() {
        let (report, failed) = compare_docs(&doc(70.0, 1_000), &doc(70.5, 1_000));
        assert!(!failed, "{report}");
        assert!(report.contains("all identical"), "{report}");
        let (report, failed) = compare_docs(&doc(70.0, 1_000), &doc(90.0, 1_000));
        assert!(failed && report.contains("worse"), "{report}");
        let (report, failed) = compare_docs(&doc(70.0, 1_000), &doc(70.0, 1_001));
        assert!(failed && report.contains("DIFFERENT"), "{report}");
    }
}
