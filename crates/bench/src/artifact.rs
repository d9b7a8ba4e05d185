//! Recorded benchmark artifacts (`BENCH_<name>.json`).
//!
//! Every harness binary can write a schema-versioned JSON artifact
//! describing the run: configuration, git revision, wall-clock time, and
//! a list of labelled measurement points.  The points are *simulated*
//! model outputs, exact for a seed, so the `bench_gate` binary holds a
//! candidate artifact to bit equality with the checked-in one
//! (`bench/baselines/`); the one exception is [`is_host_time`].  Anything
//! timed on the host is the `benchmark/` package's to measure.

use crate::Scale;
use smp_metrics::{JsonError, JsonValue};
use smp_replica::ExperimentResult;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Version stamped into every artifact; bump on incompatible layout
/// changes so the gate can refuse cross-schema comparisons.
///
/// Older v2 writers also recorded a per-metric gating direction beside
/// `metrics`; an exact gate has no use for one, and the reader skips keys
/// it does not know.
pub const BENCH_SCHEMA_VERSION: u64 = 2;

/// The one naming rule of the artifact format: a metric whose key
/// contains `wall` (`fig12`'s `*_wall_secs`, like the top-level
/// `wall_secs`) is host time — `bench_gate` prints it and never compares
/// it.  Every other metric must reproduce bit for bit.
pub fn is_host_time(key: &str) -> bool {
    key.contains("wall")
}

/// One labelled measurement point: a set of named scalar metrics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchPoint {
    /// Unique label within the artifact (e.g. `n=64/S-HS`).
    pub label: String,
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
}

impl BenchPoint {
    /// A point with no metrics yet.
    pub fn new(label: impl Into<String>) -> Self {
        BenchPoint {
            label: label.into(),
            metrics: BTreeMap::new(),
        }
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("label".to_string(), JsonValue::String(self.label.clone())),
            (
                "metrics".to_string(),
                JsonValue::Object(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::Number(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        let label = v
            .get("label")
            .and_then(JsonValue::as_str)
            .unwrap_or_default()
            .to_string();
        let mut metrics = BTreeMap::new();
        if let Some(obj) = v.get("metrics").and_then(JsonValue::as_object) {
            for (k, m) in obj {
                if let Some(x) = m.as_f64() {
                    metrics.insert(k.clone(), x);
                }
            }
        }
        Ok(BenchPoint { label, metrics })
    }
}

/// A recorded benchmark run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchArtifact {
    /// Artifact layout version ([`BENCH_SCHEMA_VERSION`]).
    pub schema: u64,
    /// Benchmark name (e.g. `fig7_scalability`).
    pub name: String,
    /// `git rev-parse --short HEAD` at record time (empty if unknown).
    pub git_rev: String,
    /// Harness scale (`quick` / `full`) the run used.
    pub scale: String,
    /// The process arguments, for reproducing the run.
    pub args: Vec<String>,
    /// Wall-clock duration of the whole run in seconds.
    pub wall_secs: f64,
    /// The measurement points.
    pub points: Vec<BenchPoint>,
}

impl BenchArtifact {
    /// Serializes to the canonical JSON layout.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("schema".to_string(), JsonValue::Number(self.schema as f64)),
            ("name".to_string(), JsonValue::String(self.name.clone())),
            (
                "git_rev".to_string(),
                JsonValue::String(self.git_rev.clone()),
            ),
            ("scale".to_string(), JsonValue::String(self.scale.clone())),
            (
                "args".to_string(),
                JsonValue::Array(
                    self.args
                        .iter()
                        .map(|a| JsonValue::String(a.clone()))
                        .collect(),
                ),
            ),
            ("wall_secs".to_string(), JsonValue::Number(self.wall_secs)),
            (
                "points".to_string(),
                JsonValue::Array(self.points.iter().map(BenchPoint::to_json).collect()),
            ),
        ])
    }

    /// Parses the canonical JSON layout.
    pub fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        let schema = v.get("schema").and_then(JsonValue::as_u64).unwrap_or(0);
        let str_field = |k: &str| {
            v.get(k)
                .and_then(JsonValue::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let args = v
            .get("args")
            .and_then(JsonValue::as_array)
            .map(|a| {
                a.iter()
                    .filter_map(|x| x.as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default();
        let points = v
            .get("points")
            .and_then(JsonValue::as_array)
            .map(|a| {
                a.iter()
                    .map(BenchPoint::from_json)
                    .collect::<Result<_, _>>()
            })
            .transpose()?
            .unwrap_or_default();
        Ok(BenchArtifact {
            schema,
            name: str_field("name"),
            git_rev: str_field("git_rev"),
            scale: str_field("scale"),
            args,
            wall_secs: v
                .get("wall_secs")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0),
            points,
        })
    }

    /// Parses an artifact from JSON text.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        Self::from_json(&JsonValue::parse(text)?)
    }

    /// Looks up a point by label.
    pub fn point(&self, label: &str) -> Option<&BenchPoint> {
        self.points.iter().find(|p| p.label == label)
    }
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default()
}

/// Collects measurement points during a harness run and writes the
/// artifact on [`finish`](BenchRecorder::finish) when the process was
/// started with `--bench-out <path>`.
///
/// With no `--bench-out` argument every method is a cheap no-op, so the
/// harness binaries record unconditionally.
#[derive(Debug)]
pub struct BenchRecorder {
    artifact: BenchArtifact,
    out: Option<PathBuf>,
    started: Instant,
}

impl BenchRecorder {
    /// Builds a recorder for benchmark `name`, reading `--bench-out` from
    /// the process arguments.  A path ending in `/` (or naming an
    /// existing directory) receives `BENCH_<name>.json`; any other path
    /// is used verbatim.
    pub fn from_args(name: &str, scale: Scale) -> Self {
        let out = crate::arg_value("--bench-out").map(|raw| {
            let p = PathBuf::from(&raw);
            if raw.ends_with('/') || p.is_dir() {
                p.join(format!("BENCH_{name}.json"))
            } else {
                p
            }
        });
        BenchRecorder {
            artifact: BenchArtifact {
                schema: BENCH_SCHEMA_VERSION,
                name: name.to_string(),
                git_rev: if out.is_some() {
                    git_rev()
                } else {
                    String::new()
                },
                scale: format!("{scale:?}").to_lowercase(),
                args: std::env::args().skip(1).collect(),
                wall_secs: 0.0,
                points: Vec::new(),
            },
            out,
            started: Instant::now(),
        }
    }

    /// Adds (or extends) the point `label` with one metric.  Name a
    /// metric measured on the host so that [`is_host_time`] sees it.
    pub fn metric(&mut self, label: &str, key: &str, value: f64) {
        if self.out.is_none() {
            return;
        }
        let point = match self.artifact.points.iter_mut().find(|p| p.label == label) {
            Some(p) => p,
            None => {
                self.artifact.points.push(BenchPoint::new(label));
                self.artifact.points.last_mut().expect("just pushed")
            }
        };
        point.metrics.insert(key.to_string(), value);
    }

    /// Records the standard summary metrics of one experiment result
    /// under `label`.
    pub fn result(&mut self, label: &str, r: &ExperimentResult) {
        self.metric(label, "throughput_ktps", r.summary.throughput_ktps);
        self.metric(label, "mean_latency_ms", r.summary.mean_latency_ms);
        self.metric(label, "p95_latency_ms", r.summary.p95_latency_ms);
        self.metric(label, "p99_latency_ms", r.summary.p99_latency_ms);
        self.metric(label, "committed_txs", r.committed_txs as f64);
        self.metric(label, "view_changes", r.view_changes as f64);
    }

    /// Stamps the wall-clock duration and writes the artifact (if
    /// `--bench-out` was given).  Returns the path written to.
    pub fn finish(mut self) -> Option<PathBuf> {
        let out = self.out.take()?;
        self.artifact.wall_secs = self.started.elapsed().as_secs_f64();
        write_artifact(&self.artifact, &out);
        Some(out)
    }
}

/// Writes `artifact` to `path` (creating parent directories), printing
/// the destination.  Exits the process on I/O failure: a harness asked
/// to record that cannot record should fail loudly, not silently.
pub fn write_artifact(artifact: &BenchArtifact, path: &Path) {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("bench-out: cannot create {}: {e}", parent.display());
                std::process::exit(2);
            }
        }
    }
    let mut text = artifact.to_json().to_pretty();
    text.push('\n');
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("bench-out: cannot write {}: {e}", path.display());
        std::process::exit(2);
    }
    println!("bench artifact written to {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_round_trips_through_json() {
        let mut p = BenchPoint::new("n=16/S-HS");
        p.metrics.insert("throughput_ktps".to_string(), 42.5);
        p.metrics.insert("p95_latency_ms".to_string(), 8.0);
        // Shortest-round-trip printing: the bits survive, which is what
        // lets the gate compare with `f64::to_bits`.
        p.metrics.insert("mean_latency_ms".to_string(), 0.1 + 0.2);
        let a = BenchArtifact {
            schema: BENCH_SCHEMA_VERSION,
            name: "fig7_scalability".to_string(),
            git_rev: "abc1234".to_string(),
            scale: "quick".to_string(),
            args: vec!["--quick".to_string()],
            wall_secs: 12.25,
            points: vec![p],
        };
        let text = a.to_json().to_pretty();
        let back = BenchArtifact::parse(&text).unwrap();
        assert_eq!(a, back);
        let metrics = &back.point("n=16/S-HS").unwrap().metrics;
        assert_eq!(metrics["throughput_ktps"], 42.5);
        assert_eq!(
            metrics["mean_latency_ms"].to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
    }

    #[test]
    fn missing_fields_default_instead_of_failing() {
        let a = BenchArtifact::parse(r#"{"schema": 1, "name": "x"}"#).unwrap();
        assert_eq!(a.schema, 1);
        assert_eq!(a.name, "x");
        assert!(a.points.is_empty());
        assert_eq!(a.wall_secs, 0.0);
    }

    #[test]
    fn v1_points_parse_without_directions() {
        let a = BenchArtifact::parse(
            r#"{"schema": 1, "name": "x",
                "points": [{"label": "p", "metrics": {"p50_ms": 5.0}}]}"#,
        )
        .unwrap();
        assert_eq!(a.point("p").unwrap().metrics["p50_ms"], 5.0);
    }

    #[test]
    fn a_v2_artifact_carrying_directions_still_parses() {
        // What the checked-in baselines look like: recorded when the
        // writer still put a gating direction beside every metric.
        let a = BenchArtifact::parse(
            r#"{"schema": 2, "name": "x",
                "points": [{"label": "p",
                            "metrics": {"a": 1.0, "b": 2.5, "c": 0},
                            "directions": {"a": "lower", "b": "higher", "c": true}}]}"#,
        )
        .unwrap();
        let p = a.point("p").unwrap();
        assert_eq!(p.metrics.len(), 3);
        assert_eq!(p.metrics["b"], 2.5);
        // The writer no longer emits them, and nothing is lost by that.
        let text = a.to_json().to_pretty();
        assert!(!text.contains("directions"));
        assert_eq!(BenchArtifact::parse(&text).unwrap(), a);
    }
}
