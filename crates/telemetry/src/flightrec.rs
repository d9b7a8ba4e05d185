//! Flight recorder: a bounded ring of metrics time-series windows.
//!
//! A [`FlightRecorder`] turns the cumulative
//! [`MetricsRegistry`](crate::MetricsRegistry) into a *time series*: each
//! call to [`sample`](FlightRecorder::sample) diffs the current snapshot against
//! the previous one and stores the delta as one window — per-key counter
//! increments, latest gauge levels, and latency-histogram percentiles for
//! that interval.  Old windows fall off the ring, so a long-running
//! replica retains a bounded recent history that an operator (or the
//! `localcluster` parent, over the admin socket) can pull at any moment
//! to see *what changed lately*, not just totals since boot.
//!
//! The recorder itself keeps no clock and runs no thread: under the
//! socket runtime the admin endpoint's thread (`smp_net::admin`) is the
//! one observer that samples it, on a fixed wall-clock cadence.
//!
//! The exported series is schema-versioned ([`FLIGHTREC_SCHEMA`]);
//! [`merge_cluster_series`] unions per-replica series into the
//! cluster-wide artifact `localcluster` writes.

use crate::registry::MetricsSnapshot;
use smp_metrics::JsonValue;
use std::collections::VecDeque;

/// Schema tag stamped into every exported per-process series.
pub const FLIGHTREC_SCHEMA: &str = "smp-flightrec-v1";

/// Schema tag stamped into the merged cluster artifact.
pub const CLUSTER_FLIGHTREC_SCHEMA: &str = "smp-cluster-flightrec-v1";

/// Default number of windows retained.
pub const DEFAULT_WINDOW_CAPACITY: usize = 512;

/// One recorded interval: the metrics delta between two samples.
#[derive(Clone, Debug)]
pub struct FlightWindow {
    /// Monotonic window number (survives ring eviction).
    pub seq: u64,
    /// Wall-clock start of the interval, µs since the telemetry epoch.
    pub start_us: u64,
    /// Wall-clock end of the interval (the sample instant), µs.
    pub end_us: u64,
    /// Snapshot diff over the interval: counter deltas, latest gauge
    /// values, histogram percentiles with per-window observation counts.
    pub delta: MetricsSnapshot,
}

/// Bounded ring of [`FlightWindow`]s plus the last cumulative snapshot.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    cadence_us: u64,
    windows: VecDeque<FlightWindow>,
    last: Option<(u64, MetricsSnapshot)>,
    next_seq: u64,
    dropped: u64,
}

impl FlightRecorder {
    /// A recorder retaining up to `capacity` windows.  `cadence_us` is
    /// advisory — it records the sampling period in the export
    /// so consumers can distinguish sparse data from a slow cadence.
    pub fn new(capacity: usize, cadence_us: u64) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            cadence_us,
            windows: VecDeque::new(),
            last: None,
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Records one window: the diff of `snapshot` against the previous
    /// sample, covering `[previous sample time, now_us)`.  The first call
    /// records the full snapshot as a window starting at 0.
    pub fn sample(&mut self, snapshot: MetricsSnapshot, now_us: u64) {
        let start_us = self.last.as_ref().map(|(at, _)| *at).unwrap_or(0);
        let delta = match &self.last {
            Some((_, earlier)) => snapshot.diff(earlier),
            None => snapshot.clone(),
        };
        if self.windows.len() == self.capacity {
            self.windows.pop_front();
            self.dropped += 1;
        }
        self.windows.push_back(FlightWindow {
            seq: self.next_seq,
            start_us,
            end_us: now_us,
            delta,
        });
        self.next_seq += 1;
        self.last = Some((now_us, snapshot));
    }

    /// Retained windows, oldest first.
    pub fn windows(&self) -> impl Iterator<Item = &FlightWindow> {
        self.windows.iter()
    }

    /// Number of retained windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether no window has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Windows evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The most recent cumulative snapshot (what the last `sample` saw).
    pub fn last_snapshot(&self) -> Option<&MetricsSnapshot> {
        self.last.as_ref().map(|(_, s)| s)
    }

    /// Exports the series as a schema-versioned JSON document.
    pub fn to_json(&self) -> JsonValue {
        let windows = self
            .windows
            .iter()
            .map(|w| {
                JsonValue::Object(vec![
                    ("seq".to_string(), JsonValue::Number(w.seq as f64)),
                    ("start_us".to_string(), JsonValue::Number(w.start_us as f64)),
                    ("end_us".to_string(), JsonValue::Number(w.end_us as f64)),
                    ("metrics".to_string(), w.delta.to_json()),
                ])
            })
            .collect();
        JsonValue::Object(vec![
            (
                "schema".to_string(),
                JsonValue::String(FLIGHTREC_SCHEMA.to_string()),
            ),
            (
                "cadence_us".to_string(),
                JsonValue::Number(self.cadence_us as f64),
            ),
            (
                "dropped_windows".to_string(),
                JsonValue::Number(self.dropped as f64),
            ),
            ("windows".to_string(), JsonValue::Array(windows)),
        ])
    }
}

/// Merges per-replica flight-recorder series (documents in the shape
/// [`FlightRecorder::to_json`] emits) into the cluster-wide artifact:
/// per-replica series keyed by label, plus an optional cluster `rollup`
/// snapshot (see [`rollup_snapshots`](crate::rollup_snapshots)).
pub fn merge_cluster_series(
    sources: &[(String, JsonValue)],
    rollup: Option<JsonValue>,
) -> JsonValue {
    let replicas = sources
        .iter()
        .map(|(label, series)| (label.clone(), series.clone()))
        .collect();
    let mut pairs = vec![
        (
            "schema".to_string(),
            JsonValue::String(CLUSTER_FLIGHTREC_SCHEMA.to_string()),
        ),
        ("replicas".to_string(), JsonValue::Object(replicas)),
    ];
    if let Some(rollup) = rollup {
        pairs.push(("rollup".to_string(), rollup));
    }
    JsonValue::Object(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SnapValue, Telemetry};

    #[test]
    fn windows_hold_per_interval_counter_deltas() {
        let t = Telemetry::new();
        let mut rec = FlightRecorder::new(8, 1_000);
        t.counter_add("net.frames", 10);
        rec.sample(t.snapshot(), 1_000);
        t.counter_add("net.frames", 5);
        t.gauge_set("queue.depth", 3.0);
        rec.sample(t.snapshot(), 2_000);
        let windows: Vec<_> = rec.windows().collect();
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].delta.counter("net.frames"), Some(10));
        assert_eq!((windows[0].start_us, windows[0].end_us), (0, 1_000));
        assert_eq!(windows[1].delta.counter("net.frames"), Some(5));
        assert_eq!(
            windows[1].delta.get("queue.depth"),
            Some(&SnapValue::Gauge(3.0))
        );
        assert_eq!((windows[1].start_us, windows[1].end_us), (1_000, 2_000));
    }

    #[test]
    fn ring_evicts_oldest_windows() {
        let t = Telemetry::new();
        let mut rec = FlightRecorder::new(2, 0);
        for i in 0..5u64 {
            t.counter_add("c", 1);
            rec.sample(t.snapshot(), (i + 1) * 100);
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 3);
        let seqs: Vec<u64> = rec.windows().map(|w| w.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
        // Each surviving window still holds only its own interval.
        for w in rec.windows() {
            assert_eq!(w.delta.counter("c"), Some(1));
        }
    }

    #[test]
    fn series_json_is_schema_versioned() {
        let t = Telemetry::new();
        t.counter_add("a", 2);
        t.observe_us("lat", 500);
        let mut rec = FlightRecorder::new(4, 250_000);
        rec.sample(t.snapshot(), 250_000);
        let doc = rec.to_json();
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some(FLIGHTREC_SCHEMA)
        );
        assert_eq!(
            doc.get("cadence_us").and_then(JsonValue::as_u64),
            Some(250_000)
        );
        let windows = doc.get("windows").and_then(JsonValue::as_array).unwrap();
        assert_eq!(windows.len(), 1);
        let metrics = windows[0].get("metrics").unwrap();
        assert_eq!(
            metrics
                .get("a")
                .and_then(|m| m.get("value"))
                .and_then(JsonValue::as_u64),
            Some(2)
        );
        assert_eq!(
            metrics
                .get("lat")
                .and_then(|m| m.get("type"))
                .and_then(JsonValue::as_str),
            Some("hist")
        );
        // The series parses back (what the cluster merge does).
        assert_eq!(JsonValue::parse(&doc.to_pretty()).unwrap(), doc);
    }

    #[test]
    fn cluster_merge_wraps_replica_series() {
        let series = |v: u64| {
            let t = Telemetry::new();
            t.counter_add("net.frames", v);
            let mut rec = FlightRecorder::new(4, 0);
            rec.sample(t.snapshot(), 100);
            rec.to_json()
        };
        let merged = merge_cluster_series(
            &[
                ("replica.0".to_string(), series(1)),
                ("replica.1".to_string(), series(2)),
            ],
            Some(JsonValue::Object(vec![(
                "replica.0.net.frames".to_string(),
                JsonValue::Number(1.0),
            )])),
        );
        assert_eq!(
            merged.get("schema").and_then(JsonValue::as_str),
            Some(CLUSTER_FLIGHTREC_SCHEMA)
        );
        let replicas = merged.get("replicas").unwrap();
        assert!(replicas.get("replica.0").is_some());
        assert!(replicas.get("replica.1").is_some());
        assert!(merged.get("rollup").is_some());
    }
}
