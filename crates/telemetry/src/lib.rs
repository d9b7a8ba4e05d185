//! Observability layer for the Stratus reproduction.
//!
//! A [`Telemetry`] handle is threaded through the simulation, replicas,
//! mempools, the sharded mempool wrapper, and the distributed load
//! balancer.  It fans into two sinks:
//!
//! * a hierarchical [`MetricsRegistry`] of counters, gauges, and latency
//!   histograms addressed by dotted keys such as
//!   `replica.3.shard.1.gossip.bytes_out`, with snapshot/diff and JSON
//!   export; and
//! * a bounded ring-buffer [`Tracer`] of spans carrying both the
//!   simulated timestamp and wall-clock duration, exportable as a
//!   chrome://tracing document or a per-phase self-time profile.
//!
//! The handle is cheap to clone (an `Arc` plus a key prefix) and has a
//! [`disabled`](Telemetry::disabled) mode in which every operation
//! returns before formatting a key or taking a lock, so instrumented hot
//! paths cost one branch when telemetry is off.  Telemetry never touches
//! simulation RNG or event ordering: enabling it must leave simulation
//! results byte-identical (the cross-executor conformance suite asserts
//! this).

pub mod flightrec;
mod registry;
mod tracer;

pub use flightrec::{
    merge_cluster_series, FlightRecorder, FlightSampler, FlightWindow, CLUSTER_FLIGHTREC_SCHEMA,
    DEFAULT_WINDOW_CAPACITY, FLIGHTREC_SCHEMA,
};
pub use registry::{rollup_snapshots, Metric, MetricsRegistry, MetricsSnapshot, SnapValue};
pub use tracer::{merge_chrome_traces, PhaseProfile, TraceEvent, Tracer, DEFAULT_TRACE_CAPACITY};

use smp_metrics::JsonValue;
use smp_types::SimTime;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

struct Inner {
    registry: Mutex<MetricsRegistry>,
    tracer: Mutex<Tracer>,
    epoch: Instant,
    /// Wall-clock time of `epoch` as µs since the Unix epoch — the
    /// cross-process alignment anchor for merging traces and series.
    epoch_unix_us: u64,
    /// Wall-clock-only mode: there is no simulated clock (the sink
    /// belongs to a real-socket run), so spans stamp their "sim"
    /// timestamp from the wall-clock epoch instead of trusting the
    /// caller-supplied `sim_now` (which is 0 for plain [`Telemetry::span`]).
    wall_only: bool,
}

/// A cloneable handle to one telemetry sink (or to nothing, when
/// disabled).  Clones share the sink; [`with_prefix`](Telemetry::with_prefix)
/// derives handles that prepend a key segment, which is how per-replica
/// and per-shard hierarchies (`replica.3.shard.1.…`) are built.
#[derive(Clone)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
    prefix: String,
    track: u32,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.inner.is_some())
            .field("prefix", &self.prefix)
            .field("track", &self.track)
            .finish()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

impl Telemetry {
    /// A no-op handle: every operation returns immediately.
    pub const fn disabled() -> Self {
        Telemetry {
            inner: None,
            prefix: String::new(),
            track: 0,
        }
    }

    /// A live handle retaining up to [`DEFAULT_TRACE_CAPACITY`] completed
    /// spans.
    pub fn new() -> Self {
        Telemetry::build(false)
    }

    /// A live handle for runs with no simulated clock (the real-socket
    /// runtime): spans stamp wall-clock-since-epoch microseconds as
    /// their timeline timestamp, so `span()` needs no `sim_now`.
    pub fn wall_clock() -> Self {
        Telemetry::build(true)
    }

    fn build(wall_only: bool) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                registry: Mutex::new(MetricsRegistry::new()),
                tracer: Mutex::new(Tracer::new(DEFAULT_TRACE_CAPACITY)),
                epoch: Instant::now(),
                epoch_unix_us: SystemTime::now()
                    .duration_since(UNIX_EPOCH)
                    .map(|d| d.as_micros() as u64)
                    .unwrap_or(0),
                wall_only,
            })),
            prefix: String::new(),
            track: 0,
        }
    }

    /// Whether this handle is in wall-clock-only mode.
    pub fn is_wall_clock(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.wall_only)
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A handle recording under `prefix.` + the current prefix chain.
    /// On a disabled handle this is free (no string is built).
    pub fn with_prefix(&self, prefix: &str) -> Self {
        if self.inner.is_none() {
            return self.clone();
        }
        let prefix = if self.prefix.is_empty() {
            prefix.to_string()
        } else {
            format!("{}.{}", self.prefix, prefix)
        };
        Telemetry {
            inner: self.inner.clone(),
            prefix,
            track: self.track,
        }
    }

    /// A handle whose spans render on chrome-trace track `track`
    /// (replicas use their id).
    pub fn with_track(&self, track: u32) -> Self {
        Telemetry {
            inner: self.inner.clone(),
            prefix: self.prefix.clone(),
            track,
        }
    }

    fn key(&self, name: &str) -> String {
        if self.prefix.is_empty() {
            name.to_string()
        } else {
            format!("{}.{}", self.prefix, name)
        }
    }

    /// Adds `v` to the counter `prefix.name`.
    pub fn counter_add(&self, name: &str, v: u64) {
        let Some(inner) = &self.inner else { return };
        inner
            .registry
            .lock()
            .unwrap()
            .counter_add(&self.key(name), v);
    }

    /// Increments the counter `prefix.name`.
    pub fn counter_inc(&self, name: &str) {
        self.counter_add(name, 1);
    }

    /// Overwrites the counter `prefix.name` with an absolute value (for
    /// publishers mirroring their own monotonic totals — see
    /// [`MetricsRegistry::counter_store`]).
    pub fn counter_store(&self, name: &str, v: u64) {
        let Some(inner) = &self.inner else { return };
        inner
            .registry
            .lock()
            .unwrap()
            .counter_store(&self.key(name), v);
    }

    /// Sets the gauge `prefix.name`.
    pub fn gauge_set(&self, name: &str, v: f64) {
        let Some(inner) = &self.inner else { return };
        inner.registry.lock().unwrap().gauge_set(&self.key(name), v);
    }

    /// Records a latency observation (µs) under `prefix.name`.
    pub fn observe_us(&self, name: &str, us: u64) {
        self.observe_us_n(name, us, 1);
    }

    /// Records `count` identical latency observations (O(1)).
    pub fn observe_us_n(&self, name: &str, us: u64, count: usize) {
        let Some(inner) = &self.inner else { return };
        inner
            .registry
            .lock()
            .unwrap()
            .observe_us_n(&self.key(name), us, count);
    }

    /// Opens a wall-clock span; the span closes when the returned guard
    /// drops.  Use [`span_at`](Telemetry::span_at) to also record the
    /// simulated timestamp.
    pub fn span(&self, name: impl Into<Cow<'static, str>>) -> Span {
        self.span_at(name, 0)
    }

    /// Opens a span stamped with the current simulated time.
    pub fn span_at(&self, name: impl Into<Cow<'static, str>>, sim_now: SimTime) -> Span {
        let Some(inner) = &self.inner else {
            return Span { inner: None };
        };
        let wall_ns = inner.epoch.elapsed().as_nanos() as u64;
        let ts = if inner.wall_only {
            wall_ns / 1_000
        } else {
            sim_now
        };
        inner
            .tracer
            .lock()
            .unwrap()
            .begin(name.into(), self.track, ts, wall_ns);
        Span {
            inner: Some(Arc::clone(inner)),
        }
    }

    /// Records a zero-duration instant event (connection up/down, …),
    /// self-stamped from the epoch in wall-clock mode.
    pub fn instant(&self, name: impl Into<Cow<'static, str>>) {
        self.instant_at(name, 0)
    }

    /// Records an instant event stamped with the given simulated time.
    pub fn instant_at(&self, name: impl Into<Cow<'static, str>>, sim_now: SimTime) {
        let Some(inner) = &self.inner else { return };
        let wall_ns = inner.epoch.elapsed().as_nanos() as u64;
        let ts = if inner.wall_only {
            wall_ns / 1_000
        } else {
            sim_now
        };
        inner
            .tracer
            .lock()
            .unwrap()
            .instant(name.into(), self.track, ts, wall_ns);
    }

    /// Microseconds elapsed since this sink's epoch (0 when disabled).
    pub fn epoch_elapsed_us(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.epoch.elapsed().as_micros() as u64,
            None => 0,
        }
    }

    /// The sink's epoch as µs since the Unix epoch (None when disabled).
    /// Cross-process merges align wall clocks by differencing these.
    pub fn epoch_unix_us(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.epoch_unix_us)
    }

    /// Freezes current metric values.  Empty when disabled.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(inner) => inner.registry.lock().unwrap().snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    /// The metrics registry as a JSON object.
    pub fn registry_json(&self) -> JsonValue {
        self.snapshot().to_json()
    }

    /// Retained spans as a chrome://tracing document.
    pub fn trace_json(&self) -> JsonValue {
        match &self.inner {
            Some(inner) => inner.tracer.lock().unwrap().to_chrome_json(),
            None => JsonValue::Object(vec![(
                "traceEvents".to_string(),
                JsonValue::Array(Vec::new()),
            )]),
        }
    }

    /// Per-phase self-time profile of retained spans.
    pub fn profile(&self) -> BTreeMap<String, PhaseProfile> {
        match &self.inner {
            Some(inner) => inner.tracer.lock().unwrap().profile(),
            None => BTreeMap::new(),
        }
    }

    /// Number of completed spans currently retained.
    pub fn trace_len(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.tracer.lock().unwrap().len(),
            None => 0,
        }
    }
}

/// Drop guard closing the span opened by [`Telemetry::span`].
#[must_use = "a span closes when this guard drops; binding it to `_` closes it immediately"]
pub struct Span {
    inner: Option<Arc<Inner>>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let wall_ns = inner.epoch.elapsed().as_nanos() as u64;
            inner.tracer.lock().unwrap().end(wall_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.counter_add("a", 1);
        t.gauge_set("b", 2.0);
        t.observe_us("c", 3);
        {
            let _span = t.span("d");
        }
        assert!(t.snapshot().is_empty());
        assert_eq!(t.trace_len(), 0);
        assert!(t.profile().is_empty());
        // Deriving prefixed handles from a disabled handle stays inert.
        let d = t.with_prefix("replica.0").with_track(7);
        assert!(!d.is_enabled());
        d.counter_inc("x");
        assert!(d.snapshot().is_empty());
    }

    #[test]
    fn prefixed_clones_share_one_registry() {
        let root = Telemetry::new();
        let r0 = root.with_prefix("replica.0");
        let r0s1 = r0.with_prefix("shard.1");
        root.counter_add("events", 2);
        r0.counter_add("net.bytes_out", 100);
        r0s1.counter_add("gossip.bytes_out", 7);
        let snap = root.snapshot();
        assert_eq!(snap.counter("events"), Some(2));
        assert_eq!(snap.counter("replica.0.net.bytes_out"), Some(100));
        assert_eq!(snap.counter("replica.0.shard.1.gossip.bytes_out"), Some(7));
    }

    #[test]
    fn spans_record_with_track_and_sim_time() {
        let t = Telemetry::new();
        let r3 = t.with_prefix("replica.3").with_track(3);
        {
            let _outer = r3.span_at("replica.on_message", 1_234);
            let _inner = r3.span("replica.verify");
        }
        assert_eq!(t.trace_len(), 2);
        let doc = t.trace_json();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // Inner span completes (and is recorded) first.
        assert_eq!(
            events[0].get("name").unwrap().as_str(),
            Some("replica.verify")
        );
        assert_eq!(events[1].get("tid").unwrap().as_f64(), Some(3.0));
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("sim_ts_us")
                .unwrap()
                .as_f64(),
            Some(1_234.0)
        );
        let profile = t.profile();
        assert_eq!(profile["replica.on_message"].count, 1);
        assert!(
            profile["replica.on_message"].total_wall_ns >= profile["replica.verify"].total_wall_ns
        );
    }

    #[test]
    fn wall_clock_mode_stamps_spans_from_the_epoch() {
        let t = Telemetry::wall_clock();
        assert!(t.is_wall_clock());
        assert!(!Telemetry::new().is_wall_clock());
        assert!(!Telemetry::disabled().is_wall_clock());
        std::thread::sleep(std::time::Duration::from_millis(2));
        {
            let _span = t.span("net.tick");
        }
        let doc = t.trace_json();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let ts = events[0]
            .get("args")
            .unwrap()
            .get("sim_ts_us")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(ts >= 2_000.0, "span not stamped from wall epoch: {ts}");
        // Prefixed/tracked clones keep the mode.
        assert!(t.with_prefix("replica.0").with_track(1).is_wall_clock());
    }

    #[test]
    fn handle_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Telemetry>();
    }

    #[test]
    fn snapshot_diff_through_handle() {
        let t = Telemetry::new();
        t.counter_add("ticks", 1);
        let first = t.snapshot();
        t.counter_add("ticks", 4);
        let delta = t.snapshot().diff(&first);
        assert_eq!(delta.counter("ticks"), Some(4));
        let json = t.registry_json().to_pretty();
        assert!(json.contains("\"ticks\""));
    }
}
