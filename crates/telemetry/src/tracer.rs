//! Span-based tracer with a bounded ring buffer.
//!
//! Spans carry *both* clocks: the simulated timestamp at which the
//! enclosing event fired (sim time never advances while a handler runs,
//! so a span's duration in sim time is always zero) and wall-clock
//! start/duration measured against the telemetry epoch.  Completed spans
//! land in a fixed-capacity ring buffer — old events are dropped, and the
//! drop count is reported — and can be exported as chrome://tracing
//! `traceEvents` JSON or aggregated into per-phase self-time profiles.

use smp_metrics::JsonValue;
use smp_types::SimTime;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::thread::ThreadId;

/// Default ring-buffer capacity (completed spans retained).
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// One completed span.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Span name, e.g. `"simnet.deliver"`.
    pub name: Cow<'static, str>,
    /// Track (rendered as the chrome-trace `tid`); replicas use their id.
    pub track: u32,
    /// Simulated time when the span opened (µs).
    pub sim_ts: SimTime,
    /// Wall-clock start relative to the telemetry epoch (ns).
    pub wall_start_ns: u64,
    /// Wall-clock duration (ns).
    pub wall_dur_ns: u64,
    /// Duration minus time spent in child spans (ns).
    pub self_wall_ns: u64,
    /// Nesting depth at open time (0 = top level).
    pub depth: u16,
    /// Instant event (connection up/down, …): rendered as a chrome-trace
    /// `ph:"i"` marker instead of a complete span.
    pub instant: bool,
}

struct OpenSpan {
    name: Cow<'static, str>,
    track: u32,
    sim_ts: SimTime,
    wall_start_ns: u64,
    child_ns: u64,
}

/// Aggregated statistics for all spans sharing a name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseProfile {
    /// Number of completed spans.
    pub count: u64,
    /// Total wall time (ns), including children.
    pub total_wall_ns: u64,
    /// Total self time (ns), excluding children.
    pub self_wall_ns: u64,
    /// Longest single span (ns).
    pub max_wall_ns: u64,
}

/// Records spans into a bounded ring buffer.  Each OS thread gets its own
/// open-span stack (drop-guard discipline makes begin/end LIFO per
/// thread), so several threads can trace concurrently under one tracer.
pub struct Tracer {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    open: HashMap<ThreadId, Vec<OpenSpan>>,
}

impl Tracer {
    /// Creates a tracer retaining up to `capacity` completed spans.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            events: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
            open: HashMap::new(),
        }
    }

    /// Opens a span on the current thread.
    pub fn begin(&mut self, name: Cow<'static, str>, track: u32, sim_ts: SimTime, wall_ns: u64) {
        let stack = self.open.entry(std::thread::current().id()).or_default();
        stack.push(OpenSpan {
            name,
            track,
            sim_ts,
            wall_start_ns: wall_ns,
            child_ns: 0,
        });
    }

    /// Closes the innermost span on the current thread.
    pub fn end(&mut self, wall_ns: u64) {
        let Some(stack) = self.open.get_mut(&std::thread::current().id()) else {
            return;
        };
        let Some(span) = stack.pop() else { return };
        let dur = wall_ns.saturating_sub(span.wall_start_ns);
        if let Some(parent) = stack.last_mut() {
            parent.child_ns += dur;
        }
        let depth = stack.len() as u16;
        self.push(TraceEvent {
            name: span.name,
            track: span.track,
            sim_ts: span.sim_ts,
            wall_start_ns: span.wall_start_ns,
            wall_dur_ns: dur,
            self_wall_ns: dur.saturating_sub(span.child_ns),
            depth,
            instant: false,
        });
    }

    /// Records a zero-duration instant event on the current thread
    /// (connection up/down, handshake completion, …).
    pub fn instant(&mut self, name: Cow<'static, str>, track: u32, sim_ts: SimTime, wall_ns: u64) {
        let depth = self
            .open
            .get(&std::thread::current().id())
            .map(|s| s.len() as u16)
            .unwrap_or(0);
        self.push(TraceEvent {
            name,
            track,
            sim_ts,
            wall_start_ns: wall_ns,
            wall_dur_ns: 0,
            self_wall_ns: 0,
            depth,
            instant: true,
        });
    }

    fn push(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Completed spans currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained completed spans.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no spans have been retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Spans evicted from the ring buffer so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Aggregates retained spans by name into self-time profiles.
    pub fn profile(&self) -> BTreeMap<String, PhaseProfile> {
        let mut out: BTreeMap<String, PhaseProfile> = BTreeMap::new();
        for e in &self.events {
            let p = out.entry(e.name.to_string()).or_default();
            p.count += 1;
            p.total_wall_ns += e.wall_dur_ns;
            p.self_wall_ns += e.self_wall_ns;
            p.max_wall_ns = p.max_wall_ns.max(e.wall_dur_ns);
        }
        out
    }

    /// Exports retained spans as a chrome://tracing document
    /// (`{"traceEvents": [...]}` with `ph:"X"` complete events).
    ///
    /// The span name's leading segment (before the first `.`) becomes the
    /// event category, and the track becomes the `tid`, so chrome groups
    /// rows by replica and colors by subsystem.
    pub fn to_chrome_json(&self) -> JsonValue {
        let events = self
            .events
            .iter()
            .map(|e| {
                let cat = e.name.split('.').next().unwrap_or("span");
                let mut pairs = vec![
                    ("name".to_string(), JsonValue::String(e.name.to_string())),
                    ("cat".to_string(), JsonValue::String(cat.to_string())),
                    (
                        "ph".to_string(),
                        JsonValue::String(if e.instant { "i" } else { "X" }.to_string()),
                    ),
                    ("pid".to_string(), JsonValue::Number(0.0)),
                    ("tid".to_string(), JsonValue::Number(e.track as f64)),
                    (
                        "ts".to_string(),
                        JsonValue::Number(e.wall_start_ns as f64 / 1_000.0),
                    ),
                ];
                if e.instant {
                    pairs.push(("s".to_string(), JsonValue::String("t".to_string())));
                } else {
                    pairs.push((
                        "dur".to_string(),
                        JsonValue::Number(e.wall_dur_ns as f64 / 1_000.0),
                    ));
                }
                pairs.push((
                    "args".to_string(),
                    JsonValue::Object(vec![
                        ("sim_ts_us".to_string(), JsonValue::Number(e.sim_ts as f64)),
                        ("depth".to_string(), JsonValue::Number(e.depth as f64)),
                    ]),
                ));
                JsonValue::Object(pairs)
            })
            .collect();
        JsonValue::Object(vec![
            ("traceEvents".to_string(), JsonValue::Array(events)),
            (
                "droppedEvents".to_string(),
                JsonValue::Number(self.dropped as f64),
            ),
        ])
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(DEFAULT_TRACE_CAPACITY)
    }
}

/// Merges per-process chrome-trace documents into one cluster timeline.
///
/// Each source is `(label, offset_us, doc)` where `doc` is a document in
/// the shape [`Tracer::to_chrome_json`] emits and `offset_us` shifts that
/// process's timestamps onto the shared cluster clock (each process
/// stamps `ts` relative to its own telemetry epoch; the caller computes
/// offsets from the processes' epoch wall-clock times).  Source `i`
/// renders as chrome process `i` named `label`, so a merged cluster
/// trace shows one track (process row) per replica.
pub fn merge_chrome_traces(sources: &[(String, i64, JsonValue)]) -> JsonValue {
    let mut events = Vec::new();
    let mut dropped = 0.0;
    for (pid, (label, offset_us, doc)) in sources.iter().enumerate() {
        // Chrome metadata event naming the process row.
        events.push(JsonValue::Object(vec![
            (
                "name".to_string(),
                JsonValue::String("process_name".to_string()),
            ),
            ("ph".to_string(), JsonValue::String("M".to_string())),
            ("pid".to_string(), JsonValue::Number(pid as f64)),
            ("tid".to_string(), JsonValue::Number(0.0)),
            (
                "args".to_string(),
                JsonValue::Object(vec![("name".to_string(), JsonValue::String(label.clone()))]),
            ),
        ]));
        dropped += doc
            .get("droppedEvents")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
        let Some(items) = doc.get("traceEvents").and_then(JsonValue::as_array) else {
            continue;
        };
        for item in items {
            let JsonValue::Object(pairs) = item else {
                continue;
            };
            let shifted = pairs
                .iter()
                .map(|(k, v)| match k.as_str() {
                    "pid" => (k.clone(), JsonValue::Number(pid as f64)),
                    "ts" => (
                        k.clone(),
                        JsonValue::Number(v.as_f64().unwrap_or(0.0) + *offset_us as f64),
                    ),
                    _ => (k.clone(), v.clone()),
                })
                .collect();
            events.push(JsonValue::Object(shifted));
        }
    }
    JsonValue::Object(vec![
        ("traceEvents".to_string(), JsonValue::Array(events)),
        ("droppedEvents".to_string(), JsonValue::Number(dropped)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(t: &mut Tracer, name: &'static str, start: u64, end: u64) {
        t.begin(Cow::Borrowed(name), 0, 0, start);
        t.end(end);
    }

    #[test]
    fn nested_spans_compute_self_time() {
        let mut t = Tracer::new(16);
        t.begin(Cow::Borrowed("outer"), 1, 500, 0);
        t.begin(Cow::Borrowed("inner"), 1, 500, 100);
        t.end(300); // inner: 200 ns
        t.end(1_000); // outer: 1000 ns total, 800 ns self
        let events: Vec<_> = t.events().collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "inner");
        assert_eq!(events[0].wall_dur_ns, 200);
        assert_eq!(events[0].depth, 1);
        assert_eq!(events[1].name, "outer");
        assert_eq!(events[1].wall_dur_ns, 1_000);
        assert_eq!(events[1].self_wall_ns, 800);
        assert_eq!(events[1].depth, 0);
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let mut t = Tracer::new(2);
        span(&mut t, "a", 0, 1);
        span(&mut t, "b", 1, 2);
        span(&mut t, "c", 2, 3);
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 1);
        let names: Vec<_> = t.events().map(|e| e.name.as_ref()).collect();
        assert_eq!(names, vec!["b", "c"]);
    }

    #[test]
    fn profile_aggregates_by_name() {
        let mut t = Tracer::new(16);
        span(&mut t, "x", 0, 10);
        span(&mut t, "x", 10, 40);
        span(&mut t, "y", 40, 45);
        let p = t.profile();
        assert_eq!(p["x"].count, 2);
        assert_eq!(p["x"].total_wall_ns, 40);
        assert_eq!(p["x"].max_wall_ns, 30);
        assert_eq!(p["y"].count, 1);
    }

    #[test]
    fn chrome_export_shape() {
        let mut t = Tracer::new(16);
        t.begin(Cow::Borrowed("simnet.deliver"), 3, 42, 1_000);
        t.end(2_500);
        let doc = t.to_chrome_json();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.get("name").unwrap().as_str(), Some("simnet.deliver"));
        assert_eq!(e.get("cat").unwrap().as_str(), Some("simnet"));
        assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(e.get("tid").unwrap().as_f64(), Some(3.0));
        assert_eq!(e.get("ts").unwrap().as_f64(), Some(1.0));
        assert_eq!(e.get("dur").unwrap().as_f64(), Some(1.5));
        assert_eq!(
            e.get("args").unwrap().get("sim_ts_us").unwrap().as_f64(),
            Some(42.0)
        );
        assert_eq!(doc.get("droppedEvents").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn end_without_begin_is_harmless() {
        let mut t = Tracer::new(4);
        t.end(100);
        assert!(t.is_empty());
    }
}
