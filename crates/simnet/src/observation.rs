//! Observations: lightweight events emitted by nodes for time-series
//! analysis (throughput over time, view changes, microblock stability).

use serde::Serialize;
use smp_types::{ReplicaId, SimTime, MICROS_PER_SEC};
use std::borrow::Cow;
use std::ops::RangeBounds;

/// What happened.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub enum ObsKind {
    /// A block committed on this replica ordering `txs` transactions.
    Committed {
        /// Number of transactions in the committed block.
        txs: u32,
        /// Sum of commit latencies (microseconds) over those transactions
        /// whose reception time is known on this replica.
        latency_sum_us: u64,
        /// Number of transactions contributing to `latency_sum_us`.
        latency_count: u32,
    },
    /// A view change (pacemaker timeout / leader replacement) started.
    ViewChange {
        /// The view being abandoned.
        view: u64,
    },
    /// A microblock this replica disseminated became provably available.
    MicroblockStable {
        /// Time from broadcast to stability (microseconds).
        stable_time_us: u64,
    },
    /// A fetch for missing microblocks was issued while filling a proposal.
    MissingFetch {
        /// Number of microblocks that had to be fetched.
        count: u32,
    },
    /// Free-form metric.
    Custom {
        /// Label identifying the metric.  `Cow` so dynamically-named
        /// labels (e.g. per-shard `"shard.3.carry"`) don't need to leak
        /// a `&'static str`.
        label: Cow<'static, str>,
        /// Value.
        value: f64,
    },
}

/// A timestamped observation from one node.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Observation {
    /// Simulated time of the observation.
    pub time: SimTime,
    /// Node that emitted it.
    pub node: ReplicaId,
    /// What happened.
    pub kind: ObsKind,
}

/// What [`ObservationLog::tally`] counts for a set of nodes over a window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Transactions committed.
    pub committed_txs: u64,
    /// View changes started.
    pub view_changes: u64,
}

/// An append-only log of observations with aggregation helpers.  It is the
/// one record of what a run measured: commit totals, view changes and the
/// throughput series are all queried from it.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct ObservationLog {
    entries: Vec<Observation>,
}

impl ObservationLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        ObservationLog {
            entries: Vec::new(),
        }
    }

    /// Appends an observation.
    pub fn push(&mut self, obs: Observation) {
        self.entries.push(obs);
    }

    /// All recorded observations, in emission order.
    pub fn entries(&self) -> &[Observation] {
        &self.entries
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Transactions committed and view changes started on the nodes `of`
    /// accepts, at times inside `window` — half-open as `from..to`, or `..`
    /// for the whole run.
    pub fn tally(
        &self,
        of: impl Fn(ReplicaId) -> bool,
        window: impl RangeBounds<SimTime>,
    ) -> Tally {
        let mut tally = Tally::default();
        for o in &self.entries {
            if !of(o.node) || !window.contains(&o.time) {
                continue;
            }
            match o.kind {
                ObsKind::Committed { txs, .. } => tally.committed_txs += txs as u64,
                ObsKind::ViewChange { .. } => tally.view_changes += 1,
                _ => {}
            }
        }
        tally
    }

    /// Throughput time series for `node`: committed transactions per
    /// second, bucketed into `bucket_us`-wide bins covering `[0, horizon)`.
    pub fn throughput_series(
        &self,
        node: ReplicaId,
        bucket_us: SimTime,
        horizon: SimTime,
    ) -> Vec<f64> {
        assert!(bucket_us > 0, "bucket width must be positive");
        let buckets = horizon.div_ceil(bucket_us) as usize;
        let mut counts = vec![0u64; buckets];
        for o in &self.entries {
            if o.node != node || o.time >= horizon {
                continue;
            }
            if let ObsKind::Committed { txs, .. } = o.kind {
                counts[(o.time / bucket_us) as usize] += txs as u64;
            }
        }
        let scale = MICROS_PER_SEC as f64 / bucket_us as f64;
        counts.into_iter().map(|c| c as f64 * scale).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(node: u32, time: SimTime, txs: u32) -> Observation {
        Observation {
            time,
            node: ReplicaId(node),
            kind: ObsKind::Committed {
                txs,
                latency_sum_us: txs as u64 * 1000,
                latency_count: txs,
            },
        }
    }

    fn log_of(entries: impl IntoIterator<Item = Observation>) -> ObservationLog {
        let mut log = ObservationLog::new();
        for o in entries {
            log.push(o);
        }
        log
    }

    fn node(i: u32) -> impl Fn(ReplicaId) -> bool {
        move |r| r == ReplicaId(i)
    }

    #[test]
    fn committed_txs_filters_by_node() {
        let log = log_of([committed(0, 10, 100), committed(1, 20, 50)]);
        assert_eq!(log.tally(|_| true, ..).committed_txs, 150);
        assert_eq!(log.tally(node(0), ..).committed_txs, 100);
        assert_eq!(log.tally(node(2), ..).committed_txs, 0);
    }

    #[test]
    fn totals_and_windows() {
        let log = log_of([
            committed(0, 100_000, 10),
            committed(0, 600_000, 20),
            committed(0, 1_600_000, 40),
            committed(0, 2_000_000, 0),
        ]);
        assert_eq!(log.tally(node(0), ..).committed_txs, 70);
        assert_eq!(log.tally(node(0), 0..1_000_000).committed_txs, 30);
        assert_eq!(log.tally(node(0), 1_000_000..2_000_000).committed_txs, 40);
    }

    #[test]
    fn window_boundaries_are_half_open() {
        let log = log_of([committed(0, 1_000_000, 7)]);
        // `from` is inclusive, `to` is exclusive.
        assert_eq!(log.tally(node(0), 1_000_000..1_000_001).committed_txs, 7);
        assert_eq!(log.tally(node(0), 0..1_000_000).committed_txs, 0);
        assert_eq!(log.tally(node(0), 1_000_001..2_000_000).committed_txs, 0);
    }

    #[test]
    fn throughput_series_buckets_commits() {
        let log = log_of([
            committed(0, 100_000, 10),
            committed(0, 900_000, 20),
            committed(0, 1_100_000, 40),
            committed(1, 1_200_000, 80),
        ]);
        let series = log.throughput_series(ReplicaId(0), MICROS_PER_SEC, 3 * MICROS_PER_SEC);
        assert_eq!(series, vec![30.0, 40.0, 0.0]);
    }

    #[test]
    fn series_buckets_events() {
        let log = log_of([committed(0, 100_000, 10), committed(0, 1_200_000, 30)]);
        let s = log.throughput_series(ReplicaId(0), MICROS_PER_SEC, 3 * MICROS_PER_SEC);
        assert_eq!(s, vec![10.0, 30.0, 0.0]);
    }

    #[test]
    fn series_bucket_boundaries() {
        let log = log_of([
            committed(0, 0, 1),          // first instant of bucket 0
            committed(0, 999_999, 2),    // last instant of bucket 0
            committed(0, 1_000_000, 4),  // first instant of bucket 1
            committed(0, 2_999_999, 8),  // last instant inside the horizon
            committed(0, 3_000_000, 16), // at the horizon: excluded
        ]);
        let s = log.throughput_series(ReplicaId(0), MICROS_PER_SEC, 3 * MICROS_PER_SEC);
        assert_eq!(s, vec![3.0, 4.0, 8.0]);
        // A horizon that is not a bucket multiple rounds the bucket count up,
        // and the commit sitting exactly at 3 s now falls inside it.
        let s = log.throughput_series(ReplicaId(0), MICROS_PER_SEC, 3 * MICROS_PER_SEC + 1);
        assert_eq!(s.len(), 4);
        assert_eq!(s[3], 16.0);
    }

    #[test]
    fn view_changes_are_counted() {
        let view_change = |time, node, view| Observation {
            time,
            node: ReplicaId(node),
            kind: ObsKind::ViewChange { view },
        };
        let log = log_of([
            view_change(5, 0, 1),
            committed(1, 7, 3),
            view_change(9, 1, 2),
        ]);
        assert_eq!(
            log.tally(|_| true, ..),
            Tally {
                committed_txs: 3,
                view_changes: 2
            }
        );
        assert_eq!(log.tally(node(1), ..).view_changes, 1);
        assert_eq!(log.tally(|r| r != ReplicaId(1), 6..).view_changes, 0);
    }

    #[test]
    fn empty_log_reports_empty() {
        let log = ObservationLog::new();
        assert!(log.is_empty());
        assert_eq!(log.len(), 0);
        assert_eq!(log.tally(|_| true, ..), Tally::default());
    }
}
