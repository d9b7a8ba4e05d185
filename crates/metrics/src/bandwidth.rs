//! Outbound bandwidth accounting (Table III).
//!
//! The paper reports outbound bandwidth consumption, in Mb/s, split by
//! role (leader vs. non-leader) and by message kind (proposals,
//! microblocks, votes, acks).  [`BandwidthBreakdown::from_totals`] turns a
//! run's per-kind byte totals into those rows.

use serde::Serialize;
use smp_types::{SimTime, MICROS_PER_SEC};
use std::collections::{BTreeMap, HashMap};

/// Bandwidth consumption of one role, split by message kind.
#[derive(Clone, Debug, Default, Serialize)]
pub struct RoleBandwidth {
    /// Mb/s per message kind.
    pub mbps_by_kind: BTreeMap<String, f64>,
}

impl RoleBandwidth {
    /// Total Mb/s across every message kind.
    pub fn total_mbps(&self) -> f64 {
        self.mbps_by_kind.values().sum()
    }

    /// Mb/s for one message kind (0.0 if absent).
    pub fn mbps(&self, kind: &str) -> f64 {
        self.mbps_by_kind.get(kind).copied().unwrap_or(0.0)
    }
}

/// A leader / non-leader bandwidth breakdown over a measurement window.
#[derive(Clone, Debug, Default, Serialize)]
pub struct BandwidthBreakdown {
    /// Outbound bandwidth of the (average) leader replica.
    pub leader: RoleBandwidth,
    /// Outbound bandwidth of the average non-leader replica.
    pub non_leader: RoleBandwidth,
}

/// Converts a byte count over a window into Mb/s.
pub fn bytes_to_mbps(bytes: u64, window: SimTime) -> f64 {
    if window == 0 {
        return 0.0;
    }
    bytes as f64 * 8.0 / 1_000_000.0 * MICROS_PER_SEC as f64 / window as f64
}

impl BandwidthBreakdown {
    /// Table III's rule, applied to `bytes_by_kind`: the bytes of each
    /// message kind sent by all `n` replicas over `window` simulated
    /// microseconds.  Proposals are charged to the leader in full (exactly
    /// one leader transmits proposals at a time).  Every other kind is
    /// averaged over the `n` replicas and charged to both roles, because the
    /// leader also behaves as an ordinary replica for those kinds.
    pub fn from_totals(
        bytes_by_kind: &HashMap<&'static str, u64>,
        n: usize,
        window: SimTime,
    ) -> Self {
        let mut b = BandwidthBreakdown::default();
        for (&kind, &bytes) in bytes_by_kind {
            let total_mbps = bytes_to_mbps(bytes, window);
            if kind == "proposal" {
                b.leader.mbps_by_kind.insert(kind.into(), total_mbps);
            } else {
                let per_replica = total_mbps / n as f64;
                b.non_leader.mbps_by_kind.insert(kind.into(), per_replica);
                b.leader.mbps_by_kind.insert(kind.into(), per_replica);
            }
        }
        b
    }

    /// Formats the breakdown as paper-style table rows.
    pub fn rows(&self) -> Vec<(String, String, f64)> {
        let mut out = Vec::new();
        for (kind, mbps) in &self.leader.mbps_by_kind {
            out.push(("leader".to_string(), kind.clone(), *mbps));
        }
        out.push((
            "leader".to_string(),
            "SUM".to_string(),
            self.leader.total_mbps(),
        ));
        for (kind, mbps) in &self.non_leader.mbps_by_kind {
            out.push(("non-leader".to_string(), kind.clone(), *mbps));
        }
        out.push((
            "non-leader".to_string(),
            "SUM".to_string(),
            self.non_leader.total_mbps(),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_to_mbps_conversion() {
        // 12.5 MB over 1 s = 100 Mb/s.
        assert!((bytes_to_mbps(12_500_000, MICROS_PER_SEC) - 100.0).abs() < 1e-9);
        // Zero window is guarded.
        assert_eq!(bytes_to_mbps(1_000, 0), 0.0);
    }

    #[test]
    fn breakdown_averages_per_replica() {
        // Four replicas: 12.5 MB of proposals in all, 12.5 MB of microblocks
        // each, over one second.
        let totals = HashMap::from([("proposal", 12_500_000u64), ("microblock", 4 * 12_500_000)]);
        let b = BandwidthBreakdown::from_totals(&totals, 4, MICROS_PER_SEC);
        // Proposals are the leader's alone, at 100 Mb/s.
        assert!((b.leader.mbps("proposal") - 100.0).abs() < 1e-9);
        assert_eq!(b.non_leader.mbps("proposal"), 0.0);
        // Microblocks average to 100 Mb/s a replica, in both roles.
        assert!((b.non_leader.mbps("microblock") - 100.0).abs() < 1e-9);
        assert!((b.leader.mbps("microblock") - 100.0).abs() < 1e-9);
        assert!((b.leader.total_mbps() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn rows_include_sums() {
        let totals = HashMap::from([("proposal", 1_000_000u64), ("vote", 500_000)]);
        let b = BandwidthBreakdown::from_totals(&totals, 1, MICROS_PER_SEC);
        let rows = b.rows();
        assert!(rows
            .iter()
            .any(|(role, kind, _)| role == "leader" && kind == "SUM"));
        assert!(rows
            .iter()
            .any(|(role, kind, _)| role == "non-leader" && kind == "SUM"));
    }

    #[test]
    fn missing_kind_reports_zero() {
        let b = BandwidthBreakdown::default();
        assert_eq!(b.leader.mbps("proposal"), 0.0);
        assert_eq!(b.leader.total_mbps(), 0.0);
    }
}
