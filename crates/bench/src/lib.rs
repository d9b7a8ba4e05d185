//! Shared support for the per-figure / per-table benchmark harnesses.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (the README's "Figure / table harnesses" section is
//! the index).  The binaries accept `--quick` (default: a scaled-down run
//! that finishes in minutes on a laptop) and `--full` (the paper-scale
//! parameter grid).

pub mod artifact;

pub use artifact::{
    is_host_time, write_artifact, BenchArtifact, BenchPoint, BenchRecorder, BENCH_SCHEMA_VERSION,
};

use smp_replica::{ExperimentConfig, ExperimentResult};

/// Harness scale selected on the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Scaled-down parameters: small replica counts, short runs.
    Quick,
    /// Paper-scale parameters (hundreds of replicas, longer runs).
    Full,
}

impl Scale {
    /// Parses `--quick` / `--full` from the process arguments (defaults to
    /// quick).
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--full") {
            Scale::Full
        } else {
            Scale::Quick
        }
    }

    /// Picks `quick` or `full` depending on the scale.
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// Returns an extra free-form `--net <value>` style argument.
pub fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Prints the standard harness header.
pub fn header(title: &str, scale: Scale) {
    println!("==============================================================");
    println!("{title}");
    println!("scale: {scale:?} (use --full for the paper-scale grid)");
    println!("==============================================================");
}

/// Prints one figure point as a row.
pub fn print_point(x_label: &str, x: impl std::fmt::Display, result: &ExperimentResult) {
    println!(
        "{x_label}={x:<8} {:<10} thr={:>9.2} KTx/s  lat={:>8.1} ms  p95={:>8.1} ms  vc={}",
        result.summary.label,
        result.summary.throughput_ktps,
        result.summary.mean_latency_ms,
        result.summary.p95_latency_ms,
        result.view_changes
    );
}

/// Offered-load grid (tx/s) used by the saturation search, scaled to the
/// replica count and network (larger networks saturate at lower rates for
/// the native protocols but higher for shared-mempool ones).
pub fn rate_grid(scale: Scale, wan: bool) -> Vec<f64> {
    let base: Vec<f64> = match scale {
        Scale::Quick => vec![5_000.0, 20_000.0, 60_000.0],
        Scale::Full => vec![5_000.0, 20_000.0, 60_000.0, 120_000.0, 200_000.0],
    };
    if wan {
        base.into_iter().map(|r| r / 2.5).collect()
    } else {
        base
    }
}

/// Convenience: runs a saturation sweep and returns the point of highest
/// throughput (the first one on ties).
pub fn saturated(base: &ExperimentConfig, rates: &[f64]) -> ExperimentResult {
    let (best, results) = smp_replica::saturation_sweep(base, rates);
    results
        .into_iter()
        .nth(best)
        .expect("sweep returned at least one result")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }

    #[test]
    fn rate_grid_is_smaller_for_wan() {
        let lan = rate_grid(Scale::Quick, false);
        let wan = rate_grid(Scale::Quick, true);
        assert_eq!(lan.len(), wan.len());
        assert!(wan[0] < lan[0]);
    }
}
