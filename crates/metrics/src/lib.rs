//! Measurement utilities for the Stratus reproduction.
//!
//! The paper reports three kinds of numbers: throughput (KTx/s), commit
//! latency (ms, measured from first reception at a replica to commit), and
//! outbound bandwidth consumption split by role and message type
//! (Table III).  What a run committed is counted once, in the simulator's
//! observation log; this crate turns those counts into the paper's units:
//! the commit-latency histogram, Table III's bandwidth rule, the per-run
//! summary the harnesses print, and the JSON the benchmark artifacts use.

pub mod bandwidth;
pub mod histogram;
pub mod json;
pub mod summary;

pub use bandwidth::{bytes_to_mbps, BandwidthBreakdown, RoleBandwidth};
pub use histogram::LatencyHistogram;
pub use json::{JsonError, JsonValue};
pub use summary::RunSummary;
