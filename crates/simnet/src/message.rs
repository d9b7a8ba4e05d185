//! The message contract between protocol crates and the simulator.

/// What [`SimMessage::cpu_cost_us`] charges a message type that does not
/// model its own receiver cost, in simulated microseconds.
pub const DEFAULT_CPU_COST_US: f64 = 5.0;

/// A message that can travel over the simulated network.
///
/// Implementations provide the wire size (drives bandwidth/serialization
/// modelling), a stable kind string (drives per-message-type bandwidth
/// accounting for Table III), a CPU processing cost, and a priority flag
/// (consensus messages are prioritized over bulk data in Stratus-based
/// protocols; Section VI "Optimizations").
pub trait SimMessage: Clone + std::fmt::Debug {
    /// Number of bytes the message occupies on the wire.
    fn wire_size(&self) -> usize;

    /// A stable label identifying the message type for accounting
    /// (e.g. `"proposal"`, `"microblock"`, `"vote"`, `"ack"`).
    fn kind(&self) -> &'static str;

    /// CPU time (simulated microseconds) the *receiver* spends handling
    /// the message before the protocol handler runs.
    fn cpu_cost_us(&self) -> f64 {
        DEFAULT_CPU_COST_US
    }

    /// Whether the message should use the high-priority lane of the
    /// sender's outbound link.
    fn high_priority(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    struct Dummy;
    impl SimMessage for Dummy {
        fn wire_size(&self) -> usize {
            10
        }
        fn kind(&self) -> &'static str {
            "dummy"
        }
    }

    #[test]
    fn defaults_apply() {
        let d = Dummy;
        assert_eq!(d.wire_size(), 10);
        assert_eq!(d.kind(), "dummy");
        assert!(d.cpu_cost_us() > 0.0);
        assert!(!d.high_priority());
    }
}
