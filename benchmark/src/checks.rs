//! Correctness checks that need runs of their own.

use crate::assemble::Scenario;
use crate::sim::run_sim_unbounded;
use smp_replica::Protocol;
use smp_types::MICROS_PER_SEC;

/// Assembly equivalence: on a small configuration the harness's own
/// `Simulation` assembly, probes attached, must reproduce the
/// `ObservationLog` of `smp_replica::run` exactly.  This is what makes
/// the benchmark's numbers the program's numbers, and it proves the
/// probes are pure observers.
pub fn assembly_equivalence(seed: u64) -> Vec<String> {
    let mut errors = Vec::new();
    for protocol in [
        Protocol::StratusHotStuff,
        Protocol::NativeHotStuff,
        Protocol::Narwhal,
        Protocol::DagHotStuff,
    ] {
        let mut scn = Scenario::new(protocol, 4, 2_000.0, 16 * 1024);
        scn.offered_us = MICROS_PER_SEC;
        scn.drain_us = MICROS_PER_SEC / 2;
        scn.seed = seed;
        let reference = smp_replica::run(&scn.experiment()).observations;
        let probed = run_sim_unbounded(&scn);
        match probed.observations {
            Some(log) if log == reference && !log.is_empty() => {}
            Some(log) => errors.push(format!(
                "{}: the probed assembly's observation log ({} entries) differs from smp_replica::run's ({} entries)",
                scn.label,
                log.len(),
                reference.len()
            )),
            None => errors.push(format!("{}: no observation log kept", scn.label)),
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    #[test]
    fn probed_assembly_reproduces_smp_replica_run() {
        assert_eq!(super::assembly_equivalence(42), Vec::<String>::new());
    }
}
