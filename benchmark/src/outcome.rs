//! What one measured run of one scenario produced, runtime-agnostic.

use crate::assemble::{ProbedReplica, Scenario};
use crate::ledger::LedgerSummary;
use crate::probe::{CallStats, Hub, Span};
use simnet::ObservationLog;
use smp_consensus::ConsensusEngine;
use smp_mempool::Mempool;
use smp_metrics::LatencyHistogram;
use smp_replica::MempoolWire;
use smp_types::MICROS_PER_SEC;

#[derive(Clone, Debug, Default)]
pub struct RunOutcome {
    pub label: String,
    /// Reference-host seconds from the start of construction to the first
    /// transaction offered (sockets: bound, dialled and past the hello
    /// barrier).
    pub setup_s: f64,
    /// Host seconds the measured run took.
    pub wall_s: f64,
    /// CPU seconds (user + system) over the measured run, in
    /// reference-host seconds (see `calib`).
    pub cpu_s: f64,
    /// The same as the host's clock counted them.
    pub cpu_raw_s: f64,
    /// Seconds load was offered for: simulated in the simulator, host on
    /// sockets.
    pub window_s: f64,
    /// Offered window plus drain, same clock.
    pub horizon_s: f64,
    pub ledger: LedgerSummary,
    /// Transactions the generators were scheduled to offer in the window.
    pub scheduled_txs: u64,
    /// Safety violations (`Ledger::violations`); empty on a correct run.
    pub violations: Vec<String>,
    pub height_collisions: u64,
    pub sibling_commits: u64,
    /// Commit latency by the workload's end-to-end definition, µs.
    pub latency: LatencyHistogram,
    /// The program's own latency stamps pooled over all replicas, µs.
    pub executed_latency: LatencyHistogram,
    /// Probe counters summed over replicas.
    pub stats: CallStats,
    pub must_waits: u64,
    pub fetches: u64,
    pub empty_payloads: u64,
    pub view_changes: u64,
    /// Highest view any engine reached.
    pub max_view: u64,
    pub created_microblocks: u64,
    /// Messages and bytes sent: modelled in the simulator, framed on
    /// sockets.
    pub wire_msgs: u64,
    pub wire_bytes: u64,
    pub spans: Vec<Span>,
    // --- simulator only ---
    pub events: u64,
    pub fingerprint: String,
    pub mb_derivations: u64,
    pub observations: Option<ObservationLog>,
    // --- sockets only ---
    pub queue_hwm: u64,
    pub enqueue_stalls: u64,
    pub reconnects: u64,
    pub peer_errors: Vec<String>,
    pub frame_errors: Vec<String>,
    pub clock_skew_us: f64,
    pub setup_retries: u64,
}

impl RunOutcome {
    /// An outcome for a run of `scn`, with what the scenario fixes.
    pub fn new(scn: &Scenario) -> Self {
        let seconds = |us: u64| us as f64 / MICROS_PER_SEC as f64;
        RunOutcome {
            label: scn.label.clone(),
            window_s: seconds(scn.offered_us),
            horizon_s: seconds(scn.horizon_us()),
            scheduled_txs: scn.tx_limit() * scn.n as u64,
            ..RunOutcome::default()
        }
    }

    /// Moves the hub's ledger results into the outcome.
    pub fn take_ledger(&mut self, hub: &Hub) {
        let mut ledger = hub.ledger();
        self.ledger = ledger.summary();
        self.violations = ledger.violations();
        self.height_collisions = ledger.height_collisions;
        self.sibling_commits = ledger.sibling_commits;
        self.executed_latency = std::mem::take(&mut ledger.executed);
        if self.latency.is_empty() {
            // Sockets: the one-clock samples where the payload shows
            // transaction ids, the pooled program stamps where it hides
            // them behind microblock references.
            self.latency = std::mem::take(&mut ledger.one_clock);
            if self.latency.is_empty() {
                self.latency = self.executed_latency.clone();
            }
        }
        self.clock_skew_us = hub.clock_skew_us();
    }

    /// Determinism: why `other`, a second run of the same scenario and
    /// seed, is not the same simulation, if it is not.
    pub fn divergence_from(&self, other: &RunOutcome) -> Option<String> {
        ((self.fingerprint.as_str(), self.events) != (other.fingerprint.as_str(), other.events))
            .then(|| {
                format!(
                    "{}: one seed, two simulations: log {} with {} events against log {} with {} events",
                    self.label, self.fingerprint, self.events, other.fingerprint, other.events
                )
            })
    }

    pub fn failed(&self) -> u64 {
        self.ledger.attempted - self.ledger.succeeded
    }

    pub fn failed_share(&self) -> f64 {
        if self.ledger.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.ledger.attempted as f64
        }
    }
}

/// Adds the counters of one probed replica (node, engine and mempool
/// probes) to the outcome.
pub fn collect_probes<E, M>(out: &mut RunOutcome, node: &ProbedReplica<E, M>, ns_per_tick: f64)
where
    E: ConsensusEngine,
    M: Mempool,
    M::Msg: MempoolWire,
{
    let replica = node.inner();
    let engine = replica.engine();
    let mempool = replica.mempool();
    for counters in [&node.counters, &engine.counters, &mempool.counters] {
        out.stats.merge_ticks(counters, ns_per_tick);
    }
    out.must_waits += mempool.must_waits;
    out.fetches += mempool.fetches;
    out.empty_payloads += engine.empty_payloads;
    out.view_changes += engine.view_changes;
    out.max_view = out.max_view.max(engine.current_view().0);
    out.created_microblocks += mempool.stats().created_microblocks;
}
