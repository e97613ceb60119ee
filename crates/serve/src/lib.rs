//! Deterministic multi-tenant NPU serving simulator.
//!
//! This crate answers the serving-side question the per-inference
//! pipeline cannot: what latency do tenants actually see when their
//! SeDA-protected models share an NPU fleet under load? It is a
//! discrete-event simulation with a monotone virtual clock — no wall
//! clock, no OS randomness — so a `(scenario, seed)` pair produces the
//! same outcome byte-for-byte on any machine, thread count, or re-run.
//!
//! The moving parts:
//!
//! - [`spec::build`] grounds a scenario's `"serving"` block: each
//!   tenant's per-layer service times come from the real
//!   [`pipeline`](seda::pipeline) simulator under the tenant's own
//!   protection scheme, and each tenant's weights are sealed into an
//!   independent [`ProtectedImage`](seda_adversary::ProtectedImage)
//!   key/version-number space.
//! - [`arrivals`] generates seeded open-loop Poisson traffic (with
//!   deterministic burst/diurnal modulation) or closed-loop client
//!   populations with exponential think times.
//! - [`kernel::simulate`] is the event-driven kernel: per-NPU layer
//!   boundary slots, a cursor over the pre-generated open-loop arrivals,
//!   and a binary heap with stable tie-breaking for closed-loop arrivals
//!   and swap-dues execute the shared per-cycle phase contract of
//!   [`sched`]; runs of quiet layer boundaries skip the phase machinery.
//! - [`reference::simulate_stepped`] is the brute-force 1-cycle
//!   time-stepped kernel the differential serving oracle replays the
//!   same specs through, requiring bit-identical [`SimOutcome`]s.
//! - [`report::ServeReport`] turns an outcome into per-tenant
//!   p50/p95/p99 latency, SLA violations, and utilization, renders the
//!   human capacity report, and emits the stable `seda-serve/v1`
//!   snapshot that golden scenarios pin.
//!
//! ```no_run
//! let scenario = seda::scenario::load("serve_mix").unwrap();
//! let run = seda_serve::serve_scenario(&scenario).unwrap();
//! assert_eq!(run.report.completed, run.report.requests);
//! ```

pub mod arrivals;
pub mod kernel;
pub mod reference;
pub mod report;
pub mod sched;
pub mod spec;

pub use arrivals::{open_loop_trace, Arrival};
pub use kernel::simulate;
pub use reference::simulate_stepped;
pub use report::{NpuReport, ServeFailure, ServeReport, SwapReport, TenantReport, SCHEMA};
pub use seda_adversary::Rng;
pub use spec::{
    build, ArrivalSim, BurstSim, Completion, DiurnalSim, Scheduler, ServeSetup, SimOutcome,
    SimSpec, SwapOutcome, SwapSeal, SwapSim, TenantSeal, TenantSim,
};

use seda::scenario::Scenario;
use seda::SedaError;

/// A fully executed serving run: the grounded setup, the raw kernel
/// outcome, and the summarized report.
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// The grounded simulation input.
    pub setup: ServeSetup,
    /// The raw kernel outcome (the oracle-comparable surface).
    pub outcome: SimOutcome,
    /// The summarized, human- and snapshot-facing report.
    pub report: ServeReport,
}

impl ServeRun {
    /// Violated `expect` entries from the scenario's serving block, in
    /// declaration order; empty when the scenario declares none.
    pub fn failures(&self, scenario: &Scenario) -> Vec<ServeFailure> {
        scenario
            .serving
            .as_ref()
            .and_then(|s| s.expect.as_deref())
            .map(|e| self.report.check_expectations(e))
            .unwrap_or_default()
    }
}

/// Grounds and executes a scenario's serving block through the
/// event-driven kernel.
///
/// # Errors
///
/// Returns a scenario error when the scenario has no serving block or
/// fails validation, and propagates any pipeline failure from grounding.
pub fn serve_scenario(scenario: &Scenario) -> Result<ServeRun, SedaError> {
    let setup = build(scenario)?;
    let outcome = simulate(&setup.spec);
    let report = ServeReport::new(&setup, &outcome);
    Ok(ServeRun {
        setup,
        outcome,
        report,
    })
}
