//! Serving results: per-tenant SLA metrics, the stable `seda-serve/v1`
//! snapshot, and the expectation checks `seda_cli serve` enforces.
//!
//! The snapshot is hand-rolled JSON with a fixed key order and
//! six-decimal floats, so a golden fixture pins it byte-for-byte — the
//! same contract the telemetry and scenario snapshots follow.

use crate::spec::{ServeSetup, SimOutcome};
use seda::scenario::ServeExpectation;
use seda_telemetry::{json_string, HistogramSnapshot};
use std::fmt;
use std::fmt::Write as _;

/// Version tag embedded in every serving snapshot.
pub const SCHEMA: &str = "seda-serve/v1";

/// One tenant's serving metrics.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Sealing-key fingerprint (not the key).
    pub key_id: u64,
    /// Requests completed for this tenant.
    pub completed: u64,
    /// Latency histogram in cycles (arrival → completion).
    pub latency: HistogramSnapshot,
    /// Queue-depth histogram sampled at active cycles.
    pub queue_depth: HistogramSnapshot,
    /// Mean latency in simulated milliseconds.
    pub mean_ms: f64,
    /// p50 latency ceiling estimate in simulated milliseconds.
    pub p50_ms: f64,
    /// p95 latency ceiling estimate in simulated milliseconds.
    pub p95_ms: f64,
    /// p99 latency ceiling estimate in simulated milliseconds.
    pub p99_ms: f64,
    /// The tenant's SLA, if declared.
    pub sla_ms: Option<f64>,
    /// Completions that finished past their deadline.
    pub sla_violations: u64,
}

/// One scheduled hot model-swap, as the report tells it.
#[derive(Debug, Clone)]
pub struct SwapReport {
    /// The swapped tenant's name.
    pub tenant: String,
    /// The replacement image's fresh key fingerprint.
    pub key_id: u64,
    /// Protection blocks the provisioning stream carried.
    pub blocks: u64,
    /// When the swap was requested, in simulated milliseconds.
    pub requested_ms: f64,
    /// When the cutover landed, in simulated milliseconds (equals
    /// `requested_ms` when the tenant was already drained).
    pub cutover_ms: f64,
    /// Whether the cutover landed before the run drained. An unapplied
    /// swap reports `cutover_ms` of 0.
    pub applied: bool,
}

/// One replica's utilization.
#[derive(Debug, Clone, Copy)]
pub struct NpuReport {
    /// Cycles spent executing layers.
    pub busy_cycles: u64,
    /// Busy fraction of the simulated span.
    pub utilization: f64,
}

/// A completed serving run, summarized.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Scenario name.
    pub scenario: String,
    /// NPU configuration name.
    pub npu: String,
    /// Scheduler name.
    pub scheduler: String,
    /// Master seed.
    pub seed: u64,
    /// Replica count.
    pub replicas: u32,
    /// Batch limit.
    pub max_batch: u32,
    /// Requests the arrival process issued.
    pub requests: u64,
    /// Requests completed (equals `requests` for a drained run).
    pub completed: u64,
    /// Events processed by the kernel.
    pub events: u64,
    /// Cycle of the last completion.
    pub end_cycle: u64,
    /// Simulated span in milliseconds.
    pub span_ms: f64,
    /// Per-replica utilization.
    pub npus: Vec<NpuReport>,
    /// Per-tenant metrics, in lineup order.
    pub tenants: Vec<TenantReport>,
    /// Hot model-swaps in declaration order; empty when the scenario
    /// schedules none (and then absent from the snapshot, keeping
    /// swap-free goldens byte-identical).
    pub swaps: Vec<SwapReport>,
}

/// One violated serving expectation.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeFailure {
    /// Tenant name from the `expect` entry.
    pub tenant: String,
    /// Which ceiling was violated (`p50_ms_max`/`p95_ms_max`/`p99_ms_max`).
    pub metric: &'static str,
    /// The declared ceiling in milliseconds.
    pub limit: f64,
    /// The measured value in milliseconds.
    pub actual: f64,
}

impl fmt::Display for ServeFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "serving expectation failed: tenant {} has {} {:.4} ms, over the {:.4} ms ceiling",
            self.tenant, self.metric, self.actual, self.limit
        )
    }
}

impl ServeReport {
    /// Summarizes a kernel outcome under its setup.
    pub fn new(setup: &ServeSetup, outcome: &SimOutcome) -> Self {
        let to_ms = |cycles: u64| setup.cycles_to_ms(cycles);
        let swaps: Vec<SwapReport> = setup
            .spec
            .swaps
            .iter()
            .zip(&setup.swaps)
            .map(|(sim, seal)| {
                let landed = outcome
                    .swaps
                    .iter()
                    .find(|o| o.tenant == sim.tenant && o.requested == sim.at_cycle);
                SwapReport {
                    tenant: setup.spec.tenants[sim.tenant].name.clone(),
                    key_id: seal.key_id,
                    blocks: seal.blocks,
                    requested_ms: to_ms(sim.at_cycle),
                    cutover_ms: landed.map_or(0.0, |o| to_ms(o.cutover)),
                    applied: landed.is_some(),
                }
            })
            .collect();
        // A tenant whose swap landed reports the *replacement* key id:
        // the old key/VN space is retired at cutover.
        let live_key_id = |tenant: usize| {
            setup
                .spec
                .swaps
                .iter()
                .zip(&setup.swaps)
                .filter(|(sim, _)| {
                    sim.tenant == tenant
                        && outcome
                            .swaps
                            .iter()
                            .any(|o| o.tenant == tenant && o.requested == sim.at_cycle)
                })
                .map(|(_, seal)| seal.key_id)
                .next_back()
                .unwrap_or_else(|| setup.seals.get(tenant).map_or(0, |s| s.key_id))
        };
        let tenants = setup
            .spec
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let latency = outcome.tenant_latency[i].clone();
                let quant_ms = |q: f64| {
                    if latency.count == 0 {
                        0.0
                    } else {
                        to_ms(latency.quantile(q))
                    }
                };
                let sla_violations = match t.sla_cycles {
                    Some(sla) => outcome
                        .completions
                        .iter()
                        .filter(|c| c.tenant == i && c.completion > c.arrival.saturating_add(sla))
                        .count() as u64,
                    None => 0,
                };
                TenantReport {
                    name: t.name.clone(),
                    key_id: live_key_id(i),
                    completed: latency.count,
                    mean_ms: latency.mean() * 1000.0 / setup.clock_hz,
                    p50_ms: quant_ms(0.50),
                    p95_ms: quant_ms(0.95),
                    p99_ms: quant_ms(0.99),
                    sla_ms: t.sla_cycles.map(&to_ms),
                    sla_violations,
                    latency,
                    queue_depth: outcome.tenant_queue_depth[i].clone(),
                }
            })
            .collect();
        let npus = outcome
            .busy_cycles
            .iter()
            .map(|&busy| NpuReport {
                busy_cycles: busy,
                utilization: if outcome.end_cycle == 0 {
                    0.0
                } else {
                    busy as f64 / outcome.end_cycle as f64
                },
            })
            .collect();
        Self {
            scenario: setup.scenario.clone(),
            npu: setup.npu.clone(),
            scheduler: setup.spec.scheduler.name().to_owned(),
            seed: setup.spec.seed,
            replicas: setup.spec.replicas,
            max_batch: setup.spec.max_batch,
            requests: setup.spec.arrival.requests(),
            completed: outcome.completions.len() as u64,
            events: outcome.events,
            end_cycle: outcome.end_cycle,
            span_ms: to_ms(outcome.end_cycle),
            npus,
            tenants,
            swaps,
        }
    }

    /// Checks per-tenant latency ceilings, returning every violation.
    pub fn check_expectations(&self, expect: &[ServeExpectation]) -> Vec<ServeFailure> {
        let mut out = Vec::new();
        for e in expect {
            let Some(t) = self
                .tenants
                .iter()
                .find(|t| t.name.eq_ignore_ascii_case(&e.tenant))
            else {
                continue;
            };
            let checks = [
                ("p50_ms_max", e.p50_ms_max, t.p50_ms),
                ("p95_ms_max", e.p95_ms_max, t.p95_ms),
                ("p99_ms_max", e.p99_ms_max, t.p99_ms),
            ];
            for (metric, bound, actual) in checks {
                if let Some(limit) = bound {
                    if actual > limit {
                        out.push(ServeFailure {
                            tenant: t.name.clone(),
                            metric,
                            limit,
                            actual,
                        });
                    }
                }
            }
        }
        out
    }

    /// The run's headline numbers as stable JSON (schema `seda-serve/v1`):
    /// fixed key order, integers and six-decimal floats only, so golden
    /// fixtures pin it byte-for-byte at any thread count.
    pub fn snapshot_json(&self) -> String {
        let mut o = String::new();
        let _ = writeln!(o, "{{");
        let _ = writeln!(o, "  \"schema\": \"{SCHEMA}\",");
        let _ = writeln!(o, "  \"scenario\": {},", json_string(&self.scenario));
        let _ = writeln!(o, "  \"npu\": {},", json_string(&self.npu));
        let _ = writeln!(o, "  \"scheduler\": {},", json_string(&self.scheduler));
        let _ = writeln!(o, "  \"seed\": {},", self.seed);
        let _ = writeln!(o, "  \"replicas\": {},", self.replicas);
        let _ = writeln!(o, "  \"max_batch\": {},", self.max_batch);
        let _ = writeln!(o, "  \"requests\": {},", self.requests);
        let _ = writeln!(o, "  \"completed\": {},", self.completed);
        let _ = writeln!(o, "  \"events\": {},", self.events);
        let _ = writeln!(o, "  \"end_cycle\": {},", self.end_cycle);
        let _ = writeln!(o, "  \"span_ms\": {:.6},", self.span_ms);
        let _ = writeln!(o, "  \"npus\": [");
        for (i, n) in self.npus.iter().enumerate() {
            let comma = if i + 1 < self.npus.len() { "," } else { "" };
            let _ = writeln!(
                o,
                "    {{\"busy_cycles\": {}, \"utilization\": {:.6}}}{comma}",
                n.busy_cycles, n.utilization
            );
        }
        let _ = writeln!(o, "  ],");
        let _ = writeln!(o, "  \"tenants\": [");
        for (i, t) in self.tenants.iter().enumerate() {
            let comma = if i + 1 < self.tenants.len() { "," } else { "" };
            let _ = writeln!(o, "    {{");
            let _ = writeln!(o, "      \"name\": {},", json_string(&t.name));
            let _ = writeln!(o, "      \"key_id\": \"{:016x}\",", t.key_id);
            let _ = writeln!(o, "      \"completed\": {},", t.completed);
            let _ = writeln!(
                o,
                "      \"latency_cycles\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}}},",
                t.latency.count, t.latency.sum, t.latency.min, t.latency.max
            );
            let _ = writeln!(
                o,
                "      \"latency_ms\": {{\"mean\": {:.6}, \"p50\": {:.6}, \"p95\": {:.6}, \"p99\": {:.6}}},",
                t.mean_ms, t.p50_ms, t.p95_ms, t.p99_ms
            );
            let _ = writeln!(
                o,
                "      \"queue_depth\": {{\"max\": {}, \"samples\": {}}},",
                t.queue_depth.max, t.queue_depth.count
            );
            match t.sla_ms {
                Some(sla) => {
                    let _ = writeln!(o, "      \"sla_ms\": {sla:.6},");
                }
                None => {
                    let _ = writeln!(o, "      \"sla_ms\": null,");
                }
            }
            let _ = writeln!(o, "      \"sla_violations\": {}", t.sla_violations);
            let _ = writeln!(o, "    }}{comma}");
        }
        if self.swaps.is_empty() {
            let _ = writeln!(o, "  ]");
        } else {
            // The swaps section appears only when the scenario schedules
            // swaps, so swap-free goldens stay byte-identical.
            let _ = writeln!(o, "  ],");
            let _ = writeln!(o, "  \"swaps\": [");
            for (i, s) in self.swaps.iter().enumerate() {
                let comma = if i + 1 < self.swaps.len() { "," } else { "" };
                let _ = writeln!(o, "    {{");
                let _ = writeln!(o, "      \"tenant\": {},", json_string(&s.tenant));
                let _ = writeln!(o, "      \"key_id\": \"{:016x}\",", s.key_id);
                let _ = writeln!(o, "      \"blocks\": {},", s.blocks);
                let _ = writeln!(o, "      \"requested_ms\": {:.6},", s.requested_ms);
                let _ = writeln!(o, "      \"cutover_ms\": {:.6},", s.cutover_ms);
                let _ = writeln!(o, "      \"applied\": {}", s.applied);
                let _ = writeln!(o, "    }}{comma}");
            }
            let _ = writeln!(o, "  ]");
        }
        let _ = write!(o, "}}");
        o
    }

    /// Renders the human-facing capacity report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Serving {} on {} NPU x{}: {} scheduler, batch {}, seed {}",
            self.scenario, self.npu, self.replicas, self.scheduler, self.max_batch, self.seed
        );
        let _ = writeln!(
            out,
            "{} of {} requests completed over {:.3} simulated ms ({} events)",
            self.completed, self.requests, self.span_ms, self.events
        );
        for (i, n) in self.npus.iter().enumerate() {
            let _ = writeln!(
                out,
                "  npu[{i}]: busy {} cycles, utilization {:.1}%",
                n.busy_cycles,
                n.utilization * 100.0
            );
        }
        let _ = writeln!(
            out,
            "{:<14} {:>9} {:>10} {:>10} {:>10} {:>10} {:>9} {:>11}",
            "tenant", "completed", "mean ms", "p50 ms", "p95 ms", "p99 ms", "sla ms", "violations"
        );
        for t in &self.tenants {
            let sla = t
                .sla_ms
                .map_or_else(|| "-".to_owned(), |s| format!("{s:.2}"));
            let _ = writeln!(
                out,
                "{:<14} {:>9} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>9} {:>11}",
                t.name, t.completed, t.mean_ms, t.p50_ms, t.p95_ms, t.p99_ms, sla, t.sla_violations
            );
        }
        for s in &self.swaps {
            if s.applied {
                let _ = writeln!(
                    out,
                    "swap {}: {} blocks streamed in, key {:016x}, requested {:.4} ms, cutover {:.4} ms",
                    s.tenant, s.blocks, s.key_id, s.requested_ms, s.cutover_ms
                );
            } else {
                let _ = writeln!(
                    out,
                    "swap {}: requested {:.4} ms, never cut over (run drained first)",
                    s.tenant, s.requested_ms
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(values: &[u64]) -> HistogramSnapshot {
        let mut h = seda_telemetry::Histogram::new();
        for &v in values {
            h.record(v);
        }
        h.snapshot()
    }

    fn sample_report() -> ServeReport {
        ServeReport {
            scenario: "s".to_owned(),
            npu: "edge".to_owned(),
            scheduler: "fcfs".to_owned(),
            seed: 1,
            replicas: 1,
            max_batch: 1,
            requests: 3,
            completed: 3,
            events: 6,
            end_cycle: 1000,
            span_ms: 0.001,
            npus: vec![NpuReport {
                busy_cycles: 500,
                utilization: 0.5,
            }],
            tenants: vec![TenantReport {
                name: "alpha".to_owned(),
                key_id: 0xDEAD_BEEF,
                completed: 3,
                latency: hist(&[100, 200, 400]),
                queue_depth: hist(&[0, 1, 2]),
                mean_ms: 0.2,
                p50_ms: 0.25,
                p95_ms: 0.5,
                p99_ms: 0.5,
                sla_ms: Some(0.4),
                sla_violations: 1,
            }],
            swaps: vec![],
        }
    }

    #[test]
    fn snapshot_is_stable_and_tagged() {
        let r = sample_report();
        let a = r.snapshot_json();
        assert_eq!(a, r.snapshot_json(), "snapshot must be deterministic");
        assert!(a.contains("\"schema\": \"seda-serve/v1\""), "{a}");
        assert!(a.contains("\"key_id\": \"00000000deadbeef\""), "{a}");
        assert!(a.contains("\"sla_ms\": 0.400000"), "{a}");
        assert!(
            !a.contains("\"swaps\""),
            "swap-free reports must not grow a swaps section: {a}"
        );
    }

    #[test]
    fn snapshot_grows_a_swaps_section_only_when_swaps_exist() {
        let mut r = sample_report();
        r.swaps.push(SwapReport {
            tenant: "alpha".to_owned(),
            key_id: 0xFEED,
            blocks: 96,
            requested_ms: 0.5,
            cutover_ms: 0.75,
            applied: true,
        });
        let a = r.snapshot_json();
        assert!(a.contains("\"swaps\": ["), "{a}");
        assert!(a.contains("\"key_id\": \"000000000000feed\""), "{a}");
        assert!(a.contains("\"cutover_ms\": 0.750000"), "{a}");
        assert!(a.contains("\"applied\": true"), "{a}");
        assert!(
            a.ends_with("]\n}"),
            "swaps must stay inside the object: {a}"
        );
        assert!(
            r.render().contains("96 blocks streamed in"),
            "{}",
            r.render()
        );
    }

    /// Scenario validation accepts any non-empty tenant name, so control
    /// characters must be escaped, never written raw (RFC 8259).
    #[test]
    fn snapshot_escapes_control_characters_in_names() {
        let mut r = sample_report();
        r.tenants[0].name = "a\tb\"c".to_owned();
        let a = r.snapshot_json();
        assert!(a.contains(r#""name": "a\tb\"c","#), "{a}");
        assert!(!a.contains('\t'), "raw tab in snapshot: {a}");
    }

    #[test]
    fn expectations_flag_only_violations() {
        let r = sample_report();
        let pass = ServeExpectation {
            tenant: "ALPHA".to_owned(),
            p50_ms_max: Some(0.3),
            p95_ms_max: None,
            p99_ms_max: Some(1.0),
        };
        assert!(r.check_expectations(&[pass]).is_empty());
        let fail = ServeExpectation {
            tenant: "alpha".to_owned(),
            p50_ms_max: Some(0.2),
            p95_ms_max: Some(0.4),
            p99_ms_max: None,
        };
        let failures = r.check_expectations(&[fail]);
        assert_eq!(failures.len(), 2);
        assert_eq!(failures[0].metric, "p50_ms_max");
        assert!(failures[0].to_string().contains("alpha"), "{}", failures[0]);
    }

    #[test]
    fn render_mentions_every_tenant() {
        let r = sample_report();
        let text = r.render();
        assert!(text.contains("alpha"), "{text}");
        assert!(text.contains("violations"), "{text}");
    }
}
