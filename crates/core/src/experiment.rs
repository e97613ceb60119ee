//! The paper's headline experiments: normalized memory traffic (Fig. 5)
//! and normalized performance (Fig. 6) across the 13 workloads and the
//! five protection schemes plus the unprotected baseline, on both NPUs.
//!
//! [`lineup`] builds the Fig. 5/6 [`Sweep`]; [`evaluations_of`] turns its
//! results into one normalized [`Evaluation`] per NPU.

use crate::pipeline::RunResult;
use crate::sweep::{Sweep, SweepResults};
use seda_models::Model;
use seda_scalesim::NpuConfig;
use serde::{Deserialize, Serialize};

/// The scheme lineup of Figs. 5-6, baseline first.
pub fn scheme_names() -> Vec<&'static str> {
    vec![
        "baseline", "SGX-64B", "SGX-512B", "MGX-64B", "MGX-512B", "SeDA",
    ]
}

/// One scheme's outcome on one workload, normalized to the baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SchemeOutcome {
    /// Scheme label.
    pub scheme: String,
    /// Total traffic relative to the unprotected baseline (Fig. 5 y-axis).
    pub traffic_norm: f64,
    /// Runtime relative to the unprotected baseline (Fig. 6 y-axis,
    /// expressed as slowdown: 1.0 = baseline speed).
    pub perf_norm: f64,
    /// Raw run result.
    pub run: RunResult,
}

/// All schemes' outcomes on one workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadEval {
    /// Workload label (paper's short name).
    pub workload: String,
    /// Outcomes in lineup order (baseline first).
    pub outcomes: Vec<SchemeOutcome>,
}

/// A full Fig. 5/6 evaluation on one NPU.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Evaluation {
    /// NPU configuration name.
    pub npu: String,
    /// Per-workload results.
    pub workloads: Vec<WorkloadEval>,
}

impl Evaluation {
    /// Arithmetic-mean normalized traffic per scheme (the "avg" bar group
    /// of Fig. 5).
    pub fn mean_traffic(&self) -> Vec<(String, f64)> {
        self.mean_of(|o| o.traffic_norm)
    }

    /// Arithmetic-mean normalized runtime per scheme (Fig. 6's average).
    pub fn mean_perf(&self) -> Vec<(String, f64)> {
        self.mean_of(|o| o.perf_norm)
    }

    fn mean_of(&self, f: impl Fn(&SchemeOutcome) -> f64) -> Vec<(String, f64)> {
        // Label-driven, not pinned to the Fig. 5/6 lineup: custom scheme
        // sets (scenario files, granularity ablations) average the same
        // way. Workloads in one evaluation share a scheme axis, so the
        // first workload's outcome labels are the evaluation's labels.
        let n = self.workloads.len() as f64;
        let Some(first) = self.workloads.first() else {
            return Vec::new();
        };
        first
            .outcomes
            .iter()
            .enumerate()
            .map(|(i, o)| {
                let sum: f64 = self.workloads.iter().map(|w| f(&w.outcomes[i])).sum();
                (o.scheme.clone(), sum / n)
            })
            .collect()
    }
}

/// The Fig. 5/6 sweep: `models` under the full scheme lineup
/// ([`scheme_names`], baseline first) on every NPU in `npus`.
///
/// All points share one thread pool and one trace cache: each (NPU,
/// model) trace is simulated exactly once and shared across the six
/// schemes, and results come back in deterministic lineup order. Add
/// [`Sweep::dram_map`] or other options before [`Sweep::run`], and pass
/// the results to [`evaluations_of`].
pub fn lineup(npus: &[NpuConfig], models: &[Model]) -> Sweep {
    Sweep::new()
        .npus(npus.iter().cloned())
        .models(models.iter().cloned())
        .schemes(scheme_names())
}

/// Normalizes a completed [`SweepResults`] into one [`Evaluation`] per
/// NPU, taking all labels from the sweep itself.
///
/// It works for any scheme set — the [`lineup`] sweep, or the custom
/// lineups and cache-varied schemes of the declarative scenario engine —
/// with the sweep's **first scheme** as the normalization baseline.
///
/// # Panics
///
/// Panics if the sweep has a failed point or an empty scheme axis; use
/// [`partial_evaluations_of`] for fault-tolerant handling.
pub fn evaluations_of(results: &SweepResults) -> Vec<Evaluation> {
    if let Some((_, _, _, e)) = results.failures().next() {
        panic!("sweep point failed: {e}");
    }
    partial_evaluations_of(results)
}

/// Like [`evaluations_of`], but tolerant of failed points: a workload is
/// included only when *every* scheme point for it on that NPU succeeded
/// (normalization needs the baseline, and the mean helpers need the
/// rectangular all-schemes-per-workload invariant). An NPU whose
/// workloads all failed yields an evaluation with an empty `workloads`
/// list — callers render what survived and report the rest through the
/// sweep's [`FailureReport`](crate::resilience::FailureReport).
pub fn partial_evaluations_of(results: &SweepResults) -> Vec<Evaluation> {
    let (n_npus, n_models, n_schemes) = results.shape();
    (0..n_npus)
        .map(|ni| Evaluation {
            npu: results.npu_labels()[ni].clone(),
            workloads: (0..n_models)
                .filter(|&mi| (0..n_schemes).all(|si| results.outcome(ni, mi, si).is_ok()))
                .map(|mi| workload_eval(results, ni, mi))
                .collect(),
        })
        .collect()
}

fn workload_eval(results: &SweepResults, ni: usize, mi: usize) -> WorkloadEval {
    let (_, _, n_schemes) = results.shape();
    let base = results.at(ni, mi, 0);
    let (t0, c0) = (base.traffic.total() as f64, base.total_cycles as f64);
    let outcomes = (0..n_schemes)
        .map(|si| {
            let run = results.at(ni, mi, si);
            SchemeOutcome {
                scheme: results.scheme_labels()[si].clone(),
                traffic_norm: run.traffic.total() as f64 / t0,
                perf_norm: run.total_cycles as f64 / c0,
                run: run.clone(),
            }
        })
        .collect();
    WorkloadEval {
        workload: results.model_labels()[mi].clone(),
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seda_models::zoo;

    #[test]
    fn partial_evaluations_drop_only_the_poisoned_workloads() {
        use crate::resilience::PointContext;
        use std::sync::Arc;
        // Fail exactly LeNet's SeDA point: LeNet loses its scheme row
        // and drops out of the means; DLRM survives untouched.
        let results = Sweep::new()
            .npu(NpuConfig::edge())
            .models([zoo::lenet(), zoo::dlrm()])
            .schemes(["baseline", "SeDA"])
            .fault_hook(Arc::new(|ctx: &PointContext| {
                if ctx.model == "let" && ctx.scheme == "SeDA" {
                    Err(crate::error::SedaError::InvalidSpec {
                        reason: "injected".to_owned(),
                    })
                } else {
                    Ok(())
                }
            }))
            .run();
        let evals = partial_evaluations_of(&results);
        assert_eq!(evals.len(), 1);
        assert_eq!(evals[0].workloads.len(), 1, "lenet must drop out");
        assert_eq!(evals[0].workloads[0].workload, "dlrm");
        assert_eq!(evals[0].workloads[0].outcomes.len(), 2, "full scheme row");
        // On a green sweep, partial and strict evaluations agree.
        let green = Sweep::new()
            .npu(NpuConfig::edge())
            .models([zoo::lenet(), zoo::dlrm()])
            .schemes(["baseline", "SeDA"])
            .run();
        let partial = partial_evaluations_of(&green);
        let strict = evaluations_of(&green);
        assert_eq!(partial.len(), strict.len());
        for (p, s) in partial.iter().zip(&strict) {
            assert_eq!(p.workloads.len(), s.workloads.len());
            for (pw, sw) in p.workloads.iter().zip(&s.workloads) {
                assert_eq!(pw.workload, sw.workload);
                for (po, so) in pw.outcomes.iter().zip(&sw.outcomes) {
                    assert_eq!(po.scheme, so.scheme);
                    assert_eq!(po.run, so.run, "partial must not perturb results");
                }
            }
        }
    }

    #[test]
    fn small_suite_orders_schemes_correctly() {
        // LeNet + DLRM keep the test fast while exercising conv and GEMM.
        let models = vec![zoo::lenet(), zoo::dlrm()];
        let evals = evaluations_of(&lineup(&[NpuConfig::edge()], &models).run());
        for w in &evals[0].workloads {
            let get = |name: &str| {
                w.outcomes
                    .iter()
                    .find(|o| o.scheme == name)
                    .map(|o| o.traffic_norm)
                    .expect("scheme present")
            };
            assert_eq!(get("baseline"), 1.0);
            assert!(get("SGX-64B") > get("MGX-64B"), "{}", w.workload);
            assert!(get("MGX-64B") > get("SeDA"), "{}", w.workload);
            assert!(get("SeDA") < 1.01, "{}", w.workload);
        }
    }

    #[test]
    fn means_cover_all_schemes() {
        let evals = evaluations_of(&lineup(&[NpuConfig::edge()], &[zoo::lenet()]).run());
        assert_eq!(evals[0].mean_traffic().len(), 6);
        assert_eq!(evals[0].mean_perf().len(), 6);
    }

    #[test]
    fn evaluate_simulates_each_workload_exactly_once() {
        // The Fig. 5/6 path must run tiling + burst generation once per
        // distinct (NPU, model) pair, not once per scheme.
        let models = vec![zoo::lenet(), zoo::dlrm()];
        let stats = lineup(&[NpuConfig::edge()], &models).run().stats;
        assert_eq!(stats.trace_misses, models.len() as u64);
        assert_eq!(
            stats.trace_hits,
            (models.len() * (scheme_names().len() - 1)) as u64
        );
    }

    #[test]
    fn evaluations_of_uses_sweep_labels_for_custom_schemes() {
        // Cache-varied BlockMac instances all *name* themselves
        // "SGX-64B"; the evaluation must carry the sweep labels instead,
        // or custom lineups would collapse into indistinguishable columns.
        use seda_protect::{BlockMacKind, BlockMacScheme, PROTECTED_BYTES};
        let results = Sweep::new()
            .npu(NpuConfig::edge())
            .model(zoo::lenet())
            .scheme("baseline")
            .scheme_with("SGX-64B+tiny", || {
                Box::new(BlockMacScheme::with_caches(
                    BlockMacKind::Sgx,
                    64,
                    PROTECTED_BYTES,
                    2 << 10,
                    4 << 10,
                ))
            })
            .run();
        let evals = evaluations_of(&results);
        assert_eq!(evals.len(), 1);
        let outcomes = &evals[0].workloads[0].outcomes;
        assert_eq!(outcomes[0].scheme, "baseline");
        assert_eq!(outcomes[1].scheme, "SGX-64B+tiny");
        assert_eq!(outcomes[0].traffic_norm, 1.0);
        let means = evals[0].mean_traffic();
        assert_eq!(means[1].0, "SGX-64B+tiny");
    }

    #[test]
    fn every_lineup_name_resolves_in_the_registry() {
        for name in scheme_names() {
            let scheme = seda_protect::scheme_by_name(name)
                .unwrap_or_else(|| panic!("{name} missing from registry"));
            assert_eq!(scheme.name(), name, "registry must echo the lineup name");
        }
    }
}
