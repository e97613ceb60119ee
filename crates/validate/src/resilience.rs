//! Resilience family: chaos-injected sweeps must recover bit-identically.
//!
//! The sweep engine's failure policies, watchdog, and checkpoint journal
//! claim a strong property: *fault handling is invisible in the results*.
//! A sweep that panicked, errored, or stalled at seeded points and
//! recovered via `retry` — or was killed and resumed from its journal —
//! must produce results bit-identical (`RunResult: PartialEq` compares
//! every `f64` exactly) to a clean run of the same sweep.
//!
//! Case 0 is the headline proof on the paper's full sweep (both NPUs ×
//! the 13-workload suite × all six schemes; debug builds substitute the
//! LeNet + DLRM subset for wall-clock): a seeded [`FaultPlan`] covering at
//! least 20% of points, one retried run, and one kill-then-resume run
//! through a real `seda-checkpoint/v1` journal file, each checked against
//! the clean run point for point. The remaining cases are randomized
//! small chaos sweeps exercising the `skip` policy's partial results and
//! journal-prefill recovery.

use crate::ensure;
use seda::pipeline::RunResult;
use seda::resilience::{
    load_journal, FailurePolicy, JournalHeader, JournalWriter, CHECKPOINT_SCHEMA,
};
use seda::sweep::{Sweep, SweepResults};
use seda::SedaError;
use seda_adversary::chaos::{FaultKind, FaultPlan};
use seda_adversary::Rng;
use seda_models::zoo;
use seda_scalesim::NpuConfig;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// The outcome of one flat point index, for label-free comparison.
fn point_outcome(results: &SweepResults, idx: usize) -> Result<&[RunResult], &SedaError> {
    let (_, m, s) = results.shape();
    results.outcome(idx / (m * s), (idx / s) % m, idx % s)
}

/// Asserts `chaos` reproduced `clean` bit for bit at every point.
fn ensure_bit_identical(
    clean: &SweepResults,
    chaos: &SweepResults,
    points: usize,
    what: &str,
) -> Result<(), String> {
    for idx in 0..points {
        let reference = point_outcome(clean, idx)
            .map_err(|e| format!("clean run failed at point {idx}: {e}"))?;
        match point_outcome(chaos, idx) {
            Ok(runs) => ensure!(
                runs == reference,
                "{what}: point {idx} recovered but is not bit-identical to the clean run"
            ),
            Err(e) => return Err(format!("{what}: point {idx} did not recover: {e}")),
        }
    }
    Ok(())
}

/// A process-unique journal path under the system temp directory.
fn journal_path(tag: &str, seed: u64) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "seda-resilience-{tag}-{}-{seed:x}-{n}.journal",
        std::process::id()
    ))
}

/// Case 0: the headline chaos-recovery proof on the paper's full sweep.
///
/// Clean run vs (a) a retried run under a ≥20%-coverage seeded fault plan
/// and (b) a kill-then-resume run replaying the first half of the clean
/// run's points from a real journal file — both must be bit-identical to
/// the clean run, with retry accounting matching the plan.
pub fn headline_proof(seed: u64) -> Result<(), String> {
    // Debug builds trade the 13-workload suite for the two cheapest
    // workloads; the release CI smoke runs the full 156-point sweep.
    let models = if cfg!(debug_assertions) {
        vec![zoo::lenet(), zoo::dlrm()]
    } else {
        zoo::all_models()
    };
    let schemes = seda::experiment::scheme_names();
    let points = 2 * models.len() * schemes.len();
    let make = || {
        Sweep::new()
            .npus([NpuConfig::server(), NpuConfig::edge()])
            .models(models.clone())
            .schemes(schemes.iter().copied())
    };

    let clean = make().run();
    for idx in 0..points {
        point_outcome(&clean, idx).map_err(|e| format!("clean point {idx} failed: {e}"))?;
    }

    // ≥20% of points faulted; every fault is transient past attempt 1.
    let plan = FaultPlan::seeded(seed, points, 20, 1, 25);
    ensure!(
        plan.len() * 5 >= points,
        "fault plan covers only {} of {points} points (below the 20% floor)",
        plan.len()
    );

    // (a) Retry recovery. The generous watchdog budget routes every
    // attempt through the timeout machinery without ever firing it, so
    // this also proves the watchdog path is bit-transparent.
    let retry = FailurePolicy::Retry {
        max_attempts: 3,
        base_backoff_ms: 1,
    };
    let chaos = make()
        .fault_hook(plan.hook())
        .on_failure(retry)
        .point_budget_ms(300_000)
        .run();
    ensure_bit_identical(&clean, &chaos, points, "retry run")?;
    for idx in 0..points {
        let report = &chaos.reports()[idx];
        let expected = match plan.fault_at(idx).map(|f| f.kind) {
            // Panics and typed errors burn attempt 1 and recover on 2.
            Some(FaultKind::Panic | FaultKind::Error) => 2,
            // A 25 ms stall finishes far inside the budget on attempt 1.
            Some(FaultKind::Stall { .. }) | None => 1,
        };
        ensure!(
            report.attempts_made() == expected,
            "retry run: point {idx} took {} attempts, planned {expected}",
            report.attempts_made()
        );
    }

    // (b) Kill-then-resume. Journal the first half of the clean run's
    // points (as a killed run would have), then resume the chaos sweep
    // from the journal file: the replayed half must skip its faults
    // entirely and the executed half must retry through them.
    let checkpointed = points / 2;
    let path = journal_path("headline", seed);
    let header = JournalHeader {
        schema: CHECKPOINT_SCHEMA.to_owned(),
        scenario: "resilience-headline".to_owned(),
        points,
        npus: clean.npu_labels().to_vec(),
        models: clean.model_labels().to_vec(),
        schemes: clean.scheme_labels().to_vec(),
    };
    let result = (|| {
        let writer = JournalWriter::create(&path, &header).map_err(|e| e.to_string())?;
        for idx in 0..checkpointed {
            let runs = point_outcome(&clean, idx).map_err(|e| format!("clean point {idx}: {e}"))?;
            writer.record(idx, runs);
        }
        writer.finish().map_err(|e| e.to_string())?;
        let journal = load_journal(&path).map_err(|e| e.to_string())?;
        ensure!(
            journal.completed() == checkpointed,
            "journal replays {} of the {checkpointed} recorded points",
            journal.completed()
        );
        let resumed = make()
            .fault_hook(plan.hook())
            .on_failure(retry)
            .resume_from(journal.points)
            .run();
        ensure_bit_identical(&clean, &resumed, points, "resumed run")?;
        ensure!(
            resumed.resumed_count() == checkpointed,
            "resumed run replayed {} points, journal held {checkpointed}",
            resumed.resumed_count()
        );
        for idx in 0..checkpointed {
            ensure!(
                resumed.reports()[idx].resumed && resumed.reports()[idx].attempts_made() == 0,
                "resumed run re-executed checkpointed point {idx}"
            );
        }
        Ok(())
    })();
    let _ = std::fs::remove_file(&path);
    result
}

/// One randomized case: a small chaos sweep checked under `retry`
/// (bit-identical recovery), `skip` (exactly the planned panic/error
/// points fail, in deterministic order), and journal-prefill resume
/// (faulted points replayed from a checkpoint never fire their faults).
pub fn check_case(rng: &mut Rng) -> Result<(), String> {
    let model = if rng.coin(1, 2) {
        zoo::lenet()
    } else {
        zoo::dlrm()
    };
    let pool = ["SGX-64B", "SGX-512B", "MGX-64B", "MGX-512B", "Securator"];
    let schemes = vec![
        "baseline",
        "SeDA",
        pool[rng.below(pool.len() as u64) as usize],
    ];
    let points = schemes.len();
    let fault_percent = rng.range(25, 100) as u32;
    let fail_attempts = rng.range(1, 2) as u32;
    let plan_seed = rng.next_u64();
    let plan = FaultPlan::seeded(plan_seed, points, fault_percent, fail_attempts, 5);
    let parallel = rng.coin(1, 2);
    let ctx = format!(
        "model={} schemes={schemes:?} faults={:?} fail_attempts={fail_attempts} parallel={parallel}",
        model.name(),
        plan.faulted_indices()
    );
    let make = || {
        let sweep = Sweep::new()
            .npu(NpuConfig::edge())
            .model(model.clone())
            .schemes(schemes.iter().copied());
        if parallel {
            sweep.threads(2)
        } else {
            sweep.serial()
        }
    };

    let clean = make().run();
    for idx in 0..points {
        point_outcome(&clean, idx).map_err(|e| format!("{ctx}: clean point {idx}: {e}"))?;
    }

    // Retry past the plan's transient horizon recovers bit-identically.
    let chaos = make()
        .fault_hook(plan.hook())
        .on_failure(FailurePolicy::Retry {
            max_attempts: fail_attempts + 1,
            base_backoff_ms: 1,
        })
        .run();
    ensure_bit_identical(&clean, &chaos, points, &ctx)?;
    for idx in 0..points {
        let expected = match plan.fault_at(idx).map(|f| f.kind) {
            Some(FaultKind::Panic | FaultKind::Error) => fail_attempts + 1,
            Some(FaultKind::Stall { .. }) | None => 1,
        };
        ensure!(
            chaos.reports()[idx].attempts_made() == expected,
            "{ctx}: retry point {idx} took {} attempts, planned {expected}",
            chaos.reports()[idx].attempts_made()
        );
    }

    // Skip leaves exactly the planned hard faults failed, everything else
    // bit-identical, and the failure report in ascending point order.
    let hard: Vec<usize> = plan
        .faulted_indices()
        .into_iter()
        .filter(|&i| {
            matches!(
                plan.fault_at(i).map(|f| f.kind),
                Some(FaultKind::Panic | FaultKind::Error)
            )
        })
        .collect();
    let skipped = make()
        .fault_hook(plan.hook())
        .on_failure(FailurePolicy::Skip)
        .run();
    for idx in 0..points {
        let reference =
            point_outcome(&clean, idx).map_err(|e| format!("{ctx}: clean point {idx}: {e}"))?;
        match point_outcome(&skipped, idx) {
            Ok(runs) => {
                ensure!(
                    !hard.contains(&idx),
                    "{ctx}: skip run succeeded at planned hard fault {idx}"
                );
                ensure!(
                    runs == reference,
                    "{ctx}: skip run point {idx} is not bit-identical to the clean run"
                );
            }
            Err(e) => ensure!(
                hard.contains(&idx),
                "{ctx}: skip run failed at unplanned point {idx}: {e}"
            ),
        }
    }
    let report = skipped.failure_report();
    ensure!(
        report.len() == hard.len(),
        "{ctx}: failure report holds {} entries for {} planned hard faults",
        report.len(),
        hard.len()
    );

    // Prefilling the faulted points from a checkpoint sidesteps their
    // faults entirely: the resumed sweep is all-green and bit-identical.
    let mut prefill: Vec<Option<Vec<RunResult>>> = vec![None; points];
    for &idx in &plan.faulted_indices() {
        let runs =
            point_outcome(&clean, idx).map_err(|e| format!("{ctx}: clean point {idx}: {e}"))?;
        prefill[idx] = Some(runs.to_vec());
    }
    let resumed = make()
        .fault_hook(plan.hook())
        .on_failure(FailurePolicy::Skip)
        .resume_from(prefill)
        .run();
    ensure_bit_identical(&clean, &resumed, points, &format!("{ctx}: prefilled run"))?;
    ensure!(
        resumed.resumed_count() == plan.len(),
        "{ctx}: prefilled run replayed {} of {} checkpointed points",
        resumed.resumed_count(),
        plan.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::{run_family, Family};

    #[test]
    fn resilience_family_passes_fixed_seed() {
        let report = run_family(
            Family::Resilience,
            0xC4A0_5001,
            Family::Resilience.default_cases(),
        );
        assert!(report.passed(), "{report}");
    }
}
