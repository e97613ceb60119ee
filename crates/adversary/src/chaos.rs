//! Seeded chaos engine for the sweep resilience layer.
//!
//! Where [`crate::fault`] attacks *data* — tampered ciphertext against the
//! verifier — this module attacks *execution*: it builds a deterministic
//! [`FaultPlan`] over the flat point indices of a [`seda::Sweep`] and turns
//! it into a [`seda::FaultHook`] that panics, raises typed errors, or
//! stalls at exactly the planned points. Every decision derives from the
//! root seed through the crate's SplitMix64 stream:
//!
//! * **which** points are faulted — a partial Fisher–Yates draw of
//!   `⌈points × fault_percent / 100⌉` indices;
//! * **how** each faulted point fails — panic, synthesized
//!   [`seda::SedaError::Integrity`] violation, or a stall the sweep's
//!   watchdog must convert into a timeout;
//! * **when** it recovers — each fault is transient, firing only on
//!   attempts `1..=fail_attempts`, so a `retry` policy with
//!   `max_attempts > fail_attempts` must produce results bit-identical to
//!   a clean run. That equality is the resilience validation family's
//!   headline proof.

use crate::rng::Rng;
use seda::{FaultHook, PointContext, SedaError};
use seda_scalesim::TensorKind;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// How a planned fault manifests when its point executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The hook panics; the sweep must contain it as
    /// [`seda::SedaError::PointPanicked`].
    Panic,
    /// The hook raises a synthesized integrity violation — the typed-error
    /// path, exercising retry accounting without touching the verifier.
    Error,
    /// The hook sleeps for this many milliseconds. Paired with a watchdog
    /// budget below the stall, the sweep must surface
    /// [`seda::SedaError::PointTimedOut`].
    Stall {
        /// Stall duration in milliseconds.
        ms: u64,
    },
}

impl FaultKind {
    /// Short name used in labels and logs.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Error => "error",
            FaultKind::Stall { .. } => "stall",
        }
    }
}

/// One planned transient fault at a specific sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedFault {
    /// How the point fails.
    pub kind: FaultKind,
    /// The fault fires on attempts `1..=fail_attempts` and then clears,
    /// so attempt `fail_attempts + 1` succeeds.
    pub fail_attempts: u32,
}

/// A deterministic schedule of transient faults over a sweep's points.
///
/// Two plans built from the same `(seed, points, fault_percent,
/// fail_attempts, stall_ms)` are identical; the plan is pure data and can
/// be inspected before (or instead of) being turned into a hook.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    points: usize,
    faults: BTreeMap<usize, PlannedFault>,
}

impl FaultPlan {
    /// Builds a plan faulting `⌈points × fault_percent / 100⌉` of the
    /// sweep's points (at least one, when `points > 0` and
    /// `fault_percent > 0`). Faulted indices are a partial Fisher–Yates
    /// draw under `Rng::for_stream(seed, 0)`; each chosen point's kind is
    /// drawn from its own derived stream, so plans with different sizes
    /// still agree on shared prefixes of the derivation tree.
    ///
    /// `fail_attempts` is clamped to at least 1 — a fault that never
    /// fires is not a fault. `stall_ms` sets the sleep for
    /// [`FaultKind::Stall`] points.
    pub fn seeded(
        seed: u64,
        points: usize,
        fault_percent: u32,
        fail_attempts: u32,
        stall_ms: u64,
    ) -> Self {
        let fail_attempts = fail_attempts.max(1);
        let mut faults = BTreeMap::new();
        let want = if points == 0 || fault_percent == 0 {
            0
        } else {
            let exact = (points as u64 * u64::from(fault_percent)).div_ceil(100);
            (exact.max(1) as usize).min(points)
        };
        if want > 0 {
            // Partial Fisher–Yates: after `want` steps the prefix of
            // `indices` is a uniform sample without replacement.
            let mut draw = Rng::for_stream(seed, 0);
            let mut indices: Vec<usize> = (0..points).collect();
            for i in 0..want {
                let j = i + draw.below((points - i) as u64) as usize;
                indices.swap(i, j);
                let idx = indices[i];
                let mut kind_rng = Rng::for_stream(seed, 1 + idx as u64);
                let kind = match kind_rng.below(3) {
                    0 => FaultKind::Panic,
                    1 => FaultKind::Error,
                    _ => FaultKind::Stall { ms: stall_ms },
                };
                faults.insert(
                    idx,
                    PlannedFault {
                        kind,
                        fail_attempts,
                    },
                );
            }
        }
        Self {
            seed,
            points,
            faults,
        }
    }

    /// Root seed the plan derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of sweep points the plan covers.
    pub fn points(&self) -> usize {
        self.points
    }

    /// Number of faulted points.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True when no point is faulted.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Fraction of points that are faulted, in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.points == 0 {
            0.0
        } else {
            self.faults.len() as f64 / self.points as f64
        }
    }

    /// The planned fault at `index`, if any.
    pub fn fault_at(&self, index: usize) -> Option<&PlannedFault> {
        self.faults.get(&index)
    }

    /// Faulted indices in ascending order.
    pub fn faulted_indices(&self) -> Vec<usize> {
        self.faults.keys().copied().collect()
    }

    /// Highest attempt number on which any planned fault still fires —
    /// a `retry` policy needs `max_attempts` strictly above this for the
    /// chaos run to recover everywhere.
    pub fn max_fail_attempts(&self) -> u32 {
        self.faults
            .values()
            .map(|f| f.fail_attempts)
            .max()
            .unwrap_or(0)
    }

    /// Turns the plan into a [`FaultHook`] for
    /// [`seda::Sweep::fault_hook`]. The hook is pure with respect to the
    /// plan: a faulted point fails on attempts `1..=fail_attempts` with
    /// its planned kind and succeeds afterwards; un-faulted points are
    /// untouched.
    pub fn hook(&self) -> FaultHook {
        let faults = self.faults.clone();
        let seed = self.seed;
        Arc::new(move |ctx: &PointContext| {
            let Some(fault) = faults.get(&ctx.index) else {
                return Ok(());
            };
            if ctx.attempt > fault.fail_attempts {
                return Ok(());
            }
            match fault.kind {
                // `resume_unwind` unwinds without calling the panic hook,
                // so a planned panic prints nothing; the sweep still reads
                // the `String` payload as the failure message.
                FaultKind::Panic => std::panic::resume_unwind(Box::new(format!(
                    "chaos: planned panic at point {} ({}) attempt {}",
                    ctx.index,
                    ctx.label(),
                    ctx.attempt
                ))),
                FaultKind::Error => Err(synthesize_violation(seed, ctx)),
                FaultKind::Stall { ms } => {
                    std::thread::sleep(Duration::from_millis(ms));
                    Ok(())
                }
            }
        })
    }
}

/// A synthesized integrity violation whose fields derive from
/// `(seed, point, attempt)` — distinguishable in reports, reproducible
/// across runs.
fn synthesize_violation(seed: u64, ctx: &PointContext) -> SedaError {
    let mut rng = Rng::for_stream(seed, (ctx.index as u64) << 8 | u64::from(ctx.attempt));
    let tensor = match rng.below(3) {
        0 => TensorKind::Ifmap,
        1 => TensorKind::Filter,
        _ => TensorKind::Ofmap,
    };
    SedaError::Integrity(seda::IntegrityViolation {
        layer: rng.below(64) as u32,
        tensor,
        block: Some(rng.below(256) as u32),
        pa: rng.next_u64() & 0xFFFF_FFC0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_per_seed() {
        let a = FaultPlan::seeded(0xC4A05, 156, 20, 1, 50);
        let b = FaultPlan::seeded(0xC4A05, 156, 20, 1, 50);
        assert_eq!(a.faulted_indices(), b.faulted_indices());
        for idx in a.faulted_indices() {
            assert_eq!(a.fault_at(idx), b.fault_at(idx));
        }
        let c = FaultPlan::seeded(0xC4A06, 156, 20, 1, 50);
        assert_ne!(
            a.faulted_indices(),
            c.faulted_indices(),
            "different seeds must (here) pick different points"
        );
    }

    #[test]
    fn coverage_meets_the_requested_floor() {
        for points in [1usize, 5, 24, 156] {
            let plan = FaultPlan::seeded(7, points, 20, 1, 10);
            assert!(
                plan.coverage() >= 0.20,
                "{points} points: coverage {} below the 20% floor",
                plan.coverage()
            );
            assert!(plan.len() <= points);
            for idx in plan.faulted_indices() {
                assert!(idx < points, "index {idx} out of range");
            }
        }
        assert!(FaultPlan::seeded(7, 0, 20, 1, 10).is_empty());
        assert!(FaultPlan::seeded(7, 24, 0, 1, 10).is_empty());
    }

    #[test]
    fn all_kinds_appear_on_a_large_plan() {
        let plan = FaultPlan::seeded(0xD15EA5E, 156, 100, 2, 10);
        assert_eq!(plan.len(), 156);
        let mut saw = [false; 3];
        for idx in plan.faulted_indices() {
            match plan.fault_at(idx).expect("planned").kind {
                FaultKind::Panic => saw[0] = true,
                FaultKind::Error => saw[1] = true,
                FaultKind::Stall { ms } => {
                    assert_eq!(ms, 10);
                    saw[2] = true;
                }
            }
        }
        assert!(saw.iter().all(|&s| s), "kinds drawn: {saw:?}");
        assert_eq!(plan.max_fail_attempts(), 2);
    }

    #[test]
    fn hook_is_transient_and_spares_clean_points() {
        let plan = FaultPlan::seeded(11, 10, 30, 2, 1);
        let hook = plan.hook();
        let faulted = plan
            .faulted_indices()
            .into_iter()
            .find(|&i| {
                matches!(
                    plan.fault_at(i).map(|f| f.kind),
                    Some(FaultKind::Error | FaultKind::Stall { .. })
                )
            })
            .expect("a non-panic fault among 3 draws");
        let ctx = |index: usize, attempt: u32| PointContext {
            index,
            attempt,
            npu: "edge".to_owned(),
            model: "let".to_owned(),
            scheme: "SeDA".to_owned(),
        };
        let during = hook(&ctx(faulted, 1));
        match plan.fault_at(faulted).expect("planned").kind {
            FaultKind::Error => {
                let err = during.expect_err("error fault must fail attempt 1");
                assert!(err.integrity().is_some(), "synthesized violation: {err}");
                // The same (point, attempt) synthesizes the same violation.
                let again = hook(&ctx(faulted, 1)).expect_err("still attempt 1");
                assert_eq!(format!("{err}"), format!("{again}"));
            }
            FaultKind::Stall { .. } => {
                during.expect("stall returns Ok after sleeping");
            }
            FaultKind::Panic => unreachable!("filtered above"),
        }
        hook(&ctx(faulted, 3)).expect("attempt 3 is past fail_attempts=2");
        let clean = (0..10)
            .find(|i| plan.fault_at(*i).is_none())
            .expect("some clean point");
        hook(&ctx(clean, 1)).expect("clean points are untouched");
    }

    #[test]
    fn panic_faults_panic_with_the_point_label() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let plan = FaultPlan::seeded(0xBEEF, 200, 100, 1, 1);
        let idx = plan
            .faulted_indices()
            .into_iter()
            .find(|&i| matches!(plan.fault_at(i).map(|f| f.kind), Some(FaultKind::Panic)))
            .expect("a panic fault in a full-coverage plan");
        let hook = plan.hook();
        let ctx = PointContext {
            index: idx,
            attempt: 1,
            npu: "server".to_owned(),
            model: "dlrm".to_owned(),
            scheme: "Baseline".to_owned(),
        };
        let payload =
            catch_unwind(AssertUnwindSafe(|| hook(&ctx))).expect_err("planned panic must fire");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("string payload");
        assert!(msg.contains("server/dlrm/Baseline"), "{msg}");
    }
}
