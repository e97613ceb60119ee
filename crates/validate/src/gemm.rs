//! Differential oracle: cycle-accurate vs analytical systolic-array model.
//!
//! `exact_gemm` simulates every fold wavefront by wavefront;
//! `gemm_cycles` is the closed-form SCALE-Sim formula. They were derived
//! independently, so agreement over randomized shapes — especially near
//! fold boundaries, where remainder folds change the per-fold fill/drain —
//! is strong evidence both are right.

use crate::ensure;
use seda_adversary::Rng;
use seda_models::GemmShape;
use seda_scalesim::{exact_gemm, gemm_cycles, simulate_fold_ws, Dataflow, NpuConfig};

/// A small array keeps the cycle-accurate simulation cheap while still
/// producing multi-fold grids from modest dimensions.
fn random_array(rng: &mut Rng) -> NpuConfig {
    let mut cfg = NpuConfig::edge();
    cfg.rows = *rng.pick(&[2u32, 3, 4, 8, 16, 32]);
    cfg.cols = *rng.pick(&[2u32, 3, 4, 8, 16, 32]);
    cfg
}

/// A dimension biased toward fold boundaries: `k·n`, `k·n ± 1`, or a
/// uniform draw — the edges are where remainder-fold bookkeeping breaks.
fn random_dim(rng: &mut Rng, n: u32) -> u64 {
    let n = u64::from(n);
    match rng.below(4) {
        0 => rng.range(1, 3) * n,
        1 => (rng.range(1, 3) * n).saturating_sub(1).max(1),
        2 => rng.range(1, 3) * n + 1,
        _ => rng.range(1, 3 * n),
    }
}

/// One randomized case: a shape on a random array, checked under both
/// dataflows.
pub fn check_case(rng: &mut Rng) -> Result<(), String> {
    let cfg = random_array(rng);
    let shape = GemmShape {
        sr: random_dim(rng, cfg.rows),
        t: rng.range(1, 64),
        sc: random_dim(rng, cfg.cols),
        folds: rng.range(0, 3),
    };
    check_output_stationary(&cfg, shape)?;
    check_weight_stationary(&cfg, shape)
}

fn check_output_stationary(cfg: &NpuConfig, shape: GemmShape) -> Result<(), String> {
    let mut cfg = cfg.clone();
    cfg.dataflow = Dataflow::OutputStationary;
    let exact = exact_gemm(&cfg, shape);
    let analytical = gemm_cycles(&cfg, shape);
    let ctx = format!(
        "OS {}x{} array, shape sr={} t={} sc={} folds={}",
        cfg.rows, cfg.cols, shape.sr, shape.t, shape.sc, shape.folds
    );
    ensure!(
        exact.cycles == analytical,
        "{ctx}: exact {} cycles != analytical {}",
        exact.cycles,
        analytical
    );
    ensure!(
        exact.macs == shape.macs(),
        "{ctx}: exact {} MACs != shape's {}",
        exact.macs,
        shape.macs()
    );
    ensure!(
        exact.utilization.is_finite() && (0.0..=1.0).contains(&exact.utilization),
        "{ctx}: utilization {} outside [0, 1]",
        exact.utilization
    );
    Ok(())
}

fn check_weight_stationary(cfg: &NpuConfig, shape: GemmShape) -> Result<(), String> {
    let mut cfg = cfg.clone();
    cfg.dataflow = Dataflow::WeightStationary;
    let rows = u64::from(cfg.rows);
    let cols = u64::from(cfg.cols);
    let analytical = gemm_cycles(&cfg, shape);
    let ctx = format!(
        "WS {}x{} array, shape sr={} t={} sc={} folds={}",
        cfg.rows, cfg.cols, shape.sr, shape.t, shape.sc, shape.folds
    );

    // Cycle oracle: the analytical model charges every fold the full-array
    // pass `rows + sr + cols − 1`, so replay that fold cycle-accurately
    // and multiply by the fold grid.
    let ft = shape.t.div_ceil(rows);
    let fc = shape.sc.div_ceil(cols);
    let sim_cycles = ft * fc * simulate_fold_ws(rows, cols, shape.sr).cycles * shape.folds;
    ensure!(
        sim_cycles == analytical,
        "{ctx}: simulated {} cycles != analytical {}",
        sim_cycles,
        analytical
    );

    // MAC oracle: tile the reduction and columns onto the array with
    // remainder folds; the occupied-PE MAC total must reproduce the
    // shape's algebraic count even though the cycle model rounds up.
    let mut macs = 0u64;
    let mut add = |r: u64, c: u64, count: u64| {
        if r > 0 && c > 0 && count > 0 {
            macs += simulate_fold_ws(r, c, shape.sr).macs * count;
        }
    };
    add(rows, cols, (shape.t / rows) * (shape.sc / cols));
    add(rows, shape.sc % cols, shape.t / rows);
    add(shape.t % rows, cols, shape.sc / cols);
    add(shape.t % rows, shape.sc % cols, 1);
    macs *= shape.folds;
    ensure!(
        macs == shape.macs(),
        "{ctx}: tiled WS folds perform {} MACs, shape demands {}",
        macs,
        shape.macs()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_family, Family};

    #[test]
    fn gemm_family_passes_fixed_seed() {
        let report = run_family(Family::Gemm, 0xD1FF_0001, Family::Gemm.default_cases());
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn boundary_dims_cover_all_four_fold_kinds() {
        // The generator must actually hit exact multiples and ±1 edges.
        let mut rng = Rng::new(99);
        let mut kinds = [false; 3];
        for _ in 0..200 {
            let d = random_dim(&mut rng, 8);
            if d.is_multiple_of(8) {
                kinds[0] = true;
            } else if d % 8 == 7 {
                kinds[1] = true;
            } else if d % 8 == 1 {
                kinds[2] = true;
            }
        }
        assert!(kinds.iter().all(|&k| k), "{kinds:?}");
    }
}
