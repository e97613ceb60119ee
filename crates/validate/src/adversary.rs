//! Adversary-family oracle: random faults must land exactly where the
//! detection matrix says, and never as a panic.
//!
//! Each case fuzzes the fault-injection engine two ways:
//!
//! * Random `(configuration, tamper class)` cells from
//!   [`seda_adversary`]'s detection matrix, run under `catch_unwind`:
//!   the observed verdict must match the paper-claimed one, detections
//!   must carry a typed error, and undetected integrity faults must have
//!   actually corrupted or leaked something (no vacuous "undetected
//!   no-op" cells).
//! * A random single-byte flip somewhere in
//!   [`SecureMemory`](seda::functional::SecureMemory) mid-
//!   [`run_protected`]: the inference must either abort with a localized
//!   integrity violation or — when the flip hit a region that is
//!   rewritten before it is ever read — finish bit-identical to the
//!   unprotected reference. Nothing in between, and never a panic.

use crate::ensure;
use seda::functional::{run_protected, run_reference};
use seda_adversary::{run_cell, ProtectConfig, Rng, TamperClass, Verdict};
use seda_models::zoo;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Cells fuzzed per case (on top of the `run_protected` flip).
const CELLS_PER_CASE: usize = 3;

/// One randomized case over matrix cells and a functional-path flip.
pub fn check_case(rng: &mut Rng) -> Result<(), String> {
    let configs = ProtectConfig::matrix();
    let classes = TamperClass::all();

    for _ in 0..CELLS_PER_CASE {
        let config = *rng.pick(&configs);
        let class = *rng.pick(&classes);
        let cell_seed = rng.next_u64();
        let ctx = format!("{}/{} cell-seed={cell_seed:#x}", config.name, class.name());

        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut cell_rng = Rng::new(cell_seed);
            run_cell(&config, class, &mut cell_rng)
        }));
        let Ok(result) = outcome else {
            return Err(format!("{ctx}: fault injection panicked"));
        };
        let cell = result.map_err(|e| format!("{ctx}: harness-level failure: {e}"))?;
        ensure!(
            cell.matches(),
            "{ctx}: expected {:?}, observed {:?} ({})",
            cell.expected,
            cell.observed,
            cell.description
        );
        if cell.observed == Verdict::Detected && class != TamperClass::SecaDisclosure {
            ensure!(
                cell.error.is_some(),
                "{ctx}: detected without a typed error"
            );
        }
        if cell.observed == Verdict::Undetected {
            ensure!(
                cell.silent_corruption,
                "{ctx}: undetected fault neither corrupted nor leaked anything"
            );
        }
    }

    // A random byte flip against the functional secure-memory path. The
    // offset is drawn over the whole image, so some flips land in ofmap
    // slots that are rewritten before their first read — those must
    // complete with the reference output; every other flip must surface
    // as a typed integrity error.
    let model = zoo::lenet();
    let input: Vec<u8> = (0..32 * 32)
        .map(|_| (rng.next_u64() & 0xFF) as u8)
        .collect();
    let reference = run_reference(&model, &input);
    let offset_seed = rng.next_u64();
    let mask = 1u8 << rng.below(8);
    let ctx = format!("run_protected flip offset-seed={offset_seed:#x} mask={mask:#04x}");

    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_protected(&model, &input, |mem| {
            let raw = mem.raw_mut();
            let at = (offset_seed % raw.len() as u64) as usize;
            raw[at] ^= mask;
        })
    }));
    let Ok(result) = outcome else {
        return Err(format!(
            "{ctx}: panicked instead of returning a typed error"
        ));
    };
    match result {
        Ok(output) => ensure!(
            output == reference,
            "{ctx}: verified run diverged from the unprotected reference"
        ),
        Err(err) => {
            let violation = err
                .integrity()
                .ok_or_else(|| format!("{ctx}: non-integrity error {err}"))?;
            ensure!(
                (violation.layer as usize) < model.layers().len(),
                "{ctx}: violation names out-of-range layer {}",
                violation.layer
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::{run_family, Family};

    #[test]
    fn adversary_family_passes_fixed_seed() {
        let report = run_family(
            Family::Adversary,
            0xD1FF_0006,
            Family::Adversary.default_cases(),
        );
        assert!(report.passed(), "{report}");
    }
}
