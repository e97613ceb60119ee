//! Seeded fault-injection adversary for the SeDA protection stack.
//!
//! This crate plays the active adversary of the paper's threat model: it
//! owns everything off-chip — ciphertext, stored MACs, version counters —
//! and perturbs it while the trusted on-chip verifier replays its read
//! path. Eight [`fault::TamperClass`]es (bit flips, stored-MAC
//! corruption, within/across-layer block splicing, stale replay,
//! truncation, VN tampering, and the passive SECA collision probe) run
//! against six [`config::ProtectConfig`]urations spanning the design
//! space of §III (ciphertext-only vs position-bound optBlk MACs, block vs
//! layer vs model granularity, shared-pad vs B-AES encryption).
//!
//! The product is the [`matrix::DetectionMatrix`]: every (class, config)
//! cell's observed verdict checked against the paper-claimed one.
//! The weak configurations *must* miss exactly the attacks the paper says
//! they miss (RePA against ciphertext-only folds, SECA against shared
//! pads, replay against unrooted off-chip state), and the full SeDA
//! configuration must catch all of them. Two properties hold everywhere:
//!
//! * **No fault panics the stack.** Every adversarial outcome surfaces as
//!   a typed [`seda::SedaError`] or as an accepted read; the fuzz
//!   tests pin this under `catch_unwind`.
//! * **Everything replays from a seed.** Faults derive from a SplitMix64
//!   stream, so any cell reproduces exactly from `(seed, row, column)`.
//!   [`Rng`] is the workspace's one generator: `seda-serve` and
//!   `seda-validate` derive their streams from it too.
//!
//! The same seeded machinery also attacks *execution* rather than data:
//! [`chaos`] builds deterministic fault plans (panics, typed errors,
//! stalls) over sweep points for `seda-core`'s resilience layer, proving
//! that retry/skip/resume recovery is bit-identical to a clean run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod config;
pub mod fault;
pub mod image;
pub mod matrix;
pub mod rng;

pub use chaos::{FaultKind, FaultPlan, PlannedFault};
pub use config::{Binding, MacLevel, PadGen, ProtectConfig};
pub use fault::{seca_probe, Experiment, TamperClass};
pub use image::{layer_pas, OffChipSnapshot, Pads, ProtectedImage, BLOCK, SEGMENT};
pub use matrix::{expected_verdict, run_cell, CellOutcome, DetectionMatrix, Verdict};
pub use rng::Rng;

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Satellite property: flipping one bit at *every* byte offset of a
    /// position-bound image must be detected — no blind spots anywhere in
    /// any optBlk of any layer.
    #[test]
    fn position_bound_macs_detect_bitflips_at_every_byte_offset() {
        let config = ProtectConfig::by_name("optblk-mac").expect("known config");
        let image = ProtectedImage::new(config, &[128, 64], [5; 16], [6; 16]).expect("valid");
        let mut rng = Rng::new(0x0FF5E7);
        let pristine = Experiment::fresh(image, &mut rng).expect("pristine verifies");
        for offset in 0..pristine.image.total_len() {
            let bit = (rng.below(8)) as u8;
            let mut tampered = pristine.clone();
            tampered.image.flip_ciphertext_bit(offset, bit);
            let err = tampered
                .image
                .read_model()
                .expect_err("a flipped ciphertext bit must never verify");
            assert!(
                err.integrity().is_some(),
                "offset {offset} bit {bit}: detection must be an integrity error, got {err}"
            );
        }
    }

    /// Tentpole acceptance: random (config, class, seed) triples never
    /// panic — every fault degrades into a verdict or a typed error.
    #[test]
    fn random_faults_never_panic() {
        let configs = ProtectConfig::matrix();
        let classes = TamperClass::all();
        let mut rng = Rng::new(0xF022);
        for trial in 0..200u64 {
            let config = configs[rng.below(configs.len() as u64) as usize];
            let class = classes[rng.below(classes.len() as u64) as usize];
            let cell_seed = rng.next_u64();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut cell_rng = Rng::new(cell_seed);
                matrix::run_cell(&config, class, &mut cell_rng)
            }));
            let cell = outcome.unwrap_or_else(|_| {
                panic!(
                    "trial {trial}: {}/{} panicked under seed {cell_seed:#x}",
                    config.name,
                    class.name()
                )
            });
            assert!(
                cell.is_ok(),
                "trial {trial}: harness-level failure for {}/{}",
                config.name,
                class.name()
            );
        }
    }

    #[test]
    fn verdict_glyphs_are_distinct() {
        let glyphs = [
            Verdict::Detected.glyph(),
            Verdict::Undetected.glyph(),
            Verdict::NotApplicable.glyph(),
        ];
        let mut unique = glyphs.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), glyphs.len());
    }
}
