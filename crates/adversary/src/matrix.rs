//! The detection matrix: tamper class × protection configuration.
//!
//! For every cell the runner builds a fresh seeded image, injects one
//! fault of the row's class, and replays the trusted read path. The
//! observed verdict — *detected* (a typed [`SedaError`] surfaced),
//! *undetected* (the read verified; for integrity faults the accepted
//! bytes differ from what the trusted side wrote), or *not applicable* —
//! is compared against [`expected_verdict`], the paper-claimed behaviour
//! of each configuration. The whole matrix is a pure function of its
//! seed.

use crate::config::{Binding, MacLevel, PadGen, ProtectConfig};
use crate::fault::{seca_probe, Experiment, TamperClass};
use crate::image::ProtectedImage;
use crate::rng::Rng;
use seda::error::SedaError;

/// Layer-region byte sizes every matrix experiment uses (4 + 5 + 3
/// optBlks — enough for within- and across-layer splicing).
pub const MATRIX_LAYERS: [usize; 3] = [256, 320, 192];

/// Outcome of one (configuration, class) cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The trusted read surfaced a typed error.
    Detected,
    /// The read verified even though the adversary acted — by design for
    /// the weak configurations, a matrix failure anywhere else.
    Undetected,
    /// The fault cannot be expressed against this configuration.
    NotApplicable,
}

impl Verdict {
    /// One-character cell label (`D` / `U` / `-`).
    pub fn glyph(self) -> char {
        match self {
            Verdict::Detected => 'D',
            Verdict::Undetected => 'U',
            Verdict::NotApplicable => '-',
        }
    }
}

/// The paper-claimed verdict for one cell.
///
/// The rules compose from the constructions themselves:
///
/// * Any ciphertext change against an unchanged reference (bit flips,
///   truncation) is caught at every granularity.
/// * Corrupting a stored MAC is caught wherever one is stored; at model
///   level nothing is stored, so the fault is not applicable.
/// * Splices verify exactly when the MAC binds no position: per-block
///   ciphertext-only MACs travel with their blocks, and ciphertext-only
///   XOR folds are permutation-invariant within a fold (RePA) — though a
///   cross-layer splice moves tags *between* layer folds and is caught.
/// * Replay verifies when every reference the verifier consults is
///   off-chip and rolled back together: position binding (the bumped VN),
///   an on-chip root, or an on-chip model MAC each pin freshness.
/// * VN tampering is caught exactly when the VN is MAC-bound.
/// * The SECA probe leaks exactly under the shared pad generator.
pub fn expected_verdict(config: &ProtectConfig, class: TamperClass) -> Verdict {
    let position_bound = config.binding == Binding::PositionBound;
    match class {
        TamperClass::BitFlip | TamperClass::Truncate => Verdict::Detected,
        TamperClass::MacCorrupt => match config.level {
            MacLevel::Model => Verdict::NotApplicable,
            _ => Verdict::Detected,
        },
        TamperClass::SpliceWithin => {
            if position_bound {
                Verdict::Detected
            } else {
                Verdict::Undetected
            }
        }
        TamperClass::SpliceAcross => {
            if position_bound || config.level == MacLevel::Layer {
                Verdict::Detected
            } else {
                Verdict::Undetected
            }
        }
        TamperClass::Replay => {
            if position_bound || config.level == MacLevel::Model || config.on_chip_root {
                Verdict::Detected
            } else {
                Verdict::Undetected
            }
        }
        TamperClass::VnTamper => {
            if position_bound {
                Verdict::Detected
            } else {
                Verdict::Undetected
            }
        }
        TamperClass::SecaDisclosure => match config.pad {
            PadGen::Shared => Verdict::Undetected,
            PadGen::BAes => Verdict::Detected,
        },
    }
}

/// One evaluated matrix cell.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Configuration label (matrix column).
    pub config: &'static str,
    /// Tamper class (matrix row).
    pub class: TamperClass,
    /// Paper-claimed verdict.
    pub expected: Verdict,
    /// What the experiment observed.
    pub observed: Verdict,
    /// The typed error behind a [`Verdict::Detected`] observation.
    pub error: Option<SedaError>,
    /// For undetected integrity faults: whether the accepted plaintext
    /// differed from what the trusted side wrote (it always should — an
    /// unchanged plaintext would mean the fault was a no-op).
    pub silent_corruption: bool,
    /// Human-readable description of the injected fault.
    pub description: String,
}

impl CellOutcome {
    /// Whether the observation matches the paper-claimed verdict.
    pub fn matches(&self) -> bool {
        self.expected == self.observed
    }
}

/// Evaluates one cell under a dedicated RNG.
///
/// # Errors
///
/// Returns [`SedaError`] only for harness-level failures (a pristine
/// image failing its own verification); every adversarial outcome —
/// including detection — is data, not an error.
pub fn run_cell(
    config: &ProtectConfig,
    class: TamperClass,
    rng: &mut Rng,
) -> Result<CellOutcome, SedaError> {
    let expected = expected_verdict(config, class);
    let enc_key = [0x2b; 16];
    let mac_key = [0x7e; 16];

    if class == TamperClass::SecaDisclosure {
        let mut image = ProtectedImage::new(*config, &MATRIX_LAYERS, enc_key, mac_key)?;
        let leaked = seca_probe(&mut image, rng)?;
        return Ok(CellOutcome {
            config: config.name,
            class,
            expected,
            observed: if leaked {
                Verdict::Undetected
            } else {
                Verdict::Detected
            },
            error: None,
            silent_corruption: leaked,
            description: "probe two equal plaintext segments for a ciphertext collision".to_owned(),
        });
    }

    let image = ProtectedImage::new(*config, &MATRIX_LAYERS, enc_key, mac_key)?;
    let mut exp = Experiment::fresh(image, rng)?;
    let Some(description) = exp.inject(class, rng)? else {
        return Ok(CellOutcome {
            config: config.name,
            class,
            expected,
            observed: Verdict::NotApplicable,
            error: None,
            silent_corruption: false,
            description: format!("{} not expressible here", class.name()),
        });
    };
    match exp.image.read_model() {
        Err(e) => Ok(CellOutcome {
            config: config.name,
            class,
            expected,
            observed: Verdict::Detected,
            error: Some(e),
            silent_corruption: false,
            description,
        }),
        Ok(plains) => Ok(CellOutcome {
            config: config.name,
            class,
            expected,
            observed: Verdict::Undetected,
            error: None,
            silent_corruption: plains != exp.expected,
            description,
        }),
    }
}

/// The full evaluated matrix.
#[derive(Debug, Clone)]
pub struct DetectionMatrix {
    /// All cells, row-major: classes × configurations.
    pub cells: Vec<CellOutcome>,
    /// The root seed the matrix derives from.
    pub seed: u64,
}

impl DetectionMatrix {
    /// Evaluates every (class, configuration) cell under `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`SedaError`] only on harness-level failures; adversarial
    /// outcomes are cells.
    pub fn run(seed: u64) -> Result<Self, SedaError> {
        let configs = ProtectConfig::matrix();
        let classes = TamperClass::all();
        let mut cells = Vec::with_capacity(configs.len() * classes.len());
        for (ri, class) in classes.iter().enumerate() {
            for (ci, config) in configs.iter().enumerate() {
                let mut rng = Rng::for_stream(seed, (ri * configs.len() + ci) as u64);
                cells.push(run_cell(config, *class, &mut rng)?);
            }
        }
        Ok(Self { cells, seed })
    }

    /// Cells whose observation contradicts the paper-claimed verdict.
    pub fn mismatches(&self) -> Vec<&CellOutcome> {
        self.cells.iter().filter(|c| !c.matches()).collect()
    }

    /// Renders the matrix as an aligned text table (`D` detected, `U`
    /// undetected by design, `-` not applicable; a `!` marks any cell
    /// contradicting its claim).
    pub fn render(&self) -> String {
        let configs = ProtectConfig::matrix();
        let classes = TamperClass::all();
        let row_w = classes
            .iter()
            .map(|c| c.name().len())
            .max()
            .unwrap_or(0)
            .max("tamper class".len());
        let mut out = format!("{:row_w$}", "tamper class");
        for c in &configs {
            out.push_str(&format!("  {:>10}", c.name));
        }
        out.push('\n');
        for (ri, class) in classes.iter().enumerate() {
            out.push_str(&format!("{:row_w$}", class.name()));
            for ci in 0..configs.len() {
                let cell = &self.cells[ri * configs.len() + ci];
                let mark = if cell.matches() { ' ' } else { '!' };
                out.push_str(&format!("  {:>9}{}", cell.observed.glyph(), mark));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_matches_paper_claims_exhaustively() {
        let matrix = DetectionMatrix::run(0x5EDA).expect("harness runs clean");
        assert_eq!(matrix.cells.len(), 48, "8 classes x 6 configurations");
        let mismatches = matrix.mismatches();
        assert!(
            mismatches.is_empty(),
            "cells contradicting their claim:\n{}\n{}",
            mismatches
                .iter()
                .map(|c| format!(
                    "  {}/{}: expected {:?}, observed {:?} ({})",
                    c.config,
                    c.class.name(),
                    c.expected,
                    c.observed,
                    c.description
                ))
                .collect::<Vec<_>>()
                .join("\n"),
            matrix.render()
        );
    }

    #[test]
    fn matrix_is_deterministic_per_seed() {
        let a = DetectionMatrix::run(42).expect("runs");
        let b = DetectionMatrix::run(42).expect("runs");
        for (ca, cb) in a.cells.iter().zip(b.cells.iter()) {
            assert_eq!(ca.observed, cb.observed);
            assert_eq!(ca.description, cb.description);
        }
    }

    #[test]
    fn undetected_cells_are_real_attacks_not_noops() {
        let matrix = DetectionMatrix::run(0xACE).expect("runs");
        for cell in &matrix.cells {
            if cell.observed == Verdict::Undetected {
                assert!(
                    cell.silent_corruption,
                    "{}/{}: an undetected fault must actually corrupt or leak",
                    cell.config,
                    cell.class.name()
                );
            }
        }
    }

    #[test]
    fn detected_cells_surface_typed_errors() {
        let matrix = DetectionMatrix::run(0xD0D0).expect("runs");
        for cell in &matrix.cells {
            if cell.observed == Verdict::Detected && cell.class != TamperClass::SecaDisclosure {
                assert!(
                    cell.error.is_some(),
                    "{}/{} detected without a typed error",
                    cell.config,
                    cell.class.name()
                );
            }
        }
    }

    #[test]
    fn full_seda_detects_every_integrity_fault() {
        let seda = ProtectConfig::by_name("layer-mac").expect("known");
        for class in TamperClass::all() {
            assert_eq!(
                expected_verdict(&seda, class),
                Verdict::Detected,
                "{}",
                class.name()
            );
        }
    }

    #[test]
    fn render_shows_every_row_and_column() {
        let matrix = DetectionMatrix::run(1).expect("runs");
        let table = matrix.render();
        for class in TamperClass::all() {
            assert!(table.contains(class.name()), "{table}");
        }
        for config in ProtectConfig::matrix() {
            assert!(table.contains(config.name), "{table}");
        }
        assert!(!table.contains('!'), "no mismatch markers:\n{table}");
    }
}
