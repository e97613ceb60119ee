//! The workspace-wide error hierarchy.
//!
//! Every fallible path of the secure-inference stack surfaces a
//! [`SedaError`]: integrity violations from the functional memory, tag
//! mismatches from the crypto layer, configuration errors from the
//! protection layer, malformed run specifications, and — for the sweep
//! engine's fault isolation — a captured panic from a poisoned point.
//! The contract the adversary suite enforces: **no injected fault ever
//! panics the stack; it degrades into one of these variants.**

use crate::functional::IntegrityViolation;
use crate::resilience::FailureReport;
use crate::scenario::ScenarioError;
use seda_crypto::mac::TagMismatch;
use seda_protect::ProtectError;
use std::error::Error;
use std::fmt;

/// A sealed-model stream violated its framing or ordering contract.
///
/// These are the *structural* failures of the provisioning pipeline
/// (`seda-stream`): malformed headers, out-of-order or misdescribed
/// frames, torn streams, and replays of a retired key epoch. Forged or
/// corrupted block contents surface as [`SedaError::Tag`] instead — the
/// chained transport MAC catches them before framing is even trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamViolation {
    /// The stream header was malformed before any block was accepted.
    BadHeader {
        /// What was wrong with it.
        reason: String,
    },
    /// A block frame declared metadata inconsistent with its position.
    BadFrame {
        /// Sequence number of the offending frame.
        seq: u64,
        /// What was wrong with it.
        reason: String,
    },
    /// A frame arrived out of sequence (reorder or splice).
    OutOfOrder {
        /// The sequence number the unsealer expected next.
        expected: u64,
        /// The sequence number the frame carried.
        got: u64,
    },
    /// The stream ended before every declared block was verified.
    Truncated {
        /// Blocks verified before the stream tore.
        verified: u64,
        /// Blocks the header declared.
        expected: u64,
    },
    /// A stream sealed under a retired key epoch was replayed.
    StaleEpoch {
        /// Epoch the stream was sealed under.
        stream: u64,
        /// Epoch the unsealer requires.
        current: u64,
    },
}

impl fmt::Display for StreamViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamViolation::BadHeader { reason } => {
                write!(f, "malformed stream header: {reason}")
            }
            StreamViolation::BadFrame { seq, reason } => {
                write!(f, "malformed frame at seq {seq}: {reason}")
            }
            StreamViolation::OutOfOrder { expected, got } => {
                write!(f, "frame out of order: expected seq {expected}, got {got}")
            }
            StreamViolation::Truncated { verified, expected } => {
                write!(
                    f,
                    "stream truncated: {verified} of {expected} blocks verified"
                )
            }
            StreamViolation::StaleEpoch { stream, current } => {
                write!(
                    f,
                    "stale stream replay: sealed under key epoch {stream}, current epoch is {current}"
                )
            }
        }
    }
}

impl Error for StreamViolation {}

/// Top-level error for the SeDA secure-inference stack.
#[derive(Debug, Clone, PartialEq)]
pub enum SedaError {
    /// Off-chip data failed integrity verification.
    Integrity(IntegrityViolation),
    /// A raw MAC tag comparison failed outside a localized region check.
    Tag(TagMismatch),
    /// The protection layer rejected a configuration or was misused.
    Protect(ProtectError),
    /// An access fell outside the protected memory image.
    OutOfBounds {
        /// Physical address of the offending access.
        pa: u64,
        /// Length of the access in bytes.
        len: usize,
        /// Size of the memory image in bytes.
        size: usize,
    },
    /// A run or sweep specification was malformed.
    InvalidSpec {
        /// What was wrong with it.
        reason: String,
    },
    /// A sweep point panicked; the panic was contained to that point.
    PointPanicked {
        /// `npu/model/scheme` label of the poisoned point.
        point: String,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// A sweep point exceeded its per-point wall-clock watchdog budget;
    /// the hang was converted into this typed failure and the rest of
    /// the sweep continued.
    PointTimedOut {
        /// `npu/model/scheme` label of the hung point.
        point: String,
        /// The watchdog budget that was exceeded, in milliseconds.
        budget_ms: u64,
    },
    /// A sweep point was never started because a `fail-fast` policy
    /// aborted the run after an earlier failure.
    PointCancelled {
        /// `npu/model/scheme` label of the unstarted point.
        point: String,
    },
    /// A scenario executed but one or more points failed under a
    /// `fail-fast` policy. Carries the structured report of *every*
    /// failed point; `source()` chains to the first failure's error.
    ScenarioPointFailed {
        /// Scenario name.
        scenario: String,
        /// Total points in the scenario's sweep.
        total_points: usize,
        /// Every failed point, in deterministic cross-product order.
        report: FailureReport,
    },
    /// A declarative scenario file failed to parse or validate.
    Scenario(ScenarioError),
    /// A sealed-model stream violated its framing or ordering contract.
    Stream(StreamViolation),
}

impl fmt::Display for SedaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SedaError::Integrity(v) => write!(f, "{v}"),
            SedaError::Tag(t) => write!(f, "{t}"),
            SedaError::Protect(p) => write!(f, "{p}"),
            SedaError::OutOfBounds { pa, len, size } => write!(
                f,
                "access of {len} bytes at PA {pa:#x} escapes the {size}-byte protected image"
            ),
            SedaError::InvalidSpec { reason } => write!(f, "invalid specification: {reason}"),
            SedaError::PointPanicked { point, message } => {
                write!(f, "sweep point {point} panicked: {message}")
            }
            SedaError::PointTimedOut { point, budget_ms } => {
                write!(
                    f,
                    "sweep point {point} exceeded its {budget_ms} ms watchdog budget"
                )
            }
            SedaError::PointCancelled { point } => {
                write!(
                    f,
                    "sweep point {point} cancelled by fail-fast after an earlier failure"
                )
            }
            SedaError::ScenarioPointFailed {
                scenario,
                total_points,
                report,
            } => {
                write!(
                    f,
                    "scenario {scenario}: {} of {total_points} points failed",
                    report.len()
                )?;
                if let Some(first) = report.first() {
                    write!(f, "; first: {}: {}", first.label(), first.error)?;
                }
                Ok(())
            }
            SedaError::Scenario(s) => write!(f, "{s}"),
            SedaError::Stream(s) => write!(f, "{s}"),
        }
    }
}

impl Error for SedaError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SedaError::Integrity(v) => Some(v),
            SedaError::Tag(t) => Some(t),
            SedaError::Protect(p) => Some(p),
            SedaError::Scenario(s) => Some(s),
            SedaError::Stream(s) => Some(s),
            SedaError::ScenarioPointFailed { report, .. } => {
                report.first().map(|f| &f.error as &(dyn Error + 'static))
            }
            _ => None,
        }
    }
}

impl From<IntegrityViolation> for SedaError {
    fn from(v: IntegrityViolation) -> Self {
        SedaError::Integrity(v)
    }
}

impl From<TagMismatch> for SedaError {
    fn from(t: TagMismatch) -> Self {
        SedaError::Tag(t)
    }
}

impl From<ProtectError> for SedaError {
    fn from(p: ProtectError) -> Self {
        SedaError::Protect(p)
    }
}

impl From<ScenarioError> for SedaError {
    fn from(s: ScenarioError) -> Self {
        SedaError::Scenario(s)
    }
}

impl From<StreamViolation> for SedaError {
    fn from(s: StreamViolation) -> Self {
        SedaError::Stream(s)
    }
}

impl SedaError {
    /// The integrity violation inside, if that is what this error is —
    /// the common case callers match on after a tampered read.
    pub fn integrity(&self) -> Option<&IntegrityViolation> {
        match self {
            SedaError::Integrity(v) => Some(v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seda_scalesim::TensorKind;

    #[test]
    fn display_and_source_chain() {
        let v = IntegrityViolation {
            layer: 3,
            tensor: TensorKind::Filter,
            block: Some(7),
            pa: 0x1c0,
        };
        let e: SedaError = v.clone().into();
        let msg = e.to_string();
        assert!(msg.contains("layer 3"), "{msg}");
        assert!(msg.contains("block 7"), "{msg}");
        assert!(msg.contains("0x1c0"), "{msg}");
        assert!(e.source().is_some(), "integrity errors chain their source");
        assert_eq!(e.integrity(), Some(&v));
    }

    #[test]
    fn conversions_preserve_variants() {
        let t = seda_crypto::mac::TagMismatch {
            expected: seda_crypto::MacTag(1),
            actual: seda_crypto::MacTag(2),
        };
        assert!(matches!(SedaError::from(t), SedaError::Tag(_)));
        let p = seda_protect::ProtectError::NoInferenceBegun;
        assert!(matches!(SedaError::from(p), SedaError::Protect(_)));
    }

    #[test]
    fn out_of_bounds_display_names_the_access() {
        let e = SedaError::OutOfBounds {
            pa: 0x40,
            len: 128,
            size: 96,
        };
        let msg = e.to_string();
        assert!(msg.contains("0x40") && msg.contains("128") && msg.contains("96"));
    }

    #[test]
    fn timeout_and_cancellation_display_the_point() {
        let t = SedaError::PointTimedOut {
            point: "edge/lenet/SeDA".to_owned(),
            budget_ms: 250,
        };
        let msg = t.to_string();
        assert!(
            msg.contains("edge/lenet/SeDA") && msg.contains("250"),
            "{msg}"
        );
        let c = SedaError::PointCancelled {
            point: "server/dlrm/SGX-64B".to_owned(),
        };
        assert!(c.to_string().contains("fail-fast"), "{c}");
    }

    #[test]
    fn scenario_point_failed_chains_to_the_first_failure() {
        use crate::resilience::{FailureReport, PointFailure};
        let v = IntegrityViolation {
            layer: 2,
            tensor: TensorKind::Ofmap,
            block: None,
            pa: 0x80,
        };
        let e = SedaError::ScenarioPointFailed {
            scenario: "fig5".to_owned(),
            total_points: 156,
            report: FailureReport {
                failures: vec![PointFailure {
                    npu: "server".to_owned(),
                    model: "resnet50".to_owned(),
                    scheme: "SeDA".to_owned(),
                    attempts: 3,
                    error: SedaError::Integrity(v),
                }],
            },
        };
        let msg = e.to_string();
        assert!(msg.contains("1 of 156"), "{msg}");
        assert!(msg.contains("server/resnet50/SeDA"), "{msg}");
        // source() reaches the failed point's error, which itself chains
        // to the integrity violation — the full causal chain survives.
        let source = e.source().expect("chains to the point's error");
        assert!(source.to_string().contains("layer 2"), "{source}");
        assert!(source.source().is_some(), "inner error keeps its own chain");
    }

    #[test]
    fn stream_violations_convert_display_and_chain() {
        let cases: Vec<(StreamViolation, &[&str])> = vec![
            (
                StreamViolation::BadHeader {
                    reason: "bad magic".to_owned(),
                },
                &["stream header", "bad magic"],
            ),
            (
                StreamViolation::BadFrame {
                    seq: 9,
                    reason: "layer id 4 out of range".to_owned(),
                },
                &["seq 9", "layer id 4"],
            ),
            (
                StreamViolation::OutOfOrder {
                    expected: 3,
                    got: 5,
                },
                &["expected seq 3", "got 5"],
            ),
            (
                StreamViolation::Truncated {
                    verified: 7,
                    expected: 12,
                },
                &["7 of 12"],
            ),
            (
                StreamViolation::StaleEpoch {
                    stream: 1,
                    current: 2,
                },
                &["epoch 1", "epoch is 2"],
            ),
        ];
        for (v, needles) in cases {
            let e = SedaError::from(v.clone());
            assert!(matches!(e, SedaError::Stream(_)));
            let msg = e.to_string();
            for needle in needles {
                assert!(msg.contains(needle), "{msg} missing {needle}");
            }
            assert!(e.source().is_some(), "stream errors chain their source");
        }
    }

    #[test]
    fn scenario_errors_convert_and_chain() {
        let s = ScenarioError::UnknownScheme {
            name: "SGX-63B".to_owned(),
        };
        let e = SedaError::from(s);
        assert!(matches!(e, SedaError::Scenario(_)));
        let msg = e.to_string();
        assert!(msg.contains("SGX-63B"), "{msg}");
        assert!(e.source().is_some(), "scenario errors chain their source");
    }
}
