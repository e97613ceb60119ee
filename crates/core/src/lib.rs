//! # SeDA: Secure and Efficient DNN Accelerators with Hardware/Software Synergy
//!
//! A full-system reproduction of the DAC 2025 paper. The crate wires the
//! substrates together and implements the paper's own contributions:
//!
//! * **Bandwidth-aware encryption (B-AES)** — [`seda_crypto::otp`] derives
//!   per-segment one-time pads from a single AES engine's key schedule;
//!   [`attacks::seca`] demonstrates the attack it defends against and
//!   [`seda_hw`] models its area/power advantage (Fig. 4).
//! * **Multi-level integrity verification** — [`seda_protect::seda`]
//!   models optBlk/layer/model MACs with near-zero off-chip traffic;
//!   [`optblk`] implements the SecureLoop-style granularity search. The
//!   encrypted at-rest image and the re-permutation attack/defense
//!   (Algorithm 2) live in the `seda-adversary` crate.
//! * **Evaluation pipeline** — [`pipeline`] runs a workload through the
//!   SCALE-Sim-style accelerator model ([`seda_scalesim`]), a protection
//!   scheme ([`seda_protect`]), and the DRAM timing simulator
//!   ([`seda_dram`]); [`experiment::lineup`] sweeps the paper's 13
//!   workloads × 6 schemes (the baseline and five protection schemes) ×
//!   2 NPUs and [`report`] renders every table and figure.
//!
//! # Examples
//!
//! ```
//! use seda::pipeline::run_model;
//! use seda_models::zoo;
//! use seda_protect::{LayerMacStore, SedaScheme, Unprotected};
//! use seda_scalesim::NpuConfig;
//!
//! let npu = NpuConfig::edge();
//! let model = zoo::lenet();
//! let base = run_model(&npu, &model, &mut Unprotected::new());
//! let seda = run_model(&npu, &model, &mut SedaScheme::new(LayerMacStore::OffChip, 16 << 30));
//! let slowdown = seda.total_cycles as f64 / base.total_cycles as f64;
//! // LeNet is degenerately small (a whole inference is ~20k cycles), so a
//! // single extra metadata line is visible; on the paper's suite SeDA's
//! // slowdown is <1%. See `experiment::lineup`.
//! assert!(slowdown < 1.15);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacks;
pub mod error;
pub mod experiment;
pub mod functional;
pub mod optblk;
pub mod pipeline;
pub mod report;
pub mod resilience;
pub mod scenario;
pub mod sweep;

pub use error::SedaError;
pub use experiment::{evaluations_of, lineup, partial_evaluations_of, Evaluation};
pub use functional::{run_protected, run_reference, IntegrityViolation, SecureMemory};
pub use pipeline::{dram_config_for, run_model, run_trace, try_run_trace, LoweredTrace, RunResult};
pub use resilience::{
    load_journal, FailurePolicy, FailureReport, FaultHook, JournalContents, JournalHeader,
    JournalWriter, PointContext, PointFailure, PointReport, CHECKPOINT_SCHEMA,
};
pub use scenario::{Scenario, ScenarioError, ScenarioRun};
pub use sweep::{Sweep, SweepResults, SweepStats};

// Re-export the substrate crates under one roof for downstream users.
pub use seda_crypto as crypto;
pub use seda_dram as dram;
pub use seda_hw as hw;
pub use seda_models as models;
pub use seda_protect as protect;
pub use seda_scalesim as scalesim;
pub use seda_telemetry as telemetry;
