//! A DDR4-style DRAM timing simulator in the spirit of Ramulator 2.0,
//! sized for the SeDA evaluation's trace volumes.
//!
//! The simulator models channels, ranks, banks, and open-row state with an
//! in-order per-channel front end and bank-level parallelism. It answers
//! the question the memory-protection study needs answered: *how many
//! memory-clock cycles does this request stream take*, with row-locality
//! effects included, so that security metadata accesses (which break
//! streaming locality) are charged realistically.
//!
//! # Examples
//!
//! ```
//! use seda_dram::{DramConfig, DramSim, Request};
//!
//! let mut sim = DramSim::new(DramConfig::server());
//! let stream: Vec<Request> = (0..256u64).map(|i| Request::read(i * 64)).collect();
//! sim.run_batch(&stream);
//! println!(
//!     "{} accesses in {} cycles ({:.1}% row hits)",
//!     sim.stats().accesses(),
//!     sim.elapsed_cycles(),
//!     sim.stats().hit_rate() * 100.0
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cmdsim;
pub mod config;
pub mod controller;
pub mod energy;
pub mod mapping;
pub mod request;
pub mod run;
pub mod stats;

pub use cmdsim::{simulate_commands, CommandStats};
pub use config::{DramConfig, ACCESS_BYTES};
pub use controller::{AccessTiming, DramSim};
pub use energy::{estimate as estimate_energy, EnergyEstimate, EnergyParams};
pub use mapping::{AddressMapping, DramCoord};
pub use request::{Request, RowOutcome};
pub use run::{Run, RunBuf};
pub use stats::DramStats;
