//! Output digests pinned in `pins.json`, next to this package's manifest.
//!
//! A sweep workload pins one digest per size. `provision-serve` takes
//! its inputs from the seed, so it pins the unsealed model root and the
//! serving-outcome digest for a few listed seeds; for any other seed its
//! checks compare against outputs computed independently in the run.

use serde::Deserialize;
use std::sync::OnceLock;

#[derive(Debug, Clone, Deserialize)]
struct SweepPin {
    workload: String,
    size: String,
    digest: String,
}

/// The pinned outputs of `provision-serve` for one seed and size.
#[derive(Debug, Clone, Deserialize)]
pub struct ServePin {
    /// The benchmark seed.
    pub seed: u64,
    /// `full` or `small`.
    pub size: String,
    /// The unsealed model root, as 16 hex digits.
    pub root: String,
    /// Digest of the serving outcome, as 16 hex digits.
    pub outcome: String,
}

#[derive(Debug, Clone, Deserialize)]
struct Pins {
    sweeps: Vec<SweepPin>,
    serve: Vec<ServePin>,
}

fn pins() -> Option<&'static Pins> {
    static PINS: OnceLock<Option<Pins>> = OnceLock::new();
    PINS.get_or_init(|| {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("pins.json");
        let text = std::fs::read_to_string(path).ok()?;
        serde_json::from_str(&text).ok()
    })
    .as_ref()
}

/// The pinned digest of sweep workload `workload` at `size`.
pub fn sweep_digest(workload: &str, size: crate::Size) -> Option<String> {
    pins()?
        .sweeps
        .iter()
        .find(|p| p.workload == workload && p.size == size.name())
        .map(|p| p.digest.clone())
}

/// The pinned `provision-serve` outputs for `seed` at `size`, if listed.
pub fn serve_pin(seed: u64, size: crate::Size) -> Option<ServePin> {
    pins()?
        .serve
        .iter()
        .find(|p| p.seed == seed && p.size == size.name())
        .cloned()
}
