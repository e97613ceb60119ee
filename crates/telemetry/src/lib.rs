//! Zero-dependency structured metrics for the SeDA workspace.
//!
//! The crate follows the `log`-crate model: instrumented code emits
//! events through free functions ([`counter_add`], [`record`],
//! [`Span::start`]) that dispatch to a process-global [`Sink`] installed
//! once by the binary. When no sink is installed — the default for every
//! test binary and for benchmarks that measure the un-instrumented
//! path — each event costs exactly one relaxed atomic load.
//!
//! # Quick start
//!
//! ```
//! // In the binary, once, at startup:
//! let sink = seda_telemetry::install_shared().expect("first install");
//!
//! // Anywhere in instrumented library code:
//! seda_telemetry::counter_add("crypto.aes.block_evals", 1);
//! seda_telemetry::record("dram.bank_occupancy_cycles", 17);
//! {
//!     let _span = seda_telemetry::Span::start("sweep.point_ns");
//!     // ... timed work ...
//! }
//!
//! // At shutdown, snapshot and export:
//! let snap = sink.snapshot();
//! assert_eq!(snap.counter("crypto.aes.block_evals"), Some(1));
//! println!("{}", snap.to_json()); // stable "seda-telemetry/v1" JSON
//! ```
//!
//! # Threading
//!
//! All dispatch is thread-safe. [`SharedSink`] aggregates counters and
//! histograms behind atomics with a read-locked registry, so parallel
//! sweep workers never serialize against each other after a metric's
//! first touch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod sink;
mod snapshot;
mod span;

pub use histogram::{AtomicHistogram, Histogram, HistogramSnapshot, BUCKETS};
pub use sink::{NoopSink, SharedSink, Sink};
pub use snapshot::{json_string, Snapshot, SCHEMA};
pub use span::Span;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Fast on/off gate checked before any sink dispatch. Kept separate from
/// the sink slot so a binary can install a sink once and still toggle
/// collection on and off (e.g. to exclude warmup iterations).
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The process-global sink, set at most once for the process lifetime.
static SINK: OnceLock<&'static dyn Sink> = OnceLock::new();

/// Error returned when a global sink is already installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstallError;

impl std::fmt::Display for InstallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("a global telemetry sink is already installed")
    }
}

impl std::error::Error for InstallError {}

/// Installs `sink` as the process-global event receiver and enables
/// collection.
///
/// The sink slot is write-once: a second install fails with
/// [`InstallError`] and leaves the first sink in place. The `'static`
/// bound matches the process-lifetime slot; leak a boxed sink
/// (`Box::leak`) or use [`install_shared`] for the common case.
pub fn install(sink: &'static dyn Sink) -> Result<(), InstallError> {
    SINK.set(sink).map_err(|_| InstallError)?;
    ENABLED.store(true, Ordering::Relaxed);
    Ok(())
}

/// Installs a fresh [`SharedSink`] as the global sink, enables
/// collection, and returns the sink for later [`SharedSink::snapshot`]
/// calls.
pub fn install_shared() -> Result<&'static SharedSink, InstallError> {
    let sink: &'static SharedSink = Box::leak(Box::new(SharedSink::new()));
    install(sink)?;
    Ok(sink)
}

/// Whether events currently reach the installed sink.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Toggles collection without touching the installed sink. Enabling
/// before any sink is installed is harmless: dispatch still no-ops on
/// the empty sink slot.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Adds `delta` to the monotonic counter `name`.
///
/// With telemetry disabled this is one relaxed atomic load.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if enabled() {
        if let Some(sink) = SINK.get() {
            sink.add(name, delta);
        }
    }
}

/// Records one `value` sample into the histogram `name`.
///
/// With telemetry disabled this is one relaxed atomic load.
#[inline]
pub fn record(name: &'static str, value: u64) {
    if enabled() {
        if let Some(sink) = SINK.get() {
            sink.record(name, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global sink is process-wide, so all tests touching it live in
    // this one #[test] to avoid cross-test interference.
    #[test]
    fn global_dispatch_lifecycle() {
        // Before install: disabled, dispatch is inert.
        assert!(!enabled());
        counter_add("g.pre_install", 1);
        record("g.pre_install", 1);

        // Enabling without a sink must also be inert (doesn't panic).
        set_enabled(true);
        counter_add("g.no_sink", 1);
        set_enabled(false);

        let sink = install_shared().expect("first install succeeds");
        assert!(enabled());

        counter_add("g.counter", 2);
        counter_add("g.counter", 3);
        record("g.histogram", 9);
        let _ = Span::start("g.span_ns");

        // Disabled events are dropped even with a sink installed.
        set_enabled(false);
        counter_add("g.counter", 100);
        set_enabled(true);

        let snap = sink.snapshot();
        assert_eq!(snap.counter("g.counter"), Some(5));
        assert_eq!(snap.counter("g.pre_install"), None);
        assert_eq!(snap.counter("g.no_sink"), None);
        assert_eq!(snap.histogram("g.histogram").map(|h| h.sum), Some(9));
        assert_eq!(snap.histogram("g.span_ns").map(|h| h.count), Some(1));

        // Second install fails and leaves the first sink active.
        assert_eq!(install(&NoopSink), Err(InstallError));
        assert!(install_shared().is_err());
        counter_add("g.counter", 1);
        assert_eq!(sink.snapshot().counter("g.counter"), Some(6));

        let msg = InstallError.to_string();
        assert!(msg.contains("already installed"));
    }
}
