//! The memory-protection scheme interface and the unprotected baseline.
//!
//! A scheme transforms each accelerator demand [`Burst`] into the 64 B
//! DRAM requests actually issued: demand lines, alignment overfetch,
//! read-modify-write fills for partial protection blocks, and metadata
//! (MAC / VN / integrity-tree / layer-MAC) accesses. Byte counts are
//! tallied per category so Fig. 5's traffic decomposition falls out.

use seda_dram::{Request, RunBuf};
use seda_scalesim::Burst;
use serde::{Deserialize, Serialize};

/// Line size of all emitted requests.
pub const LINE_BYTES: u64 = 64;

/// Traffic tally per category, in bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficBreakdown {
    /// Demand reads (bytes the accelerator asked for, 64 B-grid aligned).
    pub demand_read: u64,
    /// Demand writes.
    pub demand_write: u64,
    /// Extra reads from protection-granularity alignment (overfetch and
    /// read-modify-write fills of partial blocks).
    pub overfetch_read: u64,
    /// MAC line reads.
    pub mac_read: u64,
    /// MAC line writes (write-allocate fills count as reads).
    pub mac_write: u64,
    /// Version-number line reads.
    pub vn_read: u64,
    /// Version-number line writebacks.
    pub vn_write: u64,
    /// Integrity-tree node reads.
    pub tree_read: u64,
    /// Integrity-tree node writebacks.
    pub tree_write: u64,
    /// Layer-MAC traffic (SeDA's off-chip layer MACs).
    pub layer_mac: u64,
}

impl TrafficBreakdown {
    /// Total bytes moved.
    pub fn total(&self) -> u64 {
        self.demand_read + self.demand_write + self.overfetch_read + self.metadata()
    }

    /// Metadata bytes (everything that is not demand or overfetch).
    pub fn metadata(&self) -> u64 {
        self.mac_read
            + self.mac_write
            + self.vn_read
            + self.vn_write
            + self.tree_read
            + self.tree_write
            + self.layer_mac
    }

    /// Demand bytes on the 64 B grid.
    pub fn demand(&self) -> u64 {
        self.demand_read + self.demand_write
    }

    /// Traffic normalized to a baseline's total (Fig. 5's metric).
    pub fn normalized_to(&self, baseline: &TrafficBreakdown) -> f64 {
        self.total() as f64 / baseline.total() as f64
    }
}

/// Qualitative descriptor of a scheme (Table III row).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchemeInfo {
    /// Scheme label, e.g. `"SGX-64B"`.
    pub name: String,
    /// Encryption granularity description.
    pub encryption_granularity: String,
    /// Integrity granularity description.
    pub integrity_granularity: String,
    /// Off-chip metadata kinds fetched per access.
    pub offchip_metadata: String,
    /// Whether the scheme adapts to DNN tiling patterns.
    pub tiling_aware: bool,
    /// Whether encryption bandwidth scales without replicating engines.
    pub encryption_scalable: bool,
}

/// A memory-protection scheme that rewrites burst traces.
pub trait ProtectionScheme {
    /// Scheme label (e.g. `"SGX-64B"`).
    fn name(&self) -> &str;

    /// Table III descriptor.
    fn info(&self) -> SchemeInfo;

    /// Expands one demand burst into DRAM requests, appended to `out` in
    /// issue order.
    ///
    /// The output is run-encoded: a burst's demand lines and each side of
    /// its alignment fill go in as one [`RunBuf::push_run`] apiece, and
    /// metadata lines one [`RunBuf::push`] at a time, so a tensor walk
    /// costs a few calls per burst rather than one per 64 B line. The
    /// buffer merges whatever continues its last run; the request
    /// sequence is exactly the per-line one ([`RunBuf::iter`] expands
    /// it).
    fn transform(&mut self, burst: &Burst, out: &mut RunBuf);

    /// Flushes any buffered state (dirty metadata cache lines, final layer
    /// MAC updates) at end of inference, passing the requests to `sink`
    /// in issue order.
    fn finish(&mut self, sink: &mut dyn FnMut(Request));

    /// Byte tally per category so far.
    fn breakdown(&self) -> TrafficBreakdown;
}

/// Aligns down to the 64 B request grid.
pub fn line_down(addr: u64) -> u64 {
    addr / LINE_BYTES * LINE_BYTES
}

/// Aligns up to the 64 B request grid.
pub fn line_up(addr: u64) -> u64 {
    addr.div_ceil(LINE_BYTES) * LINE_BYTES
}

/// Emits the demand lines of a burst (64 B grid) as one run and tallies
/// them.
///
/// Returns the `[start, end)` byte span on the line grid.
pub fn emit_demand(burst: &Burst, tally: &mut TrafficBreakdown, out: &mut RunBuf) -> (u64, u64) {
    let start = line_down(burst.addr);
    let end = line_up(burst.end());
    let first = Request {
        addr: start,
        is_write: burst.is_write,
    };
    out.push_run(first, (end - start) / LINE_BYTES);
    if burst.is_write {
        tally.demand_write += end - start;
    } else {
        tally.demand_read += end - start;
    }
    (start, end)
}

/// The unprotected baseline: demand lines only.
#[derive(Debug, Clone, Default)]
pub struct Unprotected {
    tally: TrafficBreakdown,
}

impl Unprotected {
    /// Creates the baseline scheme.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ProtectionScheme for Unprotected {
    fn name(&self) -> &str {
        "baseline"
    }

    fn info(&self) -> SchemeInfo {
        SchemeInfo {
            name: "baseline".to_owned(),
            encryption_granularity: "none".to_owned(),
            integrity_granularity: "none".to_owned(),
            offchip_metadata: "none".to_owned(),
            tiling_aware: false,
            encryption_scalable: true,
        }
    }

    fn transform(&mut self, burst: &Burst, out: &mut RunBuf) {
        emit_demand(burst, &mut self.tally, out);
    }

    fn finish(&mut self, _sink: &mut dyn FnMut(Request)) {}

    fn breakdown(&self) -> TrafficBreakdown {
        self.tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seda_scalesim::TensorKind;

    #[test]
    fn demand_expansion_covers_grid() {
        let mut t = TrafficBreakdown::default();
        let mut out = RunBuf::new();
        let b = Burst::read(100, 100, TensorKind::Ifmap, 0);
        let (s, e) = emit_demand(&b, &mut t, &mut out);
        assert_eq!((s, e), (64, 256));
        assert_eq!(out.runs().len(), 1, "one run per burst");
        let reqs: Vec<Request> = out.iter().collect();
        assert_eq!(
            reqs,
            [Request::read(64), Request::read(128), Request::read(192)]
        );
        assert_eq!(t.demand_read, 192);
    }

    #[test]
    fn baseline_has_no_metadata() {
        let mut u = Unprotected::new();
        let mut out = RunBuf::new();
        u.transform(&Burst::write(0, 256, TensorKind::Ofmap, 0), &mut out);
        let mut n = out.requests();
        u.finish(&mut |_| n += 1);
        assert_eq!(n, 4);
        let b = u.breakdown();
        assert_eq!(b.demand_write, 256);
        assert_eq!(b.metadata(), 0);
        assert_eq!(b.total(), 256);
    }

    #[test]
    fn normalization_is_relative() {
        let a = TrafficBreakdown {
            demand_read: 100,
            ..TrafficBreakdown::default()
        };
        let b = TrafficBreakdown { mac_read: 25, ..a };
        assert!((b.normalized_to(&a) - 1.25).abs() < 1e-12);
    }
}
