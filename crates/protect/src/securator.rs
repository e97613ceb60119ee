//! A Securator-style protection scheme (HPCA 2023), modelled as the paper
//! describes it: layer-level freshness/integrity checks that XOR all block
//! MACs of a layer (32 B hash blocks), with counters managed on-chip and
//! parallel T-AES encryption.
//!
//! Two properties distinguish it from SeDA and motivate §III's attacks:
//!
//! * its layer check hashes ciphertext without position binding, so it is
//!   vulnerable to the Re-Permutation Attack (Algorithm 2) — see the
//!   `layer-ct` configuration of `seda-adversary`'s detection matrix;
//! * its fixed 32 B hash granularity ignores tile overlap, so halo rows
//!   re-fetched by neighbouring strips are re-hashed every time. The
//!   redundant work is tracked in [`SecuratorScheme::redundant_hash_bytes`]
//!   (it costs hash-engine energy, not DRAM traffic).
//!
//! Traffic-wise the scheme is SeDA-like (layer MACs off-chip, one line per
//! layer each way), which is why the paper's Fig. 5/6 lineup focuses on
//! SGX/MGX instead; this implementation exists for the security ablations
//! and the hash-work comparison.

use crate::layout::LINE_BYTES;
use crate::scheme::{emit_demand, ProtectionScheme, SchemeInfo, TrafficBreakdown};
use seda_dram::{Request, RunBuf};
use seda_scalesim::{Burst, TensorKind};
use std::collections::HashSet;

/// Securator's fixed hash-block granularity.
pub const HASH_BLOCK: u64 = 32;

/// The Securator-style layer-XOR-MAC scheme.
///
/// # Examples
///
/// ```
/// use seda_dram::RunBuf;
/// use seda_protect::securator::SecuratorScheme;
/// use seda_protect::scheme::ProtectionScheme;
/// use seda_scalesim::{Burst, TensorKind};
///
/// let mut s = SecuratorScheme::new(16 << 30);
/// s.transform(&Burst::read(0, 4096, TensorKind::Ifmap, 0), &mut RunBuf::new());
/// assert_eq!(s.breakdown().overfetch_read, 0);
/// ```
#[derive(Debug, Clone)]
pub struct SecuratorScheme {
    layer_mac_base: u64,
    current_layer: Option<u32>,
    tally: TrafficBreakdown,
    /// 32 B blocks hashed so far (including re-hashes).
    hash_blocks: u64,
    /// Ifmap blocks seen per layer, to count redundant re-hashes.
    seen_this_layer: HashSet<u64>,
    redundant_hash_bytes: u64,
}

impl SecuratorScheme {
    /// Creates the scheme over a `protected_bytes` region.
    pub fn new(protected_bytes: u64) -> Self {
        Self {
            layer_mac_base: protected_bytes * 2 + (protected_bytes / 2),
            current_layer: None,
            tally: TrafficBreakdown::default(),
            hash_blocks: 0,
            seen_this_layer: HashSet::new(),
            redundant_hash_bytes: 0,
        }
    }

    /// Total bytes hashed by the integrity engine (demand plus re-hashes).
    pub fn hashed_bytes(&self) -> u64 {
        self.hash_blocks * HASH_BLOCK
    }

    /// Bytes re-hashed because tile halos re-fetched data the layer check
    /// had already folded — work SeDA's tiling-aware optBlk avoids.
    pub fn redundant_hash_bytes(&self) -> u64 {
        self.redundant_hash_bytes
    }

    fn switch_layer(&mut self, layer: u32, out: &mut RunBuf) {
        if self.current_layer == Some(layer) {
            return;
        }
        if self.current_layer.is_some() {
            out.push(Request::write(self.layer_mac_line()));
            self.tally.layer_mac += LINE_BYTES;
        }
        self.current_layer = Some(layer);
        self.seen_this_layer.clear();
        out.push(Request::read(self.layer_mac_line()));
        self.tally.layer_mac += LINE_BYTES;
    }

    fn layer_mac_line(&self) -> u64 {
        self.layer_mac_base + u64::from(self.current_layer.unwrap_or(0)) * LINE_BYTES
    }
}

impl ProtectionScheme for SecuratorScheme {
    fn name(&self) -> &str {
        "Securator"
    }

    fn info(&self) -> SchemeInfo {
        SchemeInfo {
            name: "Securator".to_owned(),
            encryption_granularity: "16B (4 parallel AES engines)".to_owned(),
            integrity_granularity: "32B blocks XOR-folded per layer".to_owned(),
            offchip_metadata: "layer MAC".to_owned(),
            tiling_aware: false,
            encryption_scalable: false,
        }
    }

    fn transform(&mut self, burst: &Burst, out: &mut RunBuf) {
        self.switch_layer(burst.layer, out);
        let (start, end) = emit_demand(burst, &mut self.tally, out);
        // Every fetched 32 B block is hashed into the layer MAC; re-reads
        // of halo blocks are hashed again (no tiling awareness).
        let blocks = (end - start) / HASH_BLOCK;
        self.hash_blocks += blocks;
        if burst.tensor == TensorKind::Ifmap && !burst.is_write {
            let mut b = start / HASH_BLOCK;
            while b * HASH_BLOCK < end {
                if !self.seen_this_layer.insert(b) {
                    self.redundant_hash_bytes += HASH_BLOCK;
                }
                b += 1;
            }
        }
    }

    fn finish(&mut self, sink: &mut dyn FnMut(Request)) {
        if self.current_layer.is_some() {
            sink(Request::write(self.layer_mac_line()));
            self.tally.layer_mac += LINE_BYTES;
            self.current_layer = None;
        }
        self.seen_this_layer.clear();
    }

    fn breakdown(&self) -> TrafficBreakdown {
        self.tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_is_near_zero_like_seda() {
        let mut s = SecuratorScheme::new(1 << 30);
        let mut out = RunBuf::new();
        for layer in 0..10 {
            s.transform(
                &Burst::read(0, 1 << 20, TensorKind::Filter, layer),
                &mut out,
            );
        }
        let mut n = out.requests();
        s.finish(&mut |_| n += 1);
        assert_eq!(n, 10 * (1 << 20) / 64 + 10 * 2);
        let b = s.breakdown();
        assert!(b.metadata() <= 10 * 2 * 64);
        assert_eq!(b.overfetch_read, 0);
    }

    #[test]
    fn halo_rereads_are_counted_as_redundant_hash_work() {
        let mut s = SecuratorScheme::new(1 << 30);
        let mut sink = RunBuf::new();
        // Strip 1 reads rows [0, 1024); strip 2 re-reads [896, 1920).
        s.transform(&Burst::read(0, 1024, TensorKind::Ifmap, 0), &mut sink);
        s.transform(&Burst::read(896, 1024, TensorKind::Ifmap, 0), &mut sink);
        assert_eq!(s.redundant_hash_bytes(), 128, "the 128 B halo re-hashes");
        assert_eq!(s.hashed_bytes(), 2048);
    }

    #[test]
    fn redundancy_resets_per_layer() {
        let mut s = SecuratorScheme::new(1 << 30);
        let mut sink = RunBuf::new();
        s.transform(&Burst::read(0, 512, TensorKind::Ifmap, 0), &mut sink);
        s.transform(&Burst::read(0, 512, TensorKind::Ifmap, 1), &mut sink);
        assert_eq!(
            s.redundant_hash_bytes(),
            0,
            "the next layer legitimately re-reads its input"
        );
    }

    #[test]
    fn writes_are_hashed_but_never_redundant() {
        let mut s = SecuratorScheme::new(1 << 30);
        let mut sink = RunBuf::new();
        s.transform(&Burst::write(0, 256, TensorKind::Ofmap, 0), &mut sink);
        s.transform(&Burst::write(0, 256, TensorKind::Ofmap, 0), &mut sink);
        assert_eq!(s.redundant_hash_bytes(), 0);
        assert_eq!(s.hashed_bytes(), 512);
    }
}
