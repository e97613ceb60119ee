//! SGX- and MGX-style block-granular protection schemes.
//!
//! Both authenticate fixed-size protection blocks with 8 B MACs behind an
//! 8 KB MAC cache. SGX additionally fetches per-64 B-line version numbers
//! through a 16 KB VN cache and climbs a counter integrity tree on VN
//! misses (tree nodes share the VN cache); MGX generates version numbers
//! on-chip from DNN semantics, so only MACs go off-chip (paper §II-C).
//!
//! Partial-block writes trigger read-modify-write fills: the untouched
//! lines of an edge block must be fetched to recompute its MAC. Partial
//! reads overfetch to the block boundary for the same reason. These are
//! the tiling-misalignment costs of coarse granularities.

use crate::cache::MetaCache;
use crate::layout::{MetaLayout, LINE_BYTES, MAC_BYTES, VN_COVERAGE};
use crate::scheme::{emit_demand, line_down, ProtectionScheme, SchemeInfo, TrafficBreakdown};
use seda_dram::{Request, RunBuf};
use seda_scalesim::Burst;

/// Telemetry counter names for one metadata cache.
struct CacheMetrics {
    hits: &'static str,
    misses: &'static str,
    writebacks: &'static str,
}

const MAC_CACHE_METRICS: CacheMetrics = CacheMetrics {
    hits: "protect.mac_cache.hits",
    misses: "protect.mac_cache.misses",
    writebacks: "protect.mac_cache.writebacks",
};

const VN_CACHE_METRICS: CacheMetrics = CacheMetrics {
    hits: "protect.vn_cache.hits",
    misses: "protect.vn_cache.misses",
    writebacks: "protect.vn_cache.writebacks",
};

/// Emits one metadata cache's `(hits, misses, writebacks)` growth since
/// the previous flush. The per-access cache path carries no telemetry
/// dispatch — [`MetaCache`] already counts natively — so schemes flush
/// deltas at [`ProtectionScheme::finish`], keeping hot loops free.
fn flush_cache_telemetry(m: &CacheMetrics, reported: &mut (u64, u64, u64), stats: (u64, u64, u64)) {
    if !seda_telemetry::enabled() {
        return;
    }
    seda_telemetry::counter_add(m.hits, stats.0 - reported.0);
    seda_telemetry::counter_add(m.misses, stats.1 - reported.1);
    seda_telemetry::counter_add(m.writebacks, stats.2 - reported.2);
    *reported = stats;
}

/// MAC tags per 64 B MAC line.
const TAGS_PER_LINE: u64 = LINE_BYTES / MAC_BYTES;

/// Which classic scheme the block-MAC engine models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockMacKind {
    /// Intel SGX-style: MAC + VN + integrity tree.
    Sgx,
    /// MGX-style: MAC only, VNs generated on-chip.
    Mgx,
}

/// Default MAC-cache capacity in bytes (paper §IV-A: 8 KB, LRU).
pub const DEFAULT_MAC_CACHE_BYTES: u64 = 8 << 10;

/// Default VN-cache capacity in bytes (paper §IV-A: 16 KB, LRU).
pub const DEFAULT_VN_CACHE_BYTES: u64 = 16 << 10;

/// A block-granular MAC protection scheme (SGX or MGX flavour).
///
/// # Examples
///
/// ```
/// use seda_dram::RunBuf;
/// use seda_protect::block_mac::{BlockMacKind, BlockMacScheme};
/// use seda_protect::scheme::ProtectionScheme;
/// use seda_scalesim::{Burst, TensorKind};
///
/// let mut sgx = BlockMacScheme::new(BlockMacKind::Sgx, 64, 16 << 30);
/// let mut out = RunBuf::new();
/// sgx.transform(&Burst::read(0, 4096, TensorKind::Filter, 0), &mut out);
/// assert!(sgx.breakdown().mac_read > 0);
/// assert!(out.requests() > 4096 / 64, "demand plus MAC, VN and tree lines");
/// ```
#[derive(Debug, Clone)]
pub struct BlockMacScheme {
    kind: BlockMacKind,
    name: String,
    granularity: u64,
    layout: MetaLayout,
    mac_cache: MetaCache,
    vn_cache: Option<MetaCache>,
    tally: TrafficBreakdown,
    /// Cache stats already flushed to telemetry (MAC, VN), so repeated
    /// [`ProtectionScheme::finish`] calls emit deltas, not totals.
    reported_mac: (u64, u64, u64),
    reported_vn: (u64, u64, u64),
}

impl BlockMacScheme {
    /// Creates a scheme protecting a `protected_bytes` region at MAC
    /// granularity `granularity` (64 B or 512 B in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `granularity` is not a positive multiple of 64 B.
    pub fn new(kind: BlockMacKind, granularity: u64, protected_bytes: u64) -> Self {
        Self::with_caches(
            kind,
            granularity,
            protected_bytes,
            DEFAULT_MAC_CACHE_BYTES,
            DEFAULT_VN_CACHE_BYTES,
        )
    }

    /// Like [`BlockMacScheme::new`] with explicit metadata-cache sizes
    /// (used by the cache-sensitivity ablation).
    ///
    /// # Panics
    ///
    /// Panics if `granularity` is not a positive multiple of 64 B or a
    /// cache geometry is degenerate.
    pub fn with_caches(
        kind: BlockMacKind,
        granularity: u64,
        protected_bytes: u64,
        mac_cache_bytes: u64,
        vn_cache_bytes: u64,
    ) -> Self {
        let layout = MetaLayout::new(protected_bytes, granularity);
        let prefix = match kind {
            BlockMacKind::Sgx => "SGX",
            BlockMacKind::Mgx => "MGX",
        };
        Self {
            kind,
            name: format!("{prefix}-{granularity}B"),
            granularity,
            layout,
            mac_cache: MetaCache::new(mac_cache_bytes, LINE_BYTES, 8),
            vn_cache: match kind {
                BlockMacKind::Sgx => Some(MetaCache::new(vn_cache_bytes, LINE_BYTES, 8)),
                BlockMacKind::Mgx => None,
            },
            tally: TrafficBreakdown::default(),
            reported_mac: (0, 0, 0),
            reported_vn: (0, 0, 0),
        }
    }

    /// The protection-block granularity in bytes.
    pub fn granularity(&self) -> u64 {
        self.granularity
    }

    /// MAC-cache `(hits, misses, writebacks)`. Every miss costs one MAC
    /// line read and every writeback one MAC line write, so
    /// `mac_read == misses × 64` and `mac_write == writebacks × 64` after
    /// [`ProtectionScheme::finish`] — the invariant the validation harness
    /// checks.
    pub fn mac_cache_stats(&self) -> (u64, u64, u64) {
        self.mac_cache.stats()
    }

    /// VN/tree-cache `(hits, misses, writebacks)`, or `None` for MGX
    /// (VNs on-chip). The cache holds both VN lines and tree nodes, so
    /// `vn_read + tree_read == misses × 64` and
    /// `vn_write + tree_write == writebacks × 64` after
    /// [`ProtectionScheme::finish`].
    pub fn vn_cache_stats(&self) -> Option<(u64, u64, u64)> {
        self.vn_cache.as_ref().map(|c| c.stats())
    }

    /// Emits the write of a dirty metadata line at `addr` and attributes
    /// it. Takes the fields it needs rather than `&mut self`, so
    /// [`BlockMacScheme::access_vn`] can call it while walking a tree path
    /// borrowed from the layout.
    fn classify_writeback(
        layout: &MetaLayout,
        mut vn_cache: Option<&mut MetaCache>,
        tally: &mut TrafficBreakdown,
        addr: u64,
        out: &mut RunBuf,
    ) {
        // Bonsai-style lazy tree update: writing back a dirty VN line (or
        // tree node) re-hashes it, so its parent node must be updated —
        // touch the parent dirty in the cache, fetching it on a miss. Each
        // step evicts at most one line, so the cascade is a chain, walked
        // without a stack; the top node's parent is the on-chip root
        // (free).
        let tree_base = layout.tree_level_base.first().copied().unwrap_or(u64::MAX);
        let mut next = Some(addr);
        while let Some(a) = next.take() {
            out.push(Request::write(a));
            if a >= tree_base {
                tally.tree_write += LINE_BYTES;
            } else if a >= layout.vn_base {
                tally.vn_write += LINE_BYTES;
            } else {
                tally.mac_write += LINE_BYTES;
                continue; // MAC lines have no tree parent.
            }
            if let (Some(parent), Some(cache)) = (layout.parent_of(a), vn_cache.as_deref_mut()) {
                let acc = cache.access(parent, true);
                if !acc.hit {
                    out.push(Request::read(parent));
                    tally.tree_read += LINE_BYTES;
                }
                next = acc.writeback;
            }
        }
    }

    fn access_vn(&mut self, data_addr: u64, is_write: bool, out: &mut RunBuf) {
        let Some(cache) = self.vn_cache.as_mut() else {
            return;
        };
        let layout = &self.layout;
        let tally = &mut self.tally;
        let vline = layout.vn_line(data_addr);
        let acc = cache.access(vline, is_write);
        if let Some(wb) = acc.writeback {
            Self::classify_writeback(layout, Some(cache), tally, wb, out);
        }
        if !acc.hit {
            out.push(Request::read(vline));
            tally.vn_read += LINE_BYTES;
            // Climb the tree until a cached (trusted) node or the root.
            for node in layout.tree_path(data_addr) {
                let a = cache.access(node, false);
                if let Some(wb) = a.writeback {
                    Self::classify_writeback(layout, Some(cache), tally, wb, out);
                }
                if a.hit {
                    break;
                }
                out.push(Request::read(node));
                tally.tree_read += LINE_BYTES;
            }
        }
    }

    /// Writes back a dirty line evicted or flushed from either cache.
    fn writeback(&mut self, addr: u64, out: &mut RunBuf) {
        Self::classify_writeback(
            &self.layout,
            self.vn_cache.as_mut(),
            &mut self.tally,
            addr,
            out,
        );
    }
}

impl ProtectionScheme for BlockMacScheme {
    fn name(&self) -> &str {
        &self.name
    }

    fn info(&self) -> SchemeInfo {
        SchemeInfo {
            name: self.name.clone(),
            encryption_granularity: "16B (AES engine bank)".to_owned(),
            integrity_granularity: format!("{}B", self.granularity),
            offchip_metadata: match self.kind {
                BlockMacKind::Sgx => "MAC, VN, IT".to_owned(),
                BlockMacKind::Mgx => "MAC".to_owned(),
            },
            tiling_aware: false,
            encryption_scalable: false,
        }
    }

    fn transform(&mut self, burst: &Burst, out: &mut RunBuf) {
        let (start, end) = emit_demand(burst, &mut self.tally, out);
        let g = self.granularity;
        let gspan_start = start / g * g;
        let gspan_end = end.div_ceil(g) * g;

        // Alignment fills: lines inside the protection blocks but outside
        // the demand span, as one run before it and one after. Reads need
        // them to verify the block MAC; writes need them to recompute it
        // (read-modify-write).
        out.push_run(
            Request::read(gspan_start),
            (start - gspan_start) / LINE_BYTES,
        );
        out.push_run(Request::read(end), (gspan_end - end) / LINE_BYTES);
        self.tally.overfetch_read += (start - gspan_start) + (gspan_end - end);

        // One MAC tag per protection block, via the MAC cache. The MAC
        // array is line-aligned (`MetaLayout::new`), so blocks
        // `[8j, 8j + 8)` share a MAC line; between them only the VN cache
        // is touched, so the first block of each line takes one exact
        // access and the rest are hits on the now-MRU line.
        let mut block = gspan_start / g;
        let end_block = gspan_end / g;
        while block < end_block {
            let line = self.layout.mac_line(block);
            let line_end = (block / TAGS_PER_LINE + 1) * TAGS_PER_LINE;
            let n = line_end.min(end_block) - block;
            let acc = self.mac_cache.access_run(line, burst.is_write, n);
            if let Some(wb) = acc.writeback {
                self.writeback(wb, out);
            }
            if !acc.hit {
                out.push(Request::read(line));
                self.tally.mac_read += LINE_BYTES;
            }
            block += n;
        }

        // One VN slot per 64 B data line (SGX only); VN lines cover 512 B.
        if self.vn_cache.is_some() {
            let mut span = line_down(gspan_start) / VN_COVERAGE * VN_COVERAGE;
            let vn_line_data_span = VN_COVERAGE * (LINE_BYTES / crate::layout::VN_BYTES);
            span = span / vn_line_data_span * vn_line_data_span;
            while span < gspan_end {
                self.access_vn(span, burst.is_write, out);
                span += vn_line_data_span;
            }
        }
    }

    fn finish(&mut self, sink: &mut dyn FnMut(Request)) {
        let mut out = RunBuf::new();
        for addr in self.mac_cache.flush() {
            self.writeback(addr, &mut out);
        }
        // Flushing dirty VN lines re-dirties their parents (Bonsai update),
        // so iterate until the cache drains; each round moves strictly up
        // the tree, bounding the loop by its depth.
        while let Some(cache) = self.vn_cache.as_mut() {
            let dirty = cache.flush();
            if dirty.is_empty() {
                break;
            }
            for addr in dirty {
                self.writeback(addr, &mut out);
            }
        }
        out.iter().for_each(sink);
        flush_cache_telemetry(
            &MAC_CACHE_METRICS,
            &mut self.reported_mac,
            self.mac_cache.stats(),
        );
        if let Some(cache) = &self.vn_cache {
            flush_cache_telemetry(&VN_CACHE_METRICS, &mut self.reported_vn, cache.stats());
        }
    }

    fn breakdown(&self) -> TrafficBreakdown {
        self.tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seda_scalesim::TensorKind;

    const GIB: u64 = 1 << 30;

    fn run(scheme: &mut BlockMacScheme, bursts: &[Burst]) -> Vec<Request> {
        let mut out = RunBuf::new();
        for b in bursts {
            scheme.transform(b, &mut out);
        }
        let mut reqs: Vec<Request> = out.iter().collect();
        scheme.finish(&mut |r| reqs.push(r));
        reqs
    }

    #[test]
    fn mgx_64_mac_overhead_is_one_eighth() {
        // Streaming a large aligned tensor: MAC traffic = 8 B per 64 B block
        // = 12.5% of demand, the MGX-64B figure of the paper.
        let mut m = BlockMacScheme::new(BlockMacKind::Mgx, 64, GIB);
        run(&mut m, &[Burst::read(0, 1 << 20, TensorKind::Filter, 0)]);
        let b = m.breakdown();
        assert_eq!(b.demand_read, 1 << 20);
        assert_eq!(b.overfetch_read, 0);
        let ratio = b.mac_read as f64 / b.demand_read as f64;
        assert!((ratio - 0.125).abs() < 0.001, "MAC ratio {ratio}");
        assert_eq!(b.vn_read + b.tree_read, 0, "MGX fetches no VN/tree");
    }

    #[test]
    fn mgx_512_cuts_mac_traffic_eightfold() {
        let mut m64 = BlockMacScheme::new(BlockMacKind::Mgx, 64, GIB);
        let mut m512 = BlockMacScheme::new(BlockMacKind::Mgx, 512, GIB);
        let bursts = [Burst::read(0, 1 << 20, TensorKind::Filter, 0)];
        run(&mut m64, &bursts);
        run(&mut m512, &bursts);
        assert_eq!(
            m64.breakdown().mac_read,
            8 * m512.breakdown().mac_read,
            "8x fewer blocks at 512B"
        );
    }

    #[test]
    fn sgx_adds_vn_and_tree_traffic() {
        let mut s = BlockMacScheme::new(BlockMacKind::Sgx, 64, 16 * GIB);
        run(&mut s, &[Burst::read(0, 1 << 20, TensorKind::Ifmap, 0)]);
        let b = s.breakdown();
        assert!(b.vn_read > 0);
        assert!(b.tree_read > 0);
        // VN: one 64 B line per 512 B of data = 12.5% on a cold stream.
        let vn_ratio = b.vn_read as f64 / b.demand_read as f64;
        assert!((vn_ratio - 0.125).abs() < 0.01, "VN ratio {vn_ratio}");
        // Total SGX-64B overhead lands near the paper's ~30%.
        let total = b.total() as f64 / b.demand_read as f64 - 1.0;
        assert!(total > 0.25 && total < 0.35, "SGX-64B overhead {total}");
    }

    #[test]
    fn partial_block_write_triggers_rmw() {
        let mut m = BlockMacScheme::new(BlockMacKind::Mgx, 512, GIB);
        // Write 64 B into a 512 B protection block: 448 B must be fetched.
        let reqs = run(&mut m, &[Burst::write(0, 64, TensorKind::Ofmap, 0)]);
        let b = m.breakdown();
        assert_eq!(b.demand_write, 64);
        assert_eq!(b.overfetch_read, 448);
        assert!(reqs.iter().filter(|r| !r.is_write).count() >= 7);
    }

    #[test]
    fn alignment_fills_are_one_run_each_side() {
        // A 128 B read in the middle of a 512 B block: the demand run, a
        // 3-line head fill before it and a 3-line tail fill after it,
        // then the MAC line.
        let mut m = BlockMacScheme::new(BlockMacKind::Mgx, 512, GIB);
        let mut out = RunBuf::new();
        m.transform(&Burst::read(1216, 128, TensorKind::Ifmap, 0), &mut out);
        let reqs: Vec<Request> = out.iter().collect();
        let mut expect = vec![Request::read(1216), Request::read(1280)];
        expect.extend((1024..1216).step_by(64).map(Request::read));
        expect.extend((1344..1536).step_by(64).map(Request::read));
        assert_eq!(&reqs[..8], &expect[..]);
        assert_eq!(reqs.len(), 9);
        assert_eq!(out.runs().len(), 4);
        assert_eq!(m.breakdown().overfetch_read, 384);
    }

    #[test]
    fn aligned_write_needs_no_rmw() {
        let mut m = BlockMacScheme::new(BlockMacKind::Mgx, 512, GIB);
        run(&mut m, &[Burst::write(512, 512, TensorKind::Ofmap, 0)]);
        assert_eq!(m.breakdown().overfetch_read, 0);
    }

    #[test]
    fn mac_cache_absorbs_repeat_access() {
        let mut m = BlockMacScheme::new(BlockMacKind::Mgx, 64, GIB);
        let b = [Burst::read(0, 4096, TensorKind::Ifmap, 0)];
        run(&mut m, &b);
        let first = m.breakdown().mac_read;
        // Re-reading the same 4 KB touches the same MAC line (already
        // cached): no new MAC traffic.
        m.transform(&b[0], &mut RunBuf::new());
        assert_eq!(m.breakdown().mac_read, first);
    }

    #[test]
    fn one_mac_line_serves_eight_blocks() {
        // MGX-64B over [0, 4096): 64 blocks on 8 MAC lines, so each line
        // misses once and its other 7 blocks hit.
        let mut m = BlockMacScheme::new(BlockMacKind::Mgx, 64, GIB);
        run(&mut m, &[Burst::read(0, 4096, TensorKind::Filter, 0)]);
        assert_eq!(m.mac_cache_stats(), (56, 8, 0));
        assert_eq!(m.breakdown().mac_read, 8 * LINE_BYTES);
    }

    #[test]
    fn burst_straddling_a_mac_line_touches_both() {
        // Blocks 7 and 8 of a read at 448 B sit on MAC lines 0 and 1.
        let mut m = BlockMacScheme::new(BlockMacKind::Mgx, 64, GIB);
        let mut out = RunBuf::new();
        m.transform(&Burst::read(448, 128, TensorKind::Ifmap, 0), &mut out);
        assert_eq!(m.mac_cache_stats(), (0, 2, 0));
        // [64, 1024) covers blocks 1..16 on the same two lines: 15 hits.
        m.transform(&Burst::read(64, 960, TensorKind::Ifmap, 0), &mut out);
        assert_eq!(m.mac_cache_stats(), (15, 2, 0));
        // [960, 1088) is block 15 (line 1, a hit) and block 16, which
        // opens line 2.
        m.transform(&Burst::read(1000, 64, TensorKind::Ifmap, 0), &mut out);
        assert_eq!(m.mac_cache_stats(), (16, 3, 0));
    }

    #[test]
    fn mac_lines_at_512_byte_granularity() {
        // A MAC line covers 8 × 512 B = 4 KiB: [0, 8192) is 16 blocks on
        // 2 lines.
        let mut m = BlockMacScheme::new(BlockMacKind::Mgx, 512, GIB);
        run(&mut m, &[Burst::read(0, 8192, TensorKind::Filter, 0)]);
        assert_eq!(m.mac_cache_stats(), (14, 2, 0));
        // A write over blocks 7 and 8 straddles lines 0 and 1 of a fresh
        // scheme; both are dirtied and written back at finish.
        let mut w = BlockMacScheme::new(BlockMacKind::Mgx, 512, GIB);
        run(&mut w, &[Burst::write(3584, 1024, TensorKind::Ofmap, 0)]);
        assert_eq!(w.mac_cache_stats(), (0, 2, 2));
        assert_eq!(w.breakdown().mac_write, 2 * LINE_BYTES);
    }

    #[test]
    fn dirty_mac_lines_flush_as_writes() {
        let mut m = BlockMacScheme::new(BlockMacKind::Mgx, 64, GIB);
        m.transform(
            &Burst::write(0, 4096, TensorKind::Ofmap, 0),
            &mut RunBuf::new(),
        );
        let before = m.breakdown().mac_write;
        let mut flushed = Vec::new();
        m.finish(&mut |r| flushed.push(r));
        assert!(!flushed.is_empty() && flushed.iter().all(|r| r.is_write));
        assert!(m.breakdown().mac_write > before, "flush writes dirty MACs");
    }

    #[test]
    fn sgx_write_dirties_vn_lines() {
        let mut s = BlockMacScheme::new(BlockMacKind::Sgx, 64, GIB);
        run(&mut s, &[Burst::write(0, 1 << 16, TensorKind::Ofmap, 0)]);
        assert!(
            s.breakdown().vn_write > 0,
            "incremented VNs must write back"
        );
    }

    #[test]
    fn names_follow_paper_convention() {
        assert_eq!(
            BlockMacScheme::new(BlockMacKind::Sgx, 512, GIB).name(),
            "SGX-512B"
        );
        assert_eq!(
            BlockMacScheme::new(BlockMacKind::Mgx, 64, GIB).name(),
            "MGX-64B"
        );
    }
}

#[cfg(test)]
mod bonsai_tests {
    use super::*;
    use seda_scalesim::{Burst, TensorKind};

    #[test]
    fn dirty_vn_eviction_updates_parent_nodes() {
        // Write enough distinct VN lines to force dirty evictions; the
        // Bonsai update must produce tree writes by the end of inference.
        let mut s = BlockMacScheme::new(BlockMacKind::Sgx, 64, 16 << 30);
        let mut out = RunBuf::new();
        // 1 MiB of writes touches 2048 VN slots = 256 VN lines > 16 KB/64.
        for i in 0..64u64 {
            s.transform(
                &Burst::write(i * 512 * 1024, 16 * 1024, TensorKind::Ofmap, 0),
                &mut out,
            );
        }
        s.finish(&mut |_r| {});
        let t = s.breakdown();
        assert!(t.vn_write > 0, "dirty VN lines must write back");
        assert!(t.tree_write > 0, "Bonsai updates must reach the tree");
    }

    #[test]
    fn finish_leaves_no_dirty_state() {
        let mut s = BlockMacScheme::new(BlockMacKind::Sgx, 64, 1 << 30);
        s.transform(
            &Burst::write(0, 1 << 20, TensorKind::Ofmap, 0),
            &mut RunBuf::new(),
        );
        s.finish(&mut |_r| {});
        // A second finish emits nothing: everything already drained.
        let mut n = 0;
        s.finish(&mut |_r| n += 1);
        assert_eq!(n, 0);
    }

    #[test]
    fn read_only_streams_produce_no_tree_writes() {
        let mut s = BlockMacScheme::new(BlockMacKind::Sgx, 64, 1 << 30);
        s.transform(
            &Burst::read(0, 1 << 20, TensorKind::Filter, 0),
            &mut RunBuf::new(),
        );
        s.finish(&mut |_r| {});
        assert_eq!(s.breakdown().tree_write, 0);
        assert_eq!(s.breakdown().vn_write, 0);
    }
}
