//! Property-based tests for the metadata cache and protection schemes.

use proptest::prelude::*;
use seda_dram::RunBuf;
use seda_protect::{
    BlockMacKind, BlockMacScheme, LayerMacStore, MetaCache, MetaLayout, ProtectionScheme,
    SedaScheme, Unprotected,
};
use seda_scalesim::{Burst, TensorKind};
use std::collections::HashSet;

const GIB: u64 = 1 << 30;

fn arb_burst() -> impl Strategy<Value = Burst> {
    (0u64..(1 << 22), 1u64..8192, any::<bool>(), 0u32..3).prop_map(
        |(addr, bytes, is_write, layer)| Burst {
            addr,
            bytes,
            is_write,
            tensor: if is_write {
                TensorKind::Ofmap
            } else {
                TensorKind::Ifmap
            },
            layer,
        },
    )
}

proptest! {
    #[test]
    fn cache_never_reports_phantom_hits(accesses in prop::collection::vec((0u64..(1 << 16), any::<bool>()), 1..300)) {
        // A hit may only occur for a line seen before (no capacity grows it).
        let mut cache = MetaCache::new(2048, 64, 4);
        let mut seen = HashSet::new();
        for (addr, w) in accesses {
            let line = addr / 64;
            let acc = cache.access(addr, w);
            if acc.hit {
                prop_assert!(seen.contains(&line), "hit on never-seen line {line}");
            }
            seen.insert(line);
        }
    }

    #[test]
    fn cache_writebacks_only_for_dirty_lines(accesses in prop::collection::vec((0u64..(1 << 14), any::<bool>()), 1..300)) {
        let mut cache = MetaCache::new(1024, 64, 2);
        let mut dirtied = HashSet::new();
        for (addr, w) in accesses {
            let acc = cache.access(addr, w);
            if let Some(wb) = acc.writeback {
                prop_assert!(dirtied.contains(&(wb / 64)), "writeback of clean line");
                dirtied.remove(&(wb / 64));
            }
            if w {
                dirtied.insert(addr / 64);
            }
        }
        for wb in cache.flush() {
            prop_assert!(dirtied.contains(&(wb / 64)));
        }
    }

    #[test]
    fn layout_regions_never_overlap(protected in (1u64..64).prop_map(|g| g * GIB / 4),
                                    granularity in prop_oneof![Just(64u64), Just(128), Just(512), Just(4096)]) {
        let l = MetaLayout::new(protected, granularity);
        // MAC region ends where VN region begins.
        let mac_end = l.mac_base + protected / granularity * 8;
        prop_assert!(mac_end <= l.vn_base);
        // Tree levels are disjoint and ascending.
        let mut prev_end = l.vn_base + l.vn_lines * 64;
        for (i, &base) in l.tree_level_base.iter().enumerate() {
            prop_assert!(base >= prev_end, "level {i} overlaps predecessor");
            let nodes = if i + 1 < l.tree_level_base.len() {
                l.tree_level_base[i + 1] - base
            } else {
                64
            };
            prev_end = base + nodes;
        }
    }

    #[test]
    fn tree_paths_end_at_single_top(protected in (1u64..16).prop_map(|g| g * GIB),
                                    a in 0u64..(1 << 30), b in 0u64..(1 << 30)) {
        let l = MetaLayout::new(protected, 64);
        let pa: Vec<u64> = l.tree_path(a % protected).collect();
        let pb: Vec<u64> = l.tree_path(b % protected).collect();
        prop_assert_eq!(pa.last(), pb.last(), "all paths converge below the root");
        // Paths are strictly level-ascending in address.
        for w in pa.windows(2) {
            prop_assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn sgx_request_set_superset_of_mgx(bursts in prop::collection::vec(arb_burst(), 1..30)) {
        // SGX = MGX + VN + tree: its tally components dominate MGX's.
        let mut sgx = BlockMacScheme::new(BlockMacKind::Sgx, 64, 16 * GIB);
        let mut mgx = BlockMacScheme::new(BlockMacKind::Mgx, 64, 16 * GIB);
        let mut out = RunBuf::new();
        for b in &bursts {
            sgx.transform(b, &mut out);
            mgx.transform(b, &mut out);
        }
        sgx.finish(&mut |_r| {});
        mgx.finish(&mut |_r| {});
        let (s, m) = (sgx.breakdown(), mgx.breakdown());
        prop_assert_eq!(s.demand(), m.demand());
        prop_assert_eq!(s.overfetch_read, m.overfetch_read);
        prop_assert_eq!(s.mac_read, m.mac_read);
        prop_assert!(s.vn_read > 0 || bursts.is_empty() || s.demand() == 0);
        prop_assert_eq!(m.vn_read + m.tree_read, 0);
    }

    #[test]
    fn overfetch_is_zero_iff_block_aligned(addr_blocks in 0u64..1000, len_blocks in 1u64..64) {
        // A 512 B-aligned burst of whole blocks needs no fill.
        let mut s = BlockMacScheme::new(BlockMacKind::Mgx, 512, GIB);
        let aligned = Burst::read(addr_blocks * 512, len_blocks * 512, TensorKind::Ifmap, 0);
        s.transform(&aligned, &mut RunBuf::new());
        prop_assert_eq!(s.breakdown().overfetch_read, 0);
        // Offsetting by one line forces fills at both edges.
        let mut s2 = BlockMacScheme::new(BlockMacKind::Mgx, 512, GIB);
        let unaligned = Burst::read(addr_blocks * 512 + 64, len_blocks * 512, TensorKind::Ifmap, 0);
        s2.transform(&unaligned, &mut RunBuf::new());
        prop_assert!(s2.breakdown().overfetch_read > 0);
    }

    #[test]
    fn baseline_equals_demand_grid(bursts in prop::collection::vec(arb_burst(), 0..40)) {
        let mut u = Unprotected::new();
        let mut out = RunBuf::new();
        for b in &bursts {
            u.transform(b, &mut out);
        }
        let count = out.requests();
        prop_assert_eq!(out.iter().count() as u64, count);
        let expected: u64 = bursts
            .iter()
            .map(|b| (b.end().div_ceil(64) * 64 - b.addr / 64 * 64) / 64)
            .sum();
        prop_assert_eq!(count, expected);
    }

    #[test]
    fn seda_requests_are_demand_plus_layer_lines(bursts in prop::collection::vec(arb_burst(), 1..40)) {
        let mut seda = SedaScheme::new(LayerMacStore::OffChip, GIB);
        let mut base = Unprotected::new();
        let (mut seda_out, mut base_out) = (RunBuf::new(), RunBuf::new());
        for b in &bursts {
            seda.transform(b, &mut seda_out);
            base.transform(b, &mut base_out);
        }
        let (mut n_seda, n_base) = (seda_out.requests(), base_out.requests());
        seda.finish(&mut |_| n_seda += 1);
        prop_assert_eq!(n_seda - n_base, seda.breakdown().layer_mac / 64);
    }
}
