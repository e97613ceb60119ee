//! Metadata address layout of the protected region.
//!
//! Data occupies the bottom of the 16 GB protected region (paper §IV-A);
//! MAC, version-number, and integrity-tree arrays live above it at fixed
//! bases so metadata accesses land on distinct DRAM rows from data — the
//! locality break that makes metadata traffic expensive.

use serde::{Deserialize, Serialize};

/// Bytes per MAC tag (8 B MACs throughout the paper).
pub const MAC_BYTES: u64 = 8;

/// Bytes per version number slot (56-bit VN padded to 8 B).
pub const VN_BYTES: u64 = 8;

/// Metadata line size (one DRAM access).
pub const LINE_BYTES: u64 = 64;

/// Data bytes covered by one VN (SGX counts per 64 B cache line).
pub const VN_COVERAGE: u64 = 64;

/// Integrity-tree arity: one 64 B node authenticates eight children.
pub const TREE_ARITY: u64 = 8;

/// Address bases for the metadata arrays of a protected region.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetaLayout {
    /// Size of the protected data region in bytes.
    pub protected_bytes: u64,
    /// Base of the MAC array.
    pub mac_base: u64,
    /// Base of the VN array.
    pub vn_base: u64,
    /// Base address of each integrity-tree level, leaf level first.
    /// The level above the last one is the on-chip root.
    pub tree_level_base: Vec<u64>,
    /// Number of VN lines at the tree's leaf level.
    pub vn_lines: u64,
}

impl MetaLayout {
    /// Lays out metadata for a `protected_bytes` region protected at MAC
    /// granularity `mac_granularity`.
    ///
    /// # Panics
    ///
    /// Panics if sizes are zero, `mac_granularity` is not a multiple of
    /// 64 B, or `protected_bytes` is not a multiple of `mac_granularity`.
    /// The last keeps the MAC array line-aligned, so a MAC line never
    /// aliases data and eight consecutive blocks share each MAC line.
    pub fn new(protected_bytes: u64, mac_granularity: u64) -> Self {
        assert!(protected_bytes > 0, "empty protected region");
        assert!(
            mac_granularity >= LINE_BYTES && mac_granularity.is_multiple_of(LINE_BYTES),
            "MAC granularity must be a positive multiple of 64 B"
        );
        assert!(
            protected_bytes.is_multiple_of(mac_granularity),
            "protected region must be a multiple of the MAC granularity"
        );
        let mac_base = protected_bytes;
        let mac_bytes = protected_bytes / mac_granularity * MAC_BYTES;
        let vn_base = mac_base + mac_bytes;
        let vn_bytes = protected_bytes / VN_COVERAGE * VN_BYTES;
        let vn_lines = vn_bytes.div_ceil(LINE_BYTES);

        // Tree levels over the VN lines, shrinking by TREE_ARITY until a
        // level fits in one node (that level's parent is the on-chip root).
        let mut tree_level_base = Vec::new();
        let mut cursor = vn_base + vn_bytes;
        let mut nodes = vn_lines.div_ceil(TREE_ARITY);
        while nodes >= 1 {
            tree_level_base.push(cursor);
            cursor += nodes * LINE_BYTES;
            if nodes == 1 {
                break;
            }
            nodes = nodes.div_ceil(TREE_ARITY);
        }
        Self {
            protected_bytes,
            mac_base,
            vn_base,
            tree_level_base,
            vn_lines,
        }
    }

    /// Address of the MAC line holding the tag of the protection block at
    /// `block_index` (blocks of the layout's MAC granularity).
    pub fn mac_line(&self, block_index: u64) -> u64 {
        let tag_addr = self.mac_base + block_index * MAC_BYTES;
        tag_addr / LINE_BYTES * LINE_BYTES
    }

    /// Address of the VN line covering data address `addr`.
    pub fn vn_line(&self, addr: u64) -> u64 {
        let vn_index = addr / VN_COVERAGE;
        let vn_addr = self.vn_base + vn_index * VN_BYTES;
        vn_addr / LINE_BYTES * LINE_BYTES
    }

    /// Tree-node addresses on the path from the VN line covering `addr`
    /// up to (but excluding) the on-chip root, leaf level first.
    pub fn tree_path(&self, addr: u64) -> impl Iterator<Item = u64> + '_ {
        let vn_line_idx = (self.vn_line(addr) - self.vn_base) / LINE_BYTES;
        self.tree_level_base.iter().scan(vn_line_idx, |idx, base| {
            *idx /= TREE_ARITY;
            Some(base + *idx * LINE_BYTES)
        })
    }

    /// Number of tree levels stored off-chip.
    pub fn tree_depth(&self) -> usize {
        self.tree_level_base.len()
    }

    /// Parent tree node of a VN line or tree node at `addr`, or `None` if
    /// `addr` is not metadata with a parent (data, MACs, or the top node,
    /// whose parent is the on-chip root).
    pub fn parent_of(&self, addr: u64) -> Option<u64> {
        let vn_end = self.vn_base + self.vn_lines * LINE_BYTES;
        if addr >= self.vn_base && addr < vn_end {
            let idx = (addr - self.vn_base) / LINE_BYTES;
            return self
                .tree_level_base
                .first()
                .map(|base| base + idx / TREE_ARITY * LINE_BYTES);
        }
        for (level, &base) in self.tree_level_base.iter().enumerate() {
            let next = self.tree_level_base.get(level + 1)?;
            if addr >= base && addr < *next {
                let idx = (addr - base) / LINE_BYTES;
                return Some(next + idx / TREE_ARITY * LINE_BYTES);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1 << 30;

    #[test]
    fn sixteen_gib_tree_depth() {
        let l = MetaLayout::new(16 * GIB, 64);
        // 16 GiB / 64 B = 256 Mi VNs → 32 Mi VN lines → levels of
        // 4Mi, 512Ki, 64Ki, 8Ki, 1Ki, 128, 16, 2, 1 nodes = 9 levels.
        assert_eq!(l.tree_depth(), 9);
    }

    #[test]
    fn regions_do_not_overlap() {
        let l = MetaLayout::new(GIB, 512);
        assert!(l.mac_base >= l.protected_bytes);
        assert!(l.vn_base >= l.mac_base + l.protected_bytes / 512 * MAC_BYTES);
        let mut prev_end = l.vn_base + l.vn_lines * LINE_BYTES;
        for &b in &l.tree_level_base {
            assert!(b >= prev_end, "level base {b} below {prev_end}");
            prev_end = b;
        }
    }

    #[test]
    fn mac_lines_pack_eight_tags() {
        let l = MetaLayout::new(GIB, 64);
        assert_eq!(l.mac_line(0), l.mac_line(7));
        assert_ne!(l.mac_line(7), l.mac_line(8));
    }

    #[test]
    fn vn_line_covers_512_bytes_of_data() {
        let l = MetaLayout::new(GIB, 64);
        assert_eq!(l.vn_line(0), l.vn_line(511));
        assert_ne!(l.vn_line(511), l.vn_line(512));
    }

    #[test]
    fn tree_path_is_monotone_and_shrinks() {
        let l = MetaLayout::new(16 * GIB, 64);
        let p1: Vec<u64> = l.tree_path(0).collect();
        let p2: Vec<u64> = l.tree_path(8 * GIB).collect();
        assert_eq!(p1.len(), l.tree_depth());
        // Paths from distant addresses converge at the top.
        assert_ne!(p1[0], p2[0]);
        assert_eq!(p1.last(), p2.last(), "single top node below the root");
    }

    #[test]
    fn neighbouring_vn_lines_share_parents() {
        let l = MetaLayout::new(16 * GIB, 64);
        // The next VN line (512 B on) has the same leaf parent.
        assert!(l.tree_path(0).eq(l.tree_path(512)));
        // 8 VN lines away → different leaf parent.
        assert_ne!(l.tree_path(0).next(), l.tree_path(4096 * 8).next());
    }

    #[test]
    #[should_panic(expected = "multiple of the MAC granularity")]
    fn region_not_a_multiple_of_granularity_is_rejected() {
        let _ = MetaLayout::new(GIB + 64, 512);
    }
}

#[cfg(test)]
mod parent_tests {
    use super::*;

    const GIB: u64 = 1 << 30;

    #[test]
    fn vn_lines_have_leaf_parents() {
        let l = MetaLayout::new(16 * GIB, 64);
        let vn_line = l.vn_line(0);
        let parent = l.parent_of(vn_line).expect("VN line has a parent");
        assert_eq!(Some(parent), l.tree_path(0).next());
    }

    #[test]
    fn parents_chain_to_the_top() {
        let l = MetaLayout::new(16 * GIB, 64);
        let mut node = l.vn_line(0);
        let mut hops = 0;
        while let Some(p) = l.parent_of(node) {
            assert!(p > node, "parents live at higher addresses");
            node = p;
            hops += 1;
            assert!(hops <= l.tree_depth(), "parent chain must terminate");
        }
        assert_eq!(hops, l.tree_depth(), "chain walks every level");
    }

    #[test]
    fn data_and_mac_addresses_have_no_parent() {
        let l = MetaLayout::new(GIB, 64);
        assert_eq!(l.parent_of(0), None);
        assert_eq!(l.parent_of(l.mac_base), None);
    }

    #[test]
    fn siblings_share_a_parent() {
        let l = MetaLayout::new(16 * GIB, 64);
        let a = l.parent_of(l.vn_base);
        let b = l.parent_of(l.vn_base + 7 * LINE_BYTES);
        let c = l.parent_of(l.vn_base + 8 * LINE_BYTES);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
