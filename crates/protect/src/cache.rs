//! Set-associative LRU metadata cache.
//!
//! SGX-style schemes keep version-number and MAC lines in small on-chip
//! caches (the paper configures 16 KB VN + 8 KB MAC caches, LRU,
//! write-back, write-allocate). The model tracks hit/miss/eviction
//! behaviour per line without storing payload bytes.
//!
//! Each set keeps its resident lines in recency order, most recent first,
//! with a fill count: a hit moves its way to the front, a miss inserts at
//! the front and, in a full set, evicts the last way. A set therefore
//! fills before it evicts, and the line it evicts is the least recently
//! used one, with no timestamps and no victim scan. Addresses map to a
//! line and a set by shift and mask when the line size and the set count
//! are both powers of two (every lineup scheme's geometry), by division
//! otherwise. `seda-validate`'s `meta-cache` family keeps a map-based
//! model with LRU ticks as the reference and checks the two bit for bit.

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the line was already resident.
    pub hit: bool,
    /// Address of a dirty line written back to make room, if any.
    pub writeback: Option<u64>,
}

/// One resident line: its line number and whether it is dirty.
#[derive(Debug, Clone, Copy, Default)]
struct Way {
    tag: u64,
    dirty: bool,
}

/// How an address maps to its line and set.
#[derive(Debug, Clone, Copy)]
enum Index {
    /// Line size `1 << line_shift` and a power-of-two set count.
    Mask { line_shift: u32, set_mask: u64 },
    /// Any other geometry.
    Divide,
}

/// A set-associative, write-back, write-allocate cache model.
///
/// # Examples
///
/// ```
/// use seda_protect::cache::MetaCache;
///
/// let mut c = MetaCache::new(1024, 64, 4);
/// assert!(!c.access(0, false).hit);
/// assert!(c.access(0, false).hit);
/// ```
#[derive(Debug, Clone)]
pub struct MetaCache {
    line_bytes: u64,
    sets: u64,
    ways: usize,
    index: Index,
    /// Set `s` occupies `slots[s * ways..(s + 1) * ways]`; its first
    /// `fill[s]` ways are resident, most recently used first.
    slots: Vec<Way>,
    fill: Vec<usize>,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl MetaCache {
    /// Creates a cache of `capacity_bytes` with `line_bytes` lines and
    /// `ways`-way associativity.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, capacity not a
    /// multiple of `line_bytes × ways`).
    pub fn new(capacity_bytes: u64, line_bytes: u64, ways: usize) -> Self {
        assert!(line_bytes > 0 && ways > 0, "degenerate cache geometry");
        let lines = capacity_bytes / line_bytes;
        assert!(
            lines >= ways as u64 && lines.is_multiple_of(ways as u64),
            "capacity must be a multiple of line_bytes*ways"
        );
        let sets = lines / ways as u64;
        let index = if line_bytes.is_power_of_two() && sets.is_power_of_two() {
            Index::Mask {
                line_shift: line_bytes.trailing_zeros(),
                set_mask: sets - 1,
            }
        } else {
            Index::Divide
        };
        Self {
            line_bytes,
            sets,
            ways,
            index,
            slots: vec![Way::default(); lines as usize],
            fill: vec![0; sets as usize],
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// The line number holding `addr` and the set it maps to.
    #[inline]
    fn locate(&self, addr: u64) -> (u64, usize) {
        match self.index {
            Index::Mask {
                line_shift,
                set_mask,
            } => {
                let line = addr >> line_shift;
                (line, (line & set_mask) as usize)
            }
            Index::Divide => {
                let line = addr / self.line_bytes;
                (line, (line % self.sets) as usize)
            }
        }
    }

    /// Accesses the line containing `addr`; `is_write` marks it dirty.
    pub fn access(&mut self, addr: u64, is_write: bool) -> CacheAccess {
        let (line, set) = self.locate(addr);
        let base = set * self.ways;
        let resident = self.fill[set];
        let ways = &mut self.slots[base..base + resident];

        if let Some(i) = ways.iter().position(|w| w.tag == line) {
            let dirty = ways[i].dirty | is_write;
            ways.copy_within(..i, 1);
            ways[0] = Way { tag: line, dirty };
            self.hits += 1;
            return CacheAccess {
                hit: true,
                writeback: None,
            };
        }

        self.misses += 1;
        let mut writeback = None;
        if resident == self.ways {
            // The last way is the least recently used: it makes room.
            let victim = ways[resident - 1];
            if victim.dirty {
                writeback = Some(victim.tag * self.line_bytes);
                self.writebacks += 1;
            }
        } else {
            self.fill[set] += 1;
        }
        let ways = &mut self.slots[base..base + self.fill[set]];
        ways.copy_within(..ways.len() - 1, 1);
        ways[0] = Way {
            tag: line,
            dirty: is_write,
        };
        CacheAccess {
            hit: false,
            writeback,
        }
    }

    /// Accesses the line containing `addr` `n` times in a row. The first
    /// access is exact and leaves the line most recently used (and dirty,
    /// if `is_write`); the other `n − 1` hit it at the front of its set,
    /// where a hit changes nothing but the hit count. Every later access,
    /// stat and flush is therefore identical to `n` consecutive
    /// [`MetaCache::access`] calls; the result is the first access's.
    /// `n` must be positive.
    pub fn access_run(&mut self, addr: u64, is_write: bool, n: u64) -> CacheAccess {
        debug_assert!(n > 0, "access_run needs at least one access");
        let first = self.access(addr, is_write);
        self.hits += n.saturating_sub(1);
        first
    }

    /// Flushes all dirty lines, returning their addresses in ascending
    /// order. The lines stay resident, clean.
    pub fn flush(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        for (set, &resident) in self.fill.iter().enumerate() {
            let base = set * self.ways;
            for w in &mut self.slots[base..base + resident] {
                if w.dirty {
                    out.push(w.tag * self.line_bytes);
                    w.dirty = false;
                }
            }
        }
        self.writebacks += out.len() as u64;
        out.sort_unstable();
        out
    }

    /// (hits, misses, writebacks) so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.writebacks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_oldest() {
        // 2 lines, 2 ways, 1 set.
        let mut c = MetaCache::new(128, 64, 2);
        c.access(0, false);
        c.access(64, false);
        c.access(0, false); // refresh line 0
        let a = c.access(128, false); // evicts line 64 (oldest)
        assert!(!a.hit);
        assert!(c.access(0, false).hit, "line 0 must survive");
        assert!(!c.access(64, false).hit, "line 64 was evicted");
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = MetaCache::new(128, 64, 2);
        c.access(0, true);
        c.access(64, false);
        // Line 0 is LRU and dirty: the evicting access writes it back.
        let evict = c.access(128, false);
        assert_eq!(
            evict,
            CacheAccess {
                hit: false,
                writeback: Some(0)
            }
        );
        // Line 64 was clean: evicting it writes nothing back.
        assert_eq!(c.access(192, false).writeback, None);
        assert_eq!(c.stats().2, 1);
    }

    #[test]
    fn invalid_ways_fill_before_any_eviction() {
        // 1 set, 4 ways: the first four distinct lines all stay resident.
        let mut c = MetaCache::new(256, 64, 4);
        for line in 0..4u64 {
            let a = c.access(line * 64, true);
            assert_eq!(a.writeback, None, "line {line} evicted a valid way");
        }
        for line in 0..4u64 {
            assert!(c.access(line * 64, false).hit, "line {line} not resident");
        }
        // The fifth line evicts the LRU way (line 0).
        assert_eq!(c.access(4 * 64, false).writeback, Some(0));
        assert_eq!(c.stats(), (4, 5, 1));
    }

    #[test]
    fn access_run_matches_repeated_access() {
        let mut run = MetaCache::new(256, 64, 2);
        let mut each = run.clone();
        for (addr, w, n) in [
            (0, true, 5),
            (128, false, 3),
            (256, false, 1),
            (0, false, 4),
        ] {
            let first = run.access_run(addr, w, n);
            assert_eq!(first, each.access(addr, w));
            for _ in 1..n {
                assert!(each.access(addr, w).hit);
            }
            assert_eq!(run.stats(), each.stats());
        }
        // LRU order agrees: the next conflict evicts the same line.
        assert_eq!(run.access(384, false), each.access(384, false));
        assert_eq!(run.flush(), each.flush());
    }

    #[test]
    fn hit_on_lru_way_saves_it_from_eviction() {
        // 1 set, 4 ways, filled in order 0, 1, 2, 3: line 0 is LRU.
        let mut c = MetaCache::new(256, 64, 4);
        for line in 0..4u64 {
            c.access(line * 64, true);
        }
        assert!(c.access(0, false).hit);
        // Line 1 is now the oldest: the next miss evicts it, not line 0.
        assert_eq!(c.access(4 * 64, false).writeback, Some(64));
        assert!(c.access(0, false).hit, "line 0 must survive");
        assert_eq!(c.access(5 * 64, false).writeback, Some(128));
    }

    #[test]
    fn clean_hit_keeps_a_dirty_line_dirty() {
        let mut c = MetaCache::new(128, 64, 2);
        c.access(0, true);
        c.access(64, false);
        // A read hit reorders line 0 to the front; it must stay dirty.
        assert!(c.access(0, false).hit);
        c.access(128, false); // evicts clean line 64
        assert_eq!(c.access(192, false).writeback, Some(0));
        assert_eq!(c.stats(), (1, 4, 1));
    }

    #[test]
    fn flush_of_partly_filled_sets_keeps_lines_resident() {
        // 4 sets of 4 ways; set 1 holds three lines, set 2 one, the
        // others none.
        let mut c = MetaCache::new(1024, 64, 4);
        for (addr, w) in [(0x540, true), (0x140, false), (0x440, true), (0x080, true)] {
            assert!(!c.access(addr, w).hit);
        }
        assert_eq!(c.flush(), vec![0x080, 0x440, 0x540]);
        for addr in [0x540, 0x140, 0x440, 0x080] {
            assert!(c.access(addr, false).hit, "{addr:#x} left the cache");
        }
        assert!(c.flush().is_empty());
        assert_eq!(c.stats(), (4, 4, 3));
    }

    #[test]
    fn one_byte_lines_near_the_top_of_the_address_space() {
        // Line numbers equal addresses here, so they use all 64 bits.
        // One set, two (shift and mask) and three (division).
        for sets in [1u64, 2, 3] {
            let mut c = MetaCache::new(2 * sets, 1, 2);
            // Three lines of one set: `u64::MAX` and two below it.
            let [a0, a1, a2] = [0, 1, 2].map(|k| u64::MAX - k * sets);
            assert!(!c.access(a0, true).hit);
            assert!(!c.access(a1, true).hit);
            assert!(c.access(a0, false).hit);
            assert_eq!(c.access(a2, false).writeback, Some(a1), "sets={sets}");
            assert!(c.access_run(a2, true, 3).hit);
            assert_eq!(c.flush(), vec![a2, a0], "sets={sets}");
            assert_eq!(c.stats(), (4, 3, 3), "sets={sets}");
        }
    }

    #[test]
    fn flush_returns_dirty_lines_once() {
        let mut c = MetaCache::new(1024, 64, 4);
        c.access(0, true);
        c.access(64, false);
        c.access(128, true);
        assert_eq!(c.flush(), vec![0, 128]);
        assert!(c.flush().is_empty(), "second flush finds nothing dirty");
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = MetaCache::new(256, 64, 1); // 4 sets, direct-mapped
        c.access(0, false);
        c.access(64, false);
        assert!(c.access(0, false).hit);
        assert!(c.access(64, false).hit);
    }

    #[test]
    fn same_set_conflict_in_direct_mapped() {
        let mut c = MetaCache::new(256, 64, 1); // 4 sets
        c.access(0, false);
        c.access(256, false); // same set as 0
        assert!(!c.access(0, false).hit);
    }

    #[test]
    #[should_panic(expected = "multiple of line_bytes")]
    fn bad_geometry_rejected() {
        let _ = MetaCache::new(100, 64, 2);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = MetaCache::new(1024, 64, 4);
        c.access(0, false);
        c.access(0, false);
        c.access(64, false);
        let (h, m, _) = c.stats();
        assert_eq!((h, m), (1, 2));
    }
}
