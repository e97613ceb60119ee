//! Set-associative LRU metadata cache.
//!
//! SGX-style schemes keep version-number and MAC lines in small on-chip
//! caches (the paper configures 16 KB VN + 8 KB MAC caches, LRU,
//! write-back, write-allocate). The model tracks hit/miss/eviction
//! behaviour per line without storing payload bytes.
//!
//! The sets live in one flat `sets × ways` array allocated up front. A
//! miss fills an invalid way before it evicts the least-recently-used
//! valid one, so a set fills in the same order a growable per-set list
//! would. `seda-validate`'s `meta-cache` family keeps that map-based
//! model as the reference and checks the two bit for bit.

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the line was already resident.
    pub hit: bool,
    /// Address of a dirty line written back to make room, if any.
    pub writeback: Option<u64>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    tag: u64,
    lru: u64,
    valid: bool,
    dirty: bool,
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
    /// Set `s` occupies `slots[s * ways..(s + 1) * ways]`.
    slots: Vec<Way>,
    tick: u64,
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
        Self {
            line_bytes,
            sets: lines / ways as u64,
            ways,
            slots: vec![Way::default(); lines as usize],
            tick: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Accesses the line containing `addr`; `is_write` marks it dirty.
    pub fn access(&mut self, addr: u64, is_write: bool) -> CacheAccess {
        self.tick += 1;
        let line = addr / self.line_bytes;
        let base = (line % self.sets) as usize * self.ways;
        let set = &mut self.slots[base..base + self.ways];

        if let Some(w) = set.iter_mut().find(|w| w.valid && w.tag == line) {
            w.lru = self.tick;
            w.dirty |= is_write;
            self.hits += 1;
            return CacheAccess {
                hit: true,
                writeback: None,
            };
        }

        self.misses += 1;
        // The first invalid way, else the least recently used one (ticks
        // are unique, so the LRU way is too).
        let mut victim = 0;
        for (i, w) in set.iter().enumerate() {
            if !w.valid {
                victim = i;
                break;
            }
            if w.lru < set[victim].lru {
                victim = i;
            }
        }
        let v = set[victim];
        let mut writeback = None;
        if v.valid && v.dirty {
            writeback = Some(v.tag * self.line_bytes);
            self.writebacks += 1;
        }
        set[victim] = Way {
            tag: line,
            lru: self.tick,
            valid: true,
            dirty: is_write,
        };
        CacheAccess {
            hit: false,
            writeback,
        }
    }

    /// Accesses the line containing `addr` `n` times in a row. The first
    /// access is exact; the other `n − 1` hit the line it just made most
    /// recently used and already dirtied, and since LRU order is relative
    /// they change nothing but the hit count. Every later access, stat
    /// and flush is therefore identical to `n` consecutive
    /// [`MetaCache::access`] calls; the result is the first access's.
    /// `n` must be positive.
    pub fn access_run(&mut self, addr: u64, is_write: bool, n: u64) -> CacheAccess {
        debug_assert!(n > 0, "access_run needs at least one access");
        let first = self.access(addr, is_write);
        self.hits += n.saturating_sub(1);
        first
    }

    /// Flushes all dirty lines, returning their addresses in ascending
    /// order.
    pub fn flush(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        for w in &mut self.slots {
            if w.valid && w.dirty {
                out.push(w.tag * self.line_bytes);
                w.dirty = false;
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
        // The fifth line evicts the LRU valid way (line 0).
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
