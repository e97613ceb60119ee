//! Differential oracle for the recency-ordered metadata cache.
//!
//! [`MetaCache`] keeps each set's lines in recency order with a fill
//! count, indexes by shift and mask for power-of-two geometries and by
//! division otherwise, and applies runs of repeated accesses to one line
//! in closed form ([`MetaCache::access_run`]). This family keeps the
//! original map-based model, [`MapCache`] (a `HashMap` of growable
//! per-set way lists, pushed until full, evicting the minimum LRU tick),
//! as the reference and replays random streams through both:
//!
//! * every [`CacheAccess`] of per-access replay, every `stats()` and every
//!   `flush()` output must be identical;
//! * replacing `n` consecutive reference accesses to one line by one
//!   `access_run(a, w, n)` must return the first access's result and
//!   leave every later access, stat and flush identical.
//!
//! The first three cases of every seed use fixed geometries: the
//! lineup's VN cache (64 B × 32 sets × 8 ways) and MAC cache (64 B × 16
//! sets × 8 ways), which take the shift-and-mask path, and a 48 B ×
//! 24-set × 6-way cache, which takes the division path. Later cases draw
//! 1–16 ways, 1–64 sets and 32, 48 or 64 B lines. Every case runs
//! hot-set, thrash, sequential and random streams with mixed reads and
//! writes.

use crate::ensure;
use seda_adversary::Rng;
use seda_protect::cache::{CacheAccess, MetaCache};
use std::collections::HashMap;

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    dirty: bool,
    lru: u64,
}

/// The map-based reference cache: sets are created on first touch and
/// grow by push until full; a miss in a full set evicts the way with the
/// smallest LRU tick.
#[derive(Debug, Clone)]
pub struct MapCache {
    line_bytes: u64,
    sets: u64,
    ways: usize,
    storage: HashMap<u64, Vec<Way>>,
    tick: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl MapCache {
    /// A cache of `sets × ways` lines of `line_bytes` each.
    pub fn new(line_bytes: u64, sets: u64, ways: usize) -> Self {
        Self {
            line_bytes,
            sets,
            ways,
            storage: HashMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// Accesses the line containing `addr`; `is_write` marks it dirty.
    pub fn access(&mut self, addr: u64, is_write: bool) -> CacheAccess {
        self.tick += 1;
        let line = addr / self.line_bytes;
        let tick = self.tick;
        let ways = self.ways;
        let set_ways = self.storage.entry(line % self.sets).or_default();

        if let Some(w) = set_ways.iter_mut().find(|w| w.tag == line) {
            w.lru = tick;
            w.dirty |= is_write;
            self.hits += 1;
            return CacheAccess {
                hit: true,
                writeback: None,
            };
        }

        self.misses += 1;
        let mut writeback = None;
        if set_ways.len() == ways {
            let victim = set_ways
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.lru)
                .map_or(0, |(i, _)| i);
            let v = set_ways.swap_remove(victim);
            if v.dirty {
                writeback = Some(v.tag * self.line_bytes);
                self.writebacks += 1;
            }
        }
        set_ways.push(Way {
            tag: line,
            dirty: is_write,
            lru: tick,
        });
        CacheAccess {
            hit: false,
            writeback,
        }
    }

    /// Flushes all dirty lines, returning their addresses sorted.
    pub fn flush(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        for ways in self.storage.values_mut() {
            for w in ways.iter_mut() {
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

/// The generated stream shapes.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// A working set about the cache's size, revisited at random: mostly
    /// hits, with occasional conflict evictions.
    HotSet,
    /// A few more lines than the associativity, all mapping to set 0,
    /// revisited at random: most accesses evict.
    Thrash,
    /// A sequential walk with occasional jumps, as a streaming tensor's
    /// metadata lines are touched.
    Sequential,
    /// Uniform scatter over a region much larger than the cache.
    Random,
}

const SHAPES: [Shape; 4] = [
    Shape::HotSet,
    Shape::Thrash,
    Shape::Sequential,
    Shape::Random,
];

/// One step of a stream: access the line holding `addr` `n` times in a
/// row, writing if `is_write`.
#[derive(Debug, Clone, Copy)]
struct Op {
    addr: u64,
    is_write: bool,
    n: u64,
}

fn stream_of(shape: Shape, rng: &mut Rng, line: u64, sets: u64, ways: u64, len: usize) -> Vec<Op> {
    let lines = sets * ways;
    let mut next_line = rng.below(1 << 20);
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let l = match shape {
            Shape::HotSet => rng.below(lines + lines / 4 + 1),
            Shape::Thrash => rng.below(ways + 3) * sets,
            Shape::Sequential => {
                if rng.coin(1, 32) {
                    next_line = rng.below(1 << 20);
                }
                next_line += 1;
                next_line
            }
            Shape::Random => rng.below(lines * 64),
        };
        ops.push(Op {
            // Anywhere inside the line: the cache must index by line.
            addr: l * line + rng.below(line),
            is_write: rng.coin(1, 3),
            n: if rng.coin(1, 4) { rng.range(2, 9) } else { 1 },
        });
    }
    ops
}

/// The geometries of cases 0, 1 and 2 as `(line bytes, sets, ways)`:
/// the lineup's 16 KB VN cache and 8 KB MAC cache (shift and mask), and a
/// cache whose line size and set count are not powers of two (division).
const FIXED_GEOMETRIES: [(u64, u64, u64); 3] = [(64, 32, 8), (64, 16, 8), (48, 24, 6)];

/// Case `case` of a seed: a fixed geometry for the first
/// [`FIXED_GEOMETRIES`], a random one after.
pub(crate) fn check_case_at(case: u32, rng: &mut Rng) -> Result<(), String> {
    match FIXED_GEOMETRIES.get(case as usize) {
        Some(&(line, sets, ways)) => check_geometry(rng, line, sets, ways),
        None => check_case(rng),
    }
}

/// One randomized case: a random geometry, every stream shape.
pub fn check_case(rng: &mut Rng) -> Result<(), String> {
    let ways = rng.range(1, 16);
    let sets = rng.range(1, 64);
    let line = *rng.pick(&[64u64, 64, 32, 48]);
    check_geometry(rng, line, sets, ways)
}

/// One geometry, every stream shape: the cache (per access and by runs)
/// against the map-based reference.
fn check_geometry(rng: &mut Rng, line: u64, sets: u64, ways: u64) -> Result<(), String> {
    for shape in SHAPES {
        let ops = stream_of(shape, rng, line, sets, ways, 1500);
        let ctx = format!("{shape:?}: line={line} sets={sets} ways={ways}");
        let mut reference = MapCache::new(line, sets, ways as usize);
        let mut each = MetaCache::new(line * sets * ways, line, ways as usize);
        let mut runs = each.clone();

        for (i, op) in ops.iter().enumerate() {
            let first = reference.access(op.addr, op.is_write);
            let got = each.access(op.addr, op.is_write);
            ensure!(
                got == first,
                "{ctx}: op {i} {op:?}: access {got:?}, reference {first:?}"
            );
            for _ in 1..op.n {
                let want = reference.access(op.addr, op.is_write);
                let got = each.access(op.addr, op.is_write);
                ensure!(
                    got == want,
                    "{ctx}: op {i} {op:?} repeat: access {got:?}, reference {want:?}"
                );
            }
            let got = runs.access_run(op.addr, op.is_write, op.n);
            ensure!(
                got == first,
                "{ctx}: op {i} {op:?}: access_run {got:?}, reference {first:?}"
            );
            ensure!(
                each.stats() == reference.stats() && runs.stats() == reference.stats(),
                "{ctx}: op {i} {op:?}: stats {:?} / run {:?}, reference {:?}",
                each.stats(),
                runs.stats(),
                reference.stats()
            );
            // Flush mid-stream too: clean lines must stay resident.
            if rng.coin(1, 200) {
                let want = reference.flush();
                ensure!(
                    each.flush() == want && runs.flush() == want,
                    "{ctx}: mid-stream flush after op {i} diverges from {want:?}"
                );
            }
        }
        let want = reference.flush();
        let (got_each, got_runs) = (each.flush(), runs.flush());
        ensure!(
            got_each == want && got_runs == want,
            "{ctx}: final flush {got_each:?} / run {got_runs:?}, reference {want:?}"
        );
        ensure!(
            each.stats() == reference.stats() && runs.stats() == reference.stats(),
            "{ctx}: final stats {:?} / run {:?}, reference {:?}",
            each.stats(),
            runs.stats(),
            reference.stats()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_family, Family};

    #[test]
    fn meta_cache_family_passes_fixed_seed() {
        let report = run_family(
            Family::MetaCache,
            0xCAC4_E007,
            Family::MetaCache.default_cases(),
        );
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn reference_evicts_lru_and_reports_dirty_victims() {
        // 1 set, 2 ways: the reference is the behaviour being pinned.
        let mut c = MapCache::new(64, 1, 2);
        c.access(0, true);
        c.access(64, false);
        c.access(0, false);
        assert_eq!(c.access(128, false).writeback, None, "line 64 was clean");
        assert_eq!(c.access(192, false).writeback, Some(0));
        assert_eq!(c.stats(), (1, 4, 1));
    }
}
