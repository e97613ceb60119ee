//! Aggregate DRAM access statistics.

use crate::config::ACCESS_BYTES;
use crate::request::{Request, RowOutcome};
use serde::{Deserialize, Serialize};

/// Counters accumulated over a simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramStats {
    /// Read accesses.
    pub reads: u64,
    /// Write accesses.
    pub writes: u64,
    /// Accesses that hit an open row.
    pub row_hits: u64,
    /// Accesses to a precharged bank.
    pub row_empties: u64,
    /// Accesses that had to close another row first.
    pub row_conflicts: u64,
    /// Cycles data transfers slipped past all-bank refresh windows.
    pub refresh_stall_cycles: u64,
    /// Cycles the data bus carried bursts (`accesses × t_bl`); dividing by
    /// the elapsed window gives achieved bus utilization.
    pub bus_busy_cycles: u64,
}

impl DramStats {
    /// Records one access outcome.
    pub fn record(&mut self, req: Request, outcome: RowOutcome) {
        self.record_kind(req.is_write, outcome);
    }

    /// Records one access outcome by direction, without a [`Request`] in
    /// hand — the batched replay kernels work on pre-decoded streams.
    #[inline]
    pub fn record_kind(&mut self, is_write: bool, outcome: RowOutcome) {
        if is_write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
        match outcome {
            RowOutcome::Hit => self.row_hits += 1,
            RowOutcome::Empty => self.row_empties += 1,
            RowOutcome::Conflict => self.row_conflicts += 1,
        }
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total bytes moved.
    pub fn bytes(&self) -> u64 {
        self.accesses() * ACCESS_BYTES
    }

    /// Row-buffer hit rate in [0, 1]; zero when no accesses were made.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.accesses() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_of_empty_stats_is_zero() {
        assert_eq!(DramStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn record_tallies_by_kind() {
        let mut s = DramStats::default();
        s.record(Request::read(0), RowOutcome::Empty);
        s.record(Request::write(64), RowOutcome::Hit);
        s.record(Request::read(128), RowOutcome::Conflict);
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.row_hits, 1);
        assert_eq!(s.row_empties, 1);
        assert_eq!(s.row_conflicts, 1);
        assert_eq!(s.bytes(), 192);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }
}
