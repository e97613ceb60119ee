//! Run-encoded request streams.
//!
//! DNN tensor walks are long sequential runs of the tiling pattern, so a
//! lowered request stream is mostly runs of consecutive 64 B blocks. A
//! [`Run`] stores one of them as a packed head request plus a length, and
//! a [`RunBuf`] builds a stream of runs, merging each new request into the
//! previous run when it continues it. A run list encodes exactly the
//! request sequence it was built from, in order; [`DramSim::run_runs`]
//! replays it without expanding it to lines.
//!
//! [`DramSim::run_runs`]: crate::DramSim::run_runs

use crate::request::Request;

/// `len` consecutive 64 B blocks in one direction, in issue order,
/// starting at the packed request `head` ([`Request::pack`]:
/// `(block << 1) | is_write`).
///
/// In packed form a run is an arithmetic progression of stride 2: the
/// block advances by one and the direction bit stays put.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// The run's first request, packed.
    pub head: u64,
    /// Number of requests in the run.
    pub len: u64,
}

impl Run {
    /// The packed request that would continue this run.
    #[inline]
    pub fn next(self) -> u64 {
        self.head + 2 * self.len
    }
}

/// Expands a run slice into its packed requests, in issue order.
pub fn expand(runs: &[Run]) -> impl Iterator<Item = u64> + '_ {
    runs.iter()
        .flat_map(|r| (0..r.len).map(move |k| r.head + 2 * k))
}

/// A growable run-encoded request stream.
///
/// [`RunBuf::push`] and [`RunBuf::push_run`] append requests and merge
/// them into the previous run when they continue it, so the buffer always
/// holds the stream's maximal runs. The pipeline replays and clears its
/// buffer at every layer boundary, so no run crosses one, and also
/// within a layer whenever the buffer reaches its chunk cap, so a run
/// may be cut at a chunk edge too. [`DramSim::run_runs`] replays any such
/// split of a stream identically.
///
/// # Examples
///
/// ```
/// use seda_dram::{Request, RunBuf};
///
/// let mut buf = RunBuf::new();
/// buf.push_run(Request::read(0), 4);
/// buf.push(Request::read(256)); // continues the run
/// buf.push(Request::write(320)); // direction change: a new run
/// assert_eq!(buf.runs().len(), 2);
/// assert_eq!(buf.requests(), 6);
/// assert_eq!(buf.iter().nth(4), Some(Request::read(256)));
/// ```
///
/// [`DramSim::run_runs`]: crate::DramSim::run_runs
#[derive(Debug, Clone, Default)]
pub struct RunBuf {
    runs: Vec<Run>,
    /// Requests covered by all runs.
    requests: u64,
}

impl RunBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the buffer, keeping its allocation.
    pub fn clear(&mut self) {
        self.runs.clear();
        self.requests = 0;
    }

    /// Appends one request.
    #[inline]
    pub fn push(&mut self, req: Request) {
        self.push_packed(req.pack(), 1);
    }

    /// Appends `n` requests in `first`'s direction, at `first`'s block and
    /// the `n - 1` blocks after it. `n == 0` appends nothing.
    #[inline]
    pub fn push_run(&mut self, first: Request, n: u64) {
        if n > 0 {
            self.push_packed(first.pack(), n);
        }
    }

    #[inline]
    fn push_packed(&mut self, head: u64, len: u64) {
        self.requests += len;
        if let Some(last) = self.runs.last_mut() {
            if last.next() == head {
                last.len += len;
                return;
            }
        }
        self.runs.push(Run { head, len });
    }

    /// The runs, in issue order.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Requests covered by all runs.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// The buffered requests, expanded, in issue order.
    pub fn iter(&self) -> impl Iterator<Item = Request> + '_ {
        expand(&self.runs).map(Request::unpack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_are_at_most_sixteen_bytes() {
        assert!(std::mem::size_of::<Run>() <= 16);
    }

    #[test]
    fn continuing_requests_merge() {
        let mut buf = RunBuf::new();
        for i in 0..10u64 {
            buf.push(Request::read(i * 64));
        }
        buf.push_run(Request::read(640), 5);
        assert_eq!(
            buf.runs(),
            [Run {
                head: Request::read(0).pack(),
                len: 15
            }]
        );
        assert_eq!(buf.requests(), 15);
    }

    #[test]
    fn gaps_direction_changes_and_repeats_split_runs() {
        let mut buf = RunBuf::new();
        buf.push(Request::read(0));
        buf.push(Request::read(128)); // gap
        buf.push(Request::write(192)); // direction change
        buf.push(Request::write(192)); // repeat of the same block
        assert_eq!(buf.runs().len(), 4);
        let back: Vec<Request> = buf.iter().collect();
        assert_eq!(
            back,
            [
                Request::read(0),
                Request::read(128),
                Request::write(192),
                Request::write(192)
            ]
        );
    }

    #[test]
    fn empty_runs_are_dropped_and_clear_resets() {
        let mut buf = RunBuf::new();
        buf.push_run(Request::write(64), 0);
        assert!(buf.runs().is_empty());
        buf.push_run(Request::write(64), 3);
        buf.clear();
        assert_eq!(buf.requests(), 0);
        assert!(buf.runs().is_empty());
        buf.push(Request::read(0));
        buf.push(Request::read(64));
        assert_eq!(buf.runs().len(), 1);
    }
}
