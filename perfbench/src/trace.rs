//! In-memory span recording for the traced run.
//!
//! The benchmark wraps each call it makes into a crate's public API in a
//! span: name, start, end, parent span, and the id of the item the call
//! worked on (a sweep point, a stream chunk, a serving run). Spans stay
//! in memory while the run is timed and are written out once it ends.
//! A span's *self time* is its duration minus the time its child spans
//! cover; a layer's self time is the sum over the spans named after it
//! (`protect.relower` belongs to layer `protect`).

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `protect.relower`.
    pub name: &'static str,
    /// Unique within a trace: `(worker << 32) | local index`.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The item the call worked on (sweep point index, chunk index, ...).
    pub item: u32,
    /// Nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Nanoseconds since the trace epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer the span is attributed to: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records the spans of one worker thread.
pub struct Recorder {
    epoch: Instant,
    worker: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder for `worker`, timing relative to `epoch`.
    pub fn new(epoch: Instant, worker: u64) -> Self {
        Self {
            epoch,
            worker,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` about `item`; spans opened by
    /// `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, item: u32, f: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.spans.len();
        let parent = self.open.last().map(|&i| self.spans[i].id);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            id: (self.worker << 32) | index as u64,
            parent,
            item,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now();
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time (ns) of every span, index-aligned with `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *children.entry(p).or_default() += s.dur_ns();
        }
    }
    spans
        .iter()
        .map(|s| s.dur_ns() - children.get(&s.id).copied().unwrap_or(0))
        .collect()
}

/// Summed self time in seconds per span name.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// Summed self time in seconds per layer.
pub fn self_seconds_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer()).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// Writes `spans` as JSON lines (one span per line) to `path`, creating
/// the parent directory.
pub fn write_jsonl(path: &Path, run: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"run\":\"{run}\",\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"item\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.item, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new(Instant::now(), 0);
        rec.span("core.point", 0, |rec| {
            rec.span("protect.relower", 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = rec.into_spans();
        assert_eq!(spans[1].parent, Some(spans[0].id));
        let own = self_times(&spans);
        assert_eq!(own[0] + own[1], spans[0].dur_ns());
        assert!(own[1] >= 2_000_000);
        let layers = self_seconds_by_layer(&spans);
        assert!(layers["protect"] > layers["core"]);
    }
}
