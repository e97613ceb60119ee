//! Point-in-time metric snapshots and their stable JSON rendering.

use crate::histogram::HistogramSnapshot;

/// Version tag embedded in every snapshot's JSON rendering. Consumers
/// (CI archival, plotting scripts) key on this to detect schema drift.
pub const SCHEMA: &str = "seda-telemetry/v1";

/// A sorted, immutable copy of every metric a [`crate::SharedSink`] has
/// seen.
///
/// # Examples
///
/// ```
/// use seda_telemetry::SharedSink;
/// use seda_telemetry::Sink;
///
/// let sink = SharedSink::new();
/// sink.add("crypto.aes.block_evals", 16);
/// let snap = sink.snapshot();
/// let json = snap.to_json();
/// assert!(json.contains("\"schema\": \"seda-telemetry/v1\""));
/// assert!(json.contains("\"crypto.aes.block_evals\": 16"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// `(name, value)` counter pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, summary)` histogram pairs, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// The value of counter `name`, if it was ever incremented.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.counters[i].1)
    }

    /// The summary of histogram `name`, if it ever recorded a sample.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.histograms[i].1)
    }

    /// Renders the snapshot as pretty-printed JSON under the stable
    /// `seda-telemetry/v1` schema:
    ///
    /// ```json
    /// {
    ///   "schema": "seda-telemetry/v1",
    ///   "counters": { "<name>": <u64>, ... },
    ///   "histograms": {
    ///     "<name>": {
    ///       "count": <u64>, "sum": <u64>, "min": <u64>, "max": <u64>,
    ///       "log2_buckets": [[<bucket>, <count>], ...]
    ///     }, ...
    ///   }
    /// }
    /// ```
    ///
    /// All values are integers (histogram means are left to consumers),
    /// names are sorted, and the two top-level maps are always present —
    /// byte-stable output for identical metric states.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {},\n", json_string(SCHEMA)));
        out.push_str("  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!("    {}: {value}", json_string(name)));
        }
        out.push_str(if self.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let buckets: Vec<String> = h
                .log2_buckets
                .iter()
                .map(|(b, n)| format!("[{b}, {n}]"))
                .collect();
            out.push_str(&format!(
                "    {}: {{ \"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"log2_buckets\": [{}] }}",
                json_string(name),
                h.count,
                h.sum,
                h.min,
                h.max,
                buckets.join(", ")
            ));
        }
        out.push_str(if self.histograms.is_empty() {
            "}\n"
        } else {
            "\n  }\n"
        });
        out.push_str("}\n");
        out
    }
}

/// Quotes and escapes `s` as a JSON string literal (RFC 8259: `"`, `\`
/// and every control character are escaped).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{SharedSink, Sink};

    #[test]
    fn empty_snapshot_renders_stable_skeleton() {
        let json = Snapshot::default().to_json();
        assert_eq!(
            json,
            "{\n  \"schema\": \"seda-telemetry/v1\",\n  \"counters\": {},\n  \
             \"histograms\": {}\n}\n"
        );
    }

    #[test]
    fn json_is_byte_stable_for_identical_states() {
        let make = || {
            let s = SharedSink::new();
            s.add("b.two", 2);
            s.add("a.one", 1);
            s.record("h.lat", 100);
            s.record("h.lat", 200);
            s.snapshot().to_json()
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn rendered_json_contains_sorted_names_and_values() {
        let s = SharedSink::new();
        s.add("z.last", 9);
        s.add("a.first", 3);
        s.record("lat", 5);
        let json = s.snapshot().to_json();
        let a = json.find("a.first").expect("a.first present");
        let z = json.find("z.last").expect("z.last present");
        assert!(a < z, "names must be sorted");
        assert!(json.contains("\"a.first\": 3"));
        assert!(json.contains("\"count\": 1, \"sum\": 5, \"min\": 5, \"max\": 5"));
        assert!(json.contains("\"log2_buckets\": [[3, 1]]"));
    }

    #[test]
    fn accessors_hit_and_miss() {
        let s = SharedSink::new();
        s.add("one", 1);
        s.record("h", 0);
        let snap = s.snapshot();
        assert_eq!(snap.counter("one"), Some(1));
        assert_eq!(snap.counter("two"), None);
        assert_eq!(snap.histogram("h").map(|h| h.count), Some(1));
    }

    #[test]
    fn json_strings_escape_specials() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
