//! Production failure semantics for sweep and scenario execution.
//!
//! One bad point must never kill a thousand-point run. This module holds
//! the policy and reporting vocabulary the [`Sweep`](crate::sweep::Sweep)
//! engine executes under:
//!
//! * [`FailurePolicy`] — what happens when a point fails: abort the run
//!   (`fail-fast`), degrade to a partial result (`skip`), or retry with a
//!   deterministic, jitter-free exponential backoff *account* (the
//!   schedule is recorded, never slept with randomness, so a retried run
//!   replays bit-identically).
//! * [`PointContext`] / [`FaultHook`] — the injection surface the chaos
//!   harness (`seda-adversary`) uses to plant deterministic transient
//!   faults at the start of each attempt.
//! * [`PointReport`] / [`FailureReport`] — per-attempt accounting and a
//!   structured digest of *every* failed point with its full `source()`
//!   chain, not just the first.
//! * [`JournalWriter`] / [`load_journal`] — the `seda-checkpoint/v1`
//!   line-oriented JSON journal: completed points stream to disk as they
//!   finish, and a resumed run replays them bit-identically without
//!   re-executing (`seda_cli scenario run --resume <journal>`).
//!
//! # Determinism guarantees
//!
//! A point's result is a pure function of its (NPU, model, scheme, DRAM
//! config, repeat count) tuple — never of the attempt index, wall-clock
//! time, or thread interleaving. Three consequences the `resilience`
//! validation family asserts:
//!
//! 1. A retried run (transient faults, then success) is bit-identical to
//!    a clean run.
//! 2. A killed-then-resumed run (journal replay + fresh execution of the
//!    remainder) is bit-identical to a clean run.
//! 3. Backoff is accounting only: `base << (attempt - 1)` milliseconds,
//!    no jitter, no sleeping, so failure reports replay exactly.

use crate::error::SedaError;
use crate::pipeline::RunResult;
use crate::scenario::ScenarioError;
use serde::{Deserialize, Serialize, Value};
use std::error::Error as StdError;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Schema tag on the first line of every checkpoint journal. Bump only
/// with a compatibility shim: `--resume` must keep reading old journals.
pub const CHECKPOINT_SCHEMA: &str = "seda-checkpoint/v1";

/// What the sweep engine does when a point fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Stop claiming new points after the first failure; unexecuted
    /// points surface as [`SedaError::PointCancelled`]. (Points already
    /// in flight on other workers still finish — cancellation is
    /// cooperative, so the exact cancelled set is only deterministic
    /// under serial execution.)
    FailFast,
    /// Record the failure and keep going; the run degrades to a partial
    /// result carrying a [`FailureReport`].
    Skip,
    /// Re-run a failed point up to `max_attempts` times total, with a
    /// deterministic jitter-free backoff *account* of
    /// `base_backoff_ms << (attempt - 1)` between attempts. The backoff
    /// is recorded in the [`PointReport`], not slept: sweep points are
    /// compute-bound and deterministic, so waiting adds latency without
    /// changing the outcome, and recording keeps replays bit-identical.
    Retry {
        /// Total attempts per point (first try included); clamped to ≥ 1.
        max_attempts: u32,
        /// Base of the exponential backoff account, in milliseconds.
        base_backoff_ms: u64,
    },
}

impl Default for FailurePolicy {
    /// `Skip`: the engine-level default degrades rather than aborts.
    /// (Scenarios default to `FailFast` at their level, preserving the
    /// historical all-or-nothing CLI contract.)
    fn default() -> Self {
        FailurePolicy::Skip
    }
}

impl FailurePolicy {
    /// Total attempts a point may consume under this policy.
    pub fn max_attempts(&self) -> u32 {
        match self {
            FailurePolicy::Retry { max_attempts, .. } => (*max_attempts).max(1),
            _ => 1,
        }
    }

    /// Deterministic backoff accounted *after* a failed `attempt`
    /// (1-based), in milliseconds. Zero for non-retry policies and after
    /// the final attempt.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        match self {
            FailurePolicy::Retry {
                max_attempts,
                base_backoff_ms,
            } => {
                if attempt >= (*max_attempts).max(1) {
                    0
                } else {
                    // Clamp the shift so a large attempt count saturates
                    // instead of overflowing.
                    base_backoff_ms.saturating_mul(1u64 << attempt.saturating_sub(1).min(16))
                }
            }
            _ => 0,
        }
    }
}

/// Backoff base used when a scenario's `{"retry": ...}` block omits
/// `base_backoff_ms`.
pub const DEFAULT_BASE_BACKOFF_MS: u64 = 100;

// Scenario JSON spelling: `"fail-fast"` | `"skip"` |
// `{"retry": {"max_attempts": N, "base_backoff_ms": M}}`. Mixed
// string/object JSON is outside what the vendored derive emits, so the
// impls are hand-written against the Value tree (same pattern as the
// scenario module's `WorkloadSpec`).
impl Serialize for FailurePolicy {
    fn to_value(&self) -> Value {
        match self {
            FailurePolicy::FailFast => Value::String("fail-fast".to_owned()),
            FailurePolicy::Skip => Value::String("skip".to_owned()),
            FailurePolicy::Retry {
                max_attempts,
                base_backoff_ms,
            } => {
                let mut inner = serde::Map::new();
                inner.insert("max_attempts", max_attempts.to_value());
                inner.insert("base_backoff_ms", base_backoff_ms.to_value());
                let mut outer = serde::Map::new();
                outer.insert("retry", Value::Object(inner));
                Value::Object(outer)
            }
        }
    }
}

impl Deserialize for FailurePolicy {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        match v {
            Value::String(s) => match s.as_str() {
                "fail-fast" => Ok(FailurePolicy::FailFast),
                "skip" => Ok(FailurePolicy::Skip),
                other => Err(serde::Error::custom(format!(
                    "on_failure must be \"fail-fast\", \"skip\", or \
                     {{\"retry\": ...}}, found {other:?}"
                ))),
            },
            Value::Object(m) => {
                let inner = m.get("retry").and_then(Value::as_object).ok_or_else(|| {
                    serde::Error::custom(
                        "on_failure object must be {\"retry\": {\"max_attempts\": ..}}",
                    )
                })?;
                let max_attempts: u32 = serde::de_field(inner, "max_attempts")?;
                let base_backoff_ms: Option<u64> = serde::de_field(inner, "base_backoff_ms")?;
                Ok(FailurePolicy::Retry {
                    max_attempts,
                    base_backoff_ms: base_backoff_ms.unwrap_or(DEFAULT_BASE_BACKOFF_MS),
                })
            }
            other => Err(serde::Error::custom(format!(
                "on_failure must be a policy name or a retry object, found {other:?}"
            ))),
        }
    }
}

/// Identity of one sweep-point attempt, handed to a [`FaultHook`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointContext {
    /// Flat point index in npu-major → model → scheme order.
    pub index: usize,
    /// 1-based attempt number under the active [`FailurePolicy`].
    pub attempt: u32,
    /// NPU label of the point.
    pub npu: String,
    /// Model label of the point.
    pub model: String,
    /// Scheme label of the point.
    pub scheme: String,
}

/// The `npu/model/scheme` label of one sweep point, used in errors and
/// reports.
pub(crate) fn point_label(npu: &str, model: &str, scheme: &str) -> String {
    format!("{npu}/{model}/{scheme}")
}

impl PointContext {
    /// `npu/model/scheme` label used in errors and reports.
    pub fn label(&self) -> String {
        point_label(&self.npu, &self.model, &self.scheme)
    }
}

/// Fault-injection surface: called at the start of every point attempt,
/// *inside* the point's panic isolation. Returning an error fails the
/// attempt with that error; panicking fails it as
/// [`SedaError::PointPanicked`]; sleeping past the watchdog budget fails
/// it as [`SedaError::PointTimedOut`]. The chaos harness in
/// `seda-adversary` builds these from seeded fault plans.
pub type FaultHook = Arc<dyn Fn(&PointContext) -> Result<(), SedaError> + Send + Sync>;

/// Streaming sink for completed points (checkpoint journaling): called
/// with the flat point index and its runs as each point succeeds.
pub type PointSink = Box<dyn Fn(usize, &[RunResult]) + Send + Sync>;

/// Accounting for one attempt of one point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttemptRecord {
    /// 1-based attempt number.
    pub attempt: u32,
    /// The failure rendered as a string, or `None` if this attempt
    /// succeeded.
    pub error: Option<String>,
    /// Deterministic backoff accounted after this attempt, ms.
    pub backoff_ms: u64,
}

/// Execution record of one sweep point under the active policy.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PointReport {
    /// One record per attempt, in attempt order. Empty only for points
    /// replayed from a journal or cancelled before starting.
    pub attempts: Vec<AttemptRecord>,
    /// The point was replayed from a checkpoint journal, not executed.
    pub resumed: bool,
    /// The point was never started because fail-fast aborted the run.
    pub cancelled: bool,
}

impl PointReport {
    /// Number of attempts actually executed.
    pub fn attempts_made(&self) -> u32 {
        self.attempts.len() as u32
    }

    /// Sum of the deterministic backoff account across attempts, ms.
    pub fn total_backoff_ms(&self) -> u64 {
        self.attempts.iter().map(|a| a.backoff_ms).sum()
    }
}

/// One failed point with its labels, attempt count, and final error.
#[derive(Debug, Clone, PartialEq)]
pub struct PointFailure {
    /// NPU label.
    pub npu: String,
    /// Model label.
    pub model: String,
    /// Scheme label.
    pub scheme: String,
    /// Attempts consumed before giving up (0 for cancelled points).
    pub attempts: u32,
    /// The error that poisoned the final attempt.
    pub error: SedaError,
}

impl PointFailure {
    /// `npu/model/scheme` label of the failed point.
    pub fn label(&self) -> String {
        point_label(&self.npu, &self.model, &self.scheme)
    }
}

/// Every failed point of a run, in deterministic cross-product order.
///
/// This is the structured form the old first-failure-only error path
/// threw away: partial [`ScenarioRun`](crate::scenario::ScenarioRun)s
/// carry it, [`SedaError::ScenarioPointFailed`] wraps it, and
/// [`render`](Self::render) walks each failure's full `source()` chain.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FailureReport {
    /// All failed points, ordered by flat point index.
    pub failures: Vec<PointFailure>,
}

impl FailureReport {
    /// No point failed.
    pub fn is_empty(&self) -> bool {
        self.failures.is_empty()
    }

    /// Number of failed points.
    pub fn len(&self) -> usize {
        self.failures.len()
    }

    /// The first failure in deterministic order, if any.
    pub fn first(&self) -> Option<&PointFailure> {
        self.failures.first()
    }

    /// Multi-line human rendering: one block per failed point, with the
    /// error's full `source()` chain indented beneath it.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.failures {
            out.push_str(&format!(
                "  {} failed after {} attempt{}: {}\n",
                f.label(),
                f.attempts,
                if f.attempts == 1 { "" } else { "s" },
                f.error
            ));
            let mut source = f.error.source();
            while let Some(cause) = source {
                out.push_str(&format!("    caused by: {cause}\n"));
                source = cause.source();
            }
        }
        out
    }
}

impl fmt::Display for FailureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// First line of a checkpoint journal: schema tag plus the sweep axes,
/// so `--resume` refuses a journal recorded for a different run shape.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalHeader {
    /// Always [`CHECKPOINT_SCHEMA`].
    pub schema: String,
    /// Name of the scenario (or ad-hoc sweep) that produced the journal.
    pub scenario: String,
    /// Total point count of the sweep.
    pub points: usize,
    /// NPU labels in sweep order.
    pub npus: Vec<String>,
    /// Model labels in sweep order.
    pub models: Vec<String>,
    /// Scheme labels in sweep order.
    pub schemes: Vec<String>,
}

/// One journal body line: a completed point and its runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct JournalEntry {
    point: usize,
    runs: Vec<RunResult>,
}

/// A parsed checkpoint journal: the header plus an index-aligned vector
/// with `Some(runs)` for every completed point.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalContents {
    /// The validated header line.
    pub header: JournalHeader,
    /// One slot per sweep point; `Some` where the journal has runs.
    pub points: Vec<Option<Vec<RunResult>>>,
}

impl JournalContents {
    /// Number of points the journal can replay.
    pub fn completed(&self) -> usize {
        self.points.iter().filter(|p| p.is_some()).count()
    }
}

fn checkpoint_err(reason: String) -> SedaError {
    SedaError::Scenario(ScenarioError::Checkpoint { reason })
}

/// Append-only, crash-tolerant writer for the `seda-checkpoint/v1`
/// journal. One JSON object per line, flushed per point, so a killed run
/// loses at most the line being written — and [`load_journal`] tolerates
/// that torn tail.
///
/// Write errors are latched rather than panicking mid-sweep; callers
/// surface them through [`finish`](Self::finish).
pub struct JournalWriter {
    file: Mutex<File>,
    error: Mutex<Option<String>>,
}

impl JournalWriter {
    /// Creates (truncating) a journal at `path` and writes the header.
    pub fn create(path: &Path, header: &JournalHeader) -> Result<Self, SedaError> {
        let mut file = File::create(path).map_err(|e| {
            checkpoint_err(format!("cannot create journal {}: {e}", path.display()))
        })?;
        let line = serde_json::to_string(header)
            .map_err(|e| checkpoint_err(format!("cannot encode journal header: {e}")))?;
        writeln!(file, "{line}")
            .and_then(|()| file.flush())
            .map_err(|e| checkpoint_err(format!("cannot write journal header: {e}")))?;
        Ok(Self {
            file: Mutex::new(file),
            error: Mutex::new(None),
        })
    }

    /// Opens an existing journal for appending (resume continuation);
    /// the header written by the original run stays in place.
    pub fn append(path: &Path) -> Result<Self, SedaError> {
        let file = OpenOptions::new().append(true).open(path).map_err(|e| {
            checkpoint_err(format!("cannot append journal {}: {e}", path.display()))
        })?;
        Ok(Self {
            file: Mutex::new(file),
            error: Mutex::new(None),
        })
    }

    /// Records one completed point. Infallible by design (usable as a
    /// [`PointSink`] from worker threads); failures latch into
    /// [`finish`](Self::finish).
    pub fn record(&self, point: usize, runs: &[RunResult]) {
        let entry = JournalEntry {
            point,
            runs: runs.to_vec(),
        };
        let outcome = serde_json::to_string(&entry)
            .map_err(|e| format!("cannot encode journal entry: {e}"))
            .and_then(|line| {
                let mut file = match self.file.lock() {
                    Ok(f) => f,
                    Err(poisoned) => poisoned.into_inner(),
                };
                writeln!(file, "{line}")
                    .and_then(|()| file.flush())
                    .map_err(|e| format!("cannot write journal entry: {e}"))
            });
        if let Err(e) = outcome {
            let mut slot = match self.error.lock() {
                Ok(s) => s,
                Err(poisoned) => poisoned.into_inner(),
            };
            slot.get_or_insert(e);
        }
    }

    /// Surfaces the first latched write error, if any. Call after the
    /// sweep completes: a journal that silently dropped points would
    /// resume incorrectly.
    pub fn finish(&self) -> Result<(), SedaError> {
        let slot = match self.error.lock() {
            Ok(s) => s,
            Err(poisoned) => poisoned.into_inner(),
        };
        match slot.as_ref() {
            Some(e) => Err(checkpoint_err(e.clone())),
            None => Ok(()),
        }
    }
}

/// Loads and validates a `seda-checkpoint/v1` journal.
///
/// Duplicate entries for a point keep the last one; a torn final line
/// (the run was killed mid-write) is ignored, everything before it
/// replays. Out-of-range point indices and schema mismatches are hard
/// errors: the journal does not describe this sweep.
///
/// # Errors
///
/// Returns [`ScenarioError::Checkpoint`] (wrapped in
/// [`SedaError::Scenario`]) for I/O failures, a bad or missing header,
/// or entries outside the header's point range.
pub fn load_journal(path: &Path) -> Result<JournalContents, SedaError> {
    let file = File::open(path)
        .map_err(|e| checkpoint_err(format!("cannot open journal {}: {e}", path.display())))?;
    let mut lines = BufReader::new(file).lines();
    let header_line = lines
        .next()
        .ok_or_else(|| checkpoint_err(format!("journal {} is empty", path.display())))?
        .map_err(|e| checkpoint_err(format!("cannot read journal {}: {e}", path.display())))?;
    let header: JournalHeader = serde_json::from_str(&header_line)
        .map_err(|e| checkpoint_err(format!("bad journal header: {e}")))?;
    if header.schema != CHECKPOINT_SCHEMA {
        return Err(checkpoint_err(format!(
            "journal schema {:?} is not {CHECKPOINT_SCHEMA:?}",
            header.schema
        )));
    }
    let expected = header.npus.len() * header.models.len() * header.schemes.len();
    if header.points != expected {
        return Err(checkpoint_err(format!(
            "journal header declares {} points but its axes multiply to {expected}",
            header.points
        )));
    }
    let mut points: Vec<Option<Vec<RunResult>>> = vec![None; header.points];
    for line in lines {
        let line = line
            .map_err(|e| checkpoint_err(format!("cannot read journal {}: {e}", path.display())))?;
        if line.trim().is_empty() {
            continue;
        }
        let entry: JournalEntry = match serde_json::from_str(&line) {
            Ok(entry) => entry,
            // A torn tail is the expected artifact of killing a run
            // mid-write; everything before it is intact (each line was
            // flushed whole). Stop here and replay what we have.
            Err(_) => break,
        };
        if entry.point >= header.points {
            return Err(checkpoint_err(format!(
                "journal entry for point {} exceeds the declared {}-point sweep",
                entry.point, header.points
            )));
        }
        points[entry.point] = Some(entry.runs);
    }
    Ok(JournalContents { header, points })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_model;
    use seda_models::zoo;
    use seda_scalesim::NpuConfig;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "seda-journal-test-{tag}-{}.jsonl",
            std::process::id()
        ))
    }

    fn sample_run() -> RunResult {
        let mut scheme = seda_protect::scheme_by_name("baseline").expect("registry scheme");
        run_model(&NpuConfig::edge(), &zoo::lenet(), scheme.as_mut())
    }

    fn sample_header() -> JournalHeader {
        JournalHeader {
            schema: CHECKPOINT_SCHEMA.to_owned(),
            scenario: "unit".to_owned(),
            points: 2,
            npus: vec!["edge".to_owned()],
            models: vec!["lenet".to_owned()],
            schemes: vec!["baseline".to_owned(), "SeDA".to_owned()],
        }
    }

    #[test]
    fn backoff_account_is_exponential_jitter_free_and_capped() {
        let p = FailurePolicy::Retry {
            max_attempts: 4,
            base_backoff_ms: 10,
        };
        assert_eq!(p.backoff_ms(1), 10);
        assert_eq!(p.backoff_ms(2), 20);
        assert_eq!(p.backoff_ms(3), 40);
        assert_eq!(p.backoff_ms(4), 0, "no backoff after the final attempt");
        assert_eq!(FailurePolicy::Skip.backoff_ms(1), 0);
        assert_eq!(FailurePolicy::FailFast.backoff_ms(1), 0);
        let saturating = FailurePolicy::Retry {
            max_attempts: u32::MAX,
            base_backoff_ms: u64::MAX,
        };
        // Must not overflow even for absurd attempt counts.
        assert_eq!(saturating.backoff_ms(63), u64::MAX);
    }

    #[test]
    fn failure_policy_json_round_trips() {
        for (json, policy) in [
            ("\"fail-fast\"", FailurePolicy::FailFast),
            ("\"skip\"", FailurePolicy::Skip),
            (
                "{\"retry\": {\"max_attempts\": 3, \"base_backoff_ms\": 50}}",
                FailurePolicy::Retry {
                    max_attempts: 3,
                    base_backoff_ms: 50,
                },
            ),
        ] {
            let parsed: FailurePolicy = serde_json::from_str(json).expect(json);
            assert_eq!(parsed, policy);
            let encoded = serde_json::to_string(&policy).expect("encode");
            let reparsed: FailurePolicy = serde_json::from_str(&encoded).expect("re-parse");
            assert_eq!(reparsed, policy);
        }
        let defaulted: FailurePolicy =
            serde_json::from_str("{\"retry\": {\"max_attempts\": 2}}").expect("default backoff");
        assert_eq!(
            defaulted,
            FailurePolicy::Retry {
                max_attempts: 2,
                base_backoff_ms: DEFAULT_BASE_BACKOFF_MS,
            }
        );
        assert!(serde_json::from_str::<FailurePolicy>("\"explode\"").is_err());
        assert!(serde_json::from_str::<FailurePolicy>("{\"rety\": {}}").is_err());
    }

    #[test]
    fn failure_report_renders_every_failure_with_source_chains() {
        let report = FailureReport {
            failures: vec![
                PointFailure {
                    npu: "edge".to_owned(),
                    model: "lenet".to_owned(),
                    scheme: "SeDA".to_owned(),
                    attempts: 2,
                    error: SedaError::Integrity(crate::functional::IntegrityViolation {
                        layer: 1,
                        tensor: seda_scalesim::TensorKind::Filter,
                        block: Some(3),
                        pa: 0x40,
                    }),
                },
                PointFailure {
                    npu: "server".to_owned(),
                    model: "dlrm".to_owned(),
                    scheme: "SGX-64B".to_owned(),
                    attempts: 1,
                    error: SedaError::PointPanicked {
                        point: "server/dlrm/SGX-64B".to_owned(),
                        message: "boom".to_owned(),
                    },
                },
            ],
        };
        assert_eq!(report.len(), 2);
        let text = report.render();
        assert!(
            text.contains("edge/lenet/SeDA failed after 2 attempts"),
            "{text}"
        );
        assert!(
            text.contains("server/dlrm/SGX-64B failed after 1 attempt:"),
            "{text}"
        );
        assert!(
            text.contains("caused by:"),
            "integrity failures must show their source chain: {text}"
        );
    }

    #[test]
    fn journal_round_trips_runs_bit_identically() {
        let run = sample_run();
        let path = temp_path("roundtrip");
        let header = sample_header();
        {
            let writer = JournalWriter::create(&path, &header).expect("create");
            writer.record(1, std::slice::from_ref(&run));
            writer.finish().expect("no write errors");
        }
        let contents = load_journal(&path).expect("load");
        let _ = std::fs::remove_file(&path);
        assert_eq!(contents.header, header);
        assert_eq!(contents.completed(), 1);
        assert!(contents.points[0].is_none());
        let replayed = contents.points[1].as_ref().expect("point 1 recorded");
        assert_eq!(replayed.len(), 1);
        // Bit-identity across the JSON round trip, f64 clock included.
        assert_eq!(replayed[0], run);
        assert!(replayed[0].clock_hz.to_bits() == run.clock_hz.to_bits());
    }

    #[test]
    fn torn_final_line_is_tolerated_and_duplicates_keep_the_last() {
        let run = sample_run();
        let path = temp_path("torn");
        let header = sample_header();
        {
            let writer = JournalWriter::create(&path, &header).expect("create");
            writer.record(0, std::slice::from_ref(&run));
            writer.record(0, std::slice::from_ref(&run));
            writer.finish().expect("no write errors");
        }
        // Simulate a kill mid-write: append half a JSON object.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).expect("open");
            write!(f, "{{\"point\": 1, \"runs\": [").expect("tear");
        }
        let contents = load_journal(&path).expect("torn tail must not poison the journal");
        let _ = std::fs::remove_file(&path);
        assert_eq!(contents.completed(), 1, "only the whole lines replay");
        assert!(contents.points[1].is_none());
    }

    #[test]
    fn journal_rejects_wrong_schema_and_out_of_range_points() {
        let path = temp_path("badschema");
        std::fs::write(
            &path,
            "{\"schema\":\"seda-checkpoint/v0\",\"scenario\":\"x\",\"points\":1,\
             \"npus\":[\"edge\"],\"models\":[\"lenet\"],\"schemes\":[\"baseline\"]}\n",
        )
        .expect("write");
        let err = load_journal(&path).expect_err("schema mismatch");
        let _ = std::fs::remove_file(&path);
        assert!(err.to_string().contains("seda-checkpoint/v1"), "{err}");

        let run = sample_run();
        let path = temp_path("range");
        let writer = JournalWriter::create(&path, &sample_header()).expect("create");
        writer.record(7, std::slice::from_ref(&run));
        writer.finish().expect("write ok");
        let err = load_journal(&path).expect_err("out-of-range point");
        let _ = std::fs::remove_file(&path);
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn journal_rejects_inconsistent_header_axes() {
        let path = temp_path("axes");
        std::fs::write(
            &path,
            "{\"schema\":\"seda-checkpoint/v1\",\"scenario\":\"x\",\"points\":5,\
             \"npus\":[\"edge\"],\"models\":[\"lenet\"],\"schemes\":[\"baseline\"]}\n",
        )
        .expect("write");
        let err = load_journal(&path).expect_err("axes mismatch");
        let _ = std::fs::remove_file(&path);
        assert!(err.to_string().contains("multiply"), "{err}");
    }
}
