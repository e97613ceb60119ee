//! Stage-attributed benchmark for the SeDA reproduction.
//!
//! Three workloads (see `README.md` in this package for why each exists):
//!
//! * `paper-sweep` — the Fig. 5/6 headline sweep through `Sweep`;
//! * `decode-steady` — a long-context transformer decode with the hash
//!   verifier and back-to-back repeats, through `Sweep`;
//! * `provision-serve` — unsealing one large sealed-model stream through
//!   `StreamUnsealer`, then one seeded multi-tenant serving run through
//!   `seda_serve::spec::build` → `simulate` → `ServeReport::new`.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a traced
//! run (`--trace 1`) wraps every call into a crate in a span and reports
//! per-layer self times and counters. Both check the outputs; every
//! failed check counts against `failed`.

pub mod pins;
pub mod provision;
pub mod sweeps;
pub mod trace;
pub mod util;

use std::collections::BTreeMap;
use std::time::Instant;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["paper-sweep", "decode-steady", "provision-serve"];

/// End-to-end metrics `(name, unit)`, reported with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("seda_perf_overhead_pct", "%"),
    ("seda_traffic_overhead_pct", "%"),
];

/// Per-layer metrics `(name, unit)`, reported by the traced run. A layer
/// a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("scalesim.simulate_s", "s"),
    ("scalesim.trace_hit_rate", "ratio"),
    ("protect.lower_s", "s"),
    ("protect.lower_s.baseline", "s"),
    ("protect.lower_s.sgx64", "s"),
    ("protect.lower_s.sgx512", "s"),
    ("protect.lower_s.mgx64", "s"),
    ("protect.lower_s.mgx512", "s"),
    ("protect.lower_s.seda", "s"),
    ("protect.requests", "count"),
    ("protect.ns_per_request", "ns"),
    ("protect.mac_hit_rate", "ratio"),
    ("protect.vn_hit_rate", "ratio"),
    ("protect.writebacks", "count"),
    ("protect.metadata_ratio", "ratio"),
    ("protect.seq_run_share", "ratio"),
    ("dram.replay_s", "s"),
    ("dram.ns_per_request", "ns"),
    ("dram.row_hit_rate", "ratio"),
    ("dram.write_share", "ratio"),
    ("dram.drain_s", "s"),
    ("core.point_ms_p50", "ms"),
    ("core.point_ms_p90", "ms"),
    ("core.point_samples", "count"),
    ("core.parallel_efficiency", "ratio"),
    ("core.other_s", "s"),
    ("stream.seal_s", "s"),
    ("stream.unseal_s", "s"),
    ("stream.frames", "count"),
    ("stream.ns_per_frame", "ns"),
    ("stream.unseal_gbps", "GB/s"),
    ("stream.mac_share", "ratio"),
    ("crypto.aes_ns_per_block", "ns"),
    ("crypto.mac_ns_per_tag", "ns"),
    ("serve.build_s", "s"),
    ("serve.simulate_s", "s"),
    ("serve.report_s", "s"),
    ("serve.events", "count"),
    ("serve.ns_per_event", "ns"),
    ("serve.events_per_s", "1/s"),
    ("serve.utilization", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.inspect_s", "s"),
    ("host.cpus", "count"),
];

/// Input size: `Full` is what the benchmark measures; `Small` runs the
/// same code paths on small inputs for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured sizes.
    Full,
    /// Small inputs for tests.
    Small,
}

impl Size {
    /// `full` or `small`.
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Small => "small",
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement time budget in seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the untraced one.
    pub trace: bool,
    /// Input size.
    pub size: Size,
}

/// Attempted and failed operations; a failure is printed when counted.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations attempted (sweep points, fixture points, digests,
    /// streams, serving requests, ...).
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }

    /// Counts `attempted` operations of which `failed` failed; the caller
    /// prints the failures.
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// What one invocation measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// The options it ran with.
    pub options: Options,
    /// Check accounting.
    pub tally: Tally,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable summary lines.
    pub notes: Vec<String>,
}

impl Report {
    fn new(options: Options) -> Self {
        Self {
            options,
            tally: Tally::default(),
            metrics: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Sets metric `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a summary line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The metrics this run must print, `(name, value, unit)`: every
    /// end-to-end metric untraced, every per-layer metric traced.
    pub fn declared(&self) -> Vec<(&'static str, f64, &'static str)> {
        let table: &[(&str, &str)] = if self.options.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        };
        table
            .iter()
            .map(|&(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                (name, if v.is_finite() { v } else { 0.0 }, unit)
            })
            .collect()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .declared()
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0 && self.tally.attempted > 0,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// Writes the traced run's spans to `out/spans-<workload>-seed<n>.jsonl`
/// in this package and notes the path.
pub fn write_spans(report: &mut Report, spans: &[trace::Span]) {
    let o = &report.options;
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{}.jsonl", o.workload, o.seed));
    let run = format!("{}/{}", o.workload, o.seed);
    match trace::write_jsonl(&path, &run, spans) {
        Ok(()) => report.note(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => report.note(format!("spans not written to {}: {e}", path.display())),
    }
}

/// Notes each layer's self time per traced run against the traced wall
/// time × workers; the difference is time no span covered (idle
/// workers). `by_layer` sums `reps` traced runs.
pub fn note_layer_split(
    report: &mut Report,
    by_layer: &BTreeMap<&'static str, f64>,
    reps: f64,
    wall: f64,
    workers: usize,
) {
    let total: f64 = by_layer.values().sum::<f64>() / reps;
    let mut layers: Vec<(&str, f64)> = by_layer.iter().map(|(&l, &s)| (l, s / reps)).collect();
    layers.sort_by(|a, b| b.1.total_cmp(&a.1));
    let split: Vec<String> = layers
        .iter()
        .map(|(l, s)| format!("{l} {s:.4} s ({:.1}%)", 100.0 * util::ratio(*s, total)))
        .collect();
    report.note(format!(
        "layer self time per traced run: {}; sum {total:.4} s of {:.4} s wall x {workers} workers",
        split.join(", "),
        wall,
    ));
}

/// Sets up once and runs `measure` on those inputs, which may call its
/// third argument to time `per_call` more set-ups between timed
/// repetitions, then records `peak_rss_mb`. `setup_s` is the median over
/// all the set-ups.
///
/// # Errors
///
/// A set-up or measurement error.
fn setup_and_measure<T>(
    report: &mut Report,
    per_call: usize,
    mut setup: impl FnMut() -> Result<T, String>,
    measure: impl FnOnce(&T, &mut Report, &mut dyn FnMut()) -> Result<(), String>,
) -> Result<(), String> {
    let mut times = Vec::new();
    let mut timed = |setup: &mut dyn FnMut() -> Result<T, String>| {
        let t = Instant::now();
        let inputs = setup();
        times.push(t.elapsed().as_secs_f64());
        inputs
    };
    let inputs = timed(&mut setup)?;
    let mut failed = None;
    measure(&inputs, report, &mut || {
        for _ in 0..per_call {
            if let Err(e) = timed(&mut setup) {
                failed.get_or_insert(e);
            }
        }
    })?;
    report.set("peak_rss_mb", util::peak_rss_mb());
    if let Some(e) = failed {
        return Err(e);
    }
    report.set("setup_s", util::median(&times));
    report.note(format!(
        "set-up: {} runs, first {:.6} s, p10 {:.6} s, median {:.6} s, p90 {:.6} s",
        times.len(),
        times[0],
        util::quantile(&times, 0.1),
        util::median(&times),
        util::quantile(&times, 0.9)
    ));
    Ok(())
}

/// Runs one invocation end to end.
///
/// # Errors
///
/// An unknown workload or a set-up failure (missing fixture, invalid
/// scenario); output mismatches are counted in the report instead.
pub fn run(options: Options) -> Result<Report, String> {
    let mut report = Report::new(options.clone());
    let seconds = options.seconds;
    match options.workload.as_str() {
        "paper-sweep" | "decode-steady" => setup_and_measure(
            &mut report,
            sweeps::SETUPS_PER_REP,
            || {
                if options.workload == "paper-sweep" {
                    sweeps::paper_sweep(options.size)
                } else {
                    Ok(sweeps::decode_steady(options.size))
                }
            },
            |inputs, report, between| {
                if options.trace {
                    sweeps::measure_traced(inputs, seconds, report);
                } else {
                    sweeps::measure(inputs, seconds, report, between);
                }
                Ok(())
            },
        )?,
        "provision-serve" => setup_and_measure(
            &mut report,
            provision::SETUPS_PER_REP,
            || provision::setup(options.seed, options.size),
            |inputs, report, between| {
                report.set("stream.seal_s", inputs.seal_s);
                if options.trace {
                    provision::measure_traced(inputs, seconds, report)
                } else {
                    provision::measure(inputs, seconds, report, between)
                }
            },
        )?,
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {WORKLOADS:?}"
            ))
        }
    }
    report.set("host.cpus", util::host_cpus() as f64);
    report.note(format!("host_cpus: {}", util::host_cpus()));
    report.note(format!(
        "checks: {} attempted, {} failed, error_rate {}",
        report.tally.attempted,
        report.tally.failed,
        util::ratio(report.tally.failed as f64, report.tally.attempted as f64)
    ));
    Ok(report)
}
