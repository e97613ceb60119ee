//! The two sweep workloads, `paper-sweep` and `decode-steady`.
//!
//! The untraced run times `Sweep::run`, the entry point users call. The
//! traced run replays every point stage by stage from the benchmark's own
//! code — `TraceCache::get_or_simulate`, `LoweredTrace::relower`,
//! `DramSim::run_batch_packed` per layer, then `finish` + `run_batch` for
//! the drain — on as many workers as `Sweep` uses, and requires each
//! point's cycles, `TrafficBreakdown` and `DramStats` to equal the
//! untraced run's, so both runs measure the same work.

use crate::trace::{self, Recorder, Span};
use crate::util::{self, Digest};
use crate::{Report, Size, Tally};
use seda::experiment::scheme_names;
use seda::pipeline::{dram_config_for, LoweredTrace, RunResult};
use seda::sweep::{Sweep, SweepResults};
use seda_dram::{DramSim, DramStats};
use seda_models::{zoo, Model};
use seda_protect::{
    scheme_by_name, BlockMacKind, BlockMacScheme, HashEngine, ProtectionScheme, TrafficBreakdown,
    PROTECTED_BYTES,
};
use seda_scalesim::{NpuConfig, TraceCache};
use serde::Deserialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Fresh set-ups timed after each timed repetition. A set-up takes
/// microseconds, and its speed differs from one stretch of time to the
/// next on a shared host, so `setup_s` samples the whole run.
pub const SETUPS_PER_REP: usize = 20;

/// Context length of the `decode-steady` transformer decode step.
pub const DECODE_CONTEXT: u32 = 16384;
/// Back-to-back inferences per `decode-steady` point.
pub const DECODE_REPEATS: u32 = 3;
/// The verifier of the `transformer_decode` scenario (32 B/cycle, 80
/// cycles of latency).
pub fn decode_verifier() -> HashEngine {
    HashEngine::new(32.0, 80)
}

#[derive(Debug, Clone, Deserialize)]
struct GoldenPoint {
    npu: String,
    workload: String,
    scheme: String,
    total_cycles: u64,
    traffic_bytes: u64,
}

#[derive(Debug, Clone, Deserialize)]
struct GoldenFigure {
    points: Vec<GoldenPoint>,
}

/// The read-only Fig. 5/6 fixtures, relative to the benchmark's package.
const GOLDEN_FILES: [&str; 2] = ["fig5_traffic.golden.json", "fig6_perf.golden.json"];

fn fixture_path(file: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../tests/fixtures")
        .join(file)
}

/// Everything a sweep workload needs before timing starts.
pub struct SweepInputs {
    /// Workload name.
    pub name: &'static str,
    npus: Vec<NpuConfig>,
    models: Vec<Model>,
    schemes: Vec<&'static str>,
    verifier: Option<HashEngine>,
    repeats: u32,
    sweep: Sweep,
    golden: Vec<GoldenPoint>,
    pinned: Option<String>,
}

/// Builds the `paper-sweep` inputs: 13 zoo models (LeNet and DLRM at
/// the small size) × the Fig. 5/6 lineup × {server, edge}, one cold
/// inference per point.
///
/// # Errors
///
/// A missing or malformed golden fixture.
pub fn paper_sweep(size: Size) -> Result<SweepInputs, String> {
    let models = match size {
        Size::Full => zoo::all_models(),
        Size::Small => vec![zoo::lenet(), zoo::dlrm()],
    };
    let mut golden = Vec::new();
    for file in GOLDEN_FILES {
        let path = fixture_path(file);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let fig: GoldenFigure =
            serde_json::from_str(&text).map_err(|e| format!("bad fixture {file}: {e}"))?;
        golden.extend(fig.points);
    }
    Ok(build("paper-sweep", size, models, None, 1, golden))
}

/// Builds the `decode-steady` inputs: a transformer decode step against
/// a long KV cache × the Fig. 5/6 lineup × {server, edge}, with the
/// scenario's hash verifier and back-to-back repeats.
pub fn decode_steady(size: Size) -> SweepInputs {
    let (context, repeats) = match size {
        Size::Full => (DECODE_CONTEXT, DECODE_REPEATS),
        Size::Small => (256, 2),
    };
    build(
        "decode-steady",
        size,
        vec![zoo::transformer_decode(context)],
        Some(decode_verifier()),
        repeats,
        Vec::new(),
    )
}

fn build(
    name: &'static str,
    size: Size,
    models: Vec<Model>,
    verifier: Option<HashEngine>,
    repeats: u32,
    golden: Vec<GoldenPoint>,
) -> SweepInputs {
    let npus = vec![NpuConfig::server(), NpuConfig::edge()];
    let schemes = scheme_names();
    let mut sweep = Sweep::new()
        .npus(npus.clone())
        .models(models.clone())
        .schemes(schemes.iter().copied())
        .repeats(repeats);
    if let Some(engine) = verifier {
        sweep = sweep.verifier(engine);
    }
    SweepInputs {
        name,
        npus,
        models,
        schemes,
        verifier,
        repeats,
        sweep,
        golden,
        pinned: crate::pins::sweep_digest(name, size),
    }
}

impl SweepInputs {
    /// Number of sweep points.
    pub fn points(&self) -> usize {
        self.npus.len() * self.models.len() * self.schemes.len()
    }

    fn coords(&self, idx: usize) -> (usize, usize, usize) {
        let s = self.schemes.len();
        let m = self.models.len();
        (idx / (s * m), (idx / s) % m, idx % s)
    }
}

/// Digest of every point's per-inference cycles (total and per layer),
/// `TrafficBreakdown` and `DramStats`, in sweep order.
pub fn digest(results: &SweepResults) -> Digest {
    let mut d = Digest::default();
    let (n, m, s) = results.shape();
    for ni in 0..n {
        for mi in 0..m {
            for si in 0..s {
                d.text(&results.npu_labels()[ni]);
                d.text(&results.model_labels()[mi]);
                d.text(&results.scheme_labels()[si]);
                match results.outcome(ni, mi, si) {
                    Ok(runs) => {
                        for r in runs {
                            d.word(r.total_cycles);
                            for l in &r.layers {
                                d.word(l.cycles);
                            }
                            digest_traffic(&mut d, &r.traffic);
                            digest_dram(&mut d, &r.dram);
                        }
                    }
                    Err(e) => d.text(&e.to_string()),
                }
            }
        }
    }
    d
}

fn digest_traffic(d: &mut Digest, t: &TrafficBreakdown) {
    for w in [
        t.demand_read,
        t.demand_write,
        t.overfetch_read,
        t.mac_read,
        t.mac_write,
        t.vn_read,
        t.vn_write,
        t.tree_read,
        t.tree_write,
        t.layer_mac,
    ] {
        d.word(w);
    }
}

fn digest_dram(d: &mut Digest, s: &DramStats) {
    for w in [
        s.reads,
        s.writes,
        s.row_hits,
        s.row_empties,
        s.row_conflicts,
        s.refresh_stall_cycles,
        s.bus_busy_cycles,
    ] {
        d.word(w);
    }
}

/// SeDA's mean overhead over the unprotected baseline across all (NPU,
/// model) pairs, in percent: `(runtime, traffic)`. Runtime sums every
/// inference of a point; traffic is the cumulative tally of its last.
pub fn seda_overheads(results: &SweepResults) -> (f64, f64) {
    let labels = results.scheme_labels();
    let base = labels.iter().position(|l| l == "baseline");
    let seda = labels.iter().position(|l| l == "SeDA");
    let (Some(base), Some(seda)) = (base, seda) else {
        return (0.0, 0.0);
    };
    let (n, m, _) = results.shape();
    let (mut perf, mut traffic, mut pairs) = (0.0, 0.0, 0.0);
    for ni in 0..n {
        for mi in 0..m {
            let (Ok(b), Ok(s)) = (results.outcome(ni, mi, base), results.outcome(ni, mi, seda))
            else {
                continue;
            };
            let cycles = |runs: &[RunResult]| runs.iter().map(|r| r.total_cycles).sum::<u64>();
            perf += cycles(s) as f64 / cycles(b) as f64 - 1.0;
            let total = |runs: &[RunResult]| runs.last().map_or(0, |r| r.traffic.total());
            traffic += total(s) as f64 / total(b) as f64 - 1.0;
            pairs += 1.0;
        }
    }
    (
        100.0 * util::ratio(perf, pairs),
        100.0 * util::ratio(traffic, pairs),
    )
}

/// Checks one untraced sweep: every point succeeded, the LeNet/DLRM
/// points equal the Fig. 5/6 fixtures, and the digest equals the pinned
/// one. Each point, fixture point and digest is one attempted op.
pub fn check(inputs: &SweepInputs, results: &SweepResults, tally: &mut Tally) {
    let (n, m, s) = results.shape();
    let mut failed = 0;
    for (npu, model, scheme, e) in results.failures() {
        eprintln!("FAILED: {}: point {npu}/{model}/{scheme}: {e}", inputs.name);
        failed += 1;
    }
    tally.add((n * m * s) as u64, failed);
    for g in &inputs.golden {
        let find = |labels: &[String], want: &str| labels.iter().position(|l| l == want);
        let found = match (
            find(results.npu_labels(), &g.npu),
            find(results.model_labels(), &g.workload),
            find(results.scheme_labels(), &g.scheme),
        ) {
            (Some(ni), Some(mi), Some(si)) => results
                .outcome(ni, mi, si)
                .ok()
                .and_then(|runs| runs.last())
                .map(|r| (r.total_cycles, r.traffic.total())),
            _ => None,
        };
        tally.check(found == Some((g.total_cycles, g.traffic_bytes)), || {
            format!(
                "{}: {}/{}/{} is {found:?}, golden fixture has ({}, {})",
                inputs.name, g.npu, g.workload, g.scheme, g.total_cycles, g.traffic_bytes
            )
        });
    }
    let got = digest(results).hex();
    tally.check(inputs.pinned.as_deref() == Some(got.as_str()), || {
        format!(
            "{}: output digest {got}, pinned {:?}",
            inputs.name, inputs.pinned
        )
    });
}

/// The untraced measurement: `Sweep::run` back to back until `seconds`
/// have passed, each run checked, with `between` called after each.
/// `wall_s` is the mean run time, as on `provision-serve`.
pub fn measure(inputs: &SweepInputs, seconds: f64, report: &mut Report, between: &mut dyn FnMut()) {
    let started = Instant::now();
    let mut walls = Vec::new();
    loop {
        let t = Instant::now();
        let results = inputs.sweep.run();
        walls.push(t.elapsed().as_secs_f64());
        check(inputs, &results, &mut report.tally);
        let (perf, traffic) = seda_overheads(&results);
        report.set("seda_perf_overhead_pct", perf);
        report.set("seda_traffic_overhead_pct", traffic);
        between();
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    report.note(format!(
        "{}: {} points, {} timed runs, wall mean {:.4} s, median {:.4} s, runs {:.4?}",
        inputs.name,
        inputs.points(),
        walls.len(),
        util::mean(&walls),
        util::median(&walls),
        walls
    ));
    report.set("wall_s", util::mean(&walls));
}

/// A scheme instance the traced replay can read cache statistics from.
enum BenchScheme {
    BlockMac(Box<BlockMacScheme>),
    Other(Box<dyn ProtectionScheme>),
}

impl BenchScheme {
    /// The same instance `scheme_by_name` builds for `name`.
    fn new(name: &str) -> Self {
        let block = |kind, granularity| {
            BenchScheme::BlockMac(Box::new(BlockMacScheme::new(
                kind,
                granularity,
                PROTECTED_BYTES,
            )))
        };
        match name {
            "SGX-64B" => block(BlockMacKind::Sgx, 64),
            "SGX-512B" => block(BlockMacKind::Sgx, 512),
            "MGX-64B" => block(BlockMacKind::Mgx, 64),
            "MGX-512B" => block(BlockMacKind::Mgx, 512),
            _ => BenchScheme::Other(scheme_by_name(name).expect("lineup scheme name")),
        }
    }

    fn as_dyn(&mut self) -> &mut dyn ProtectionScheme {
        match self {
            BenchScheme::BlockMac(s) => s.as_mut(),
            BenchScheme::Other(s) => s.as_mut(),
        }
    }

    /// `(mac hits, mac misses, vn hits, vn misses, writebacks)`.
    fn cache_stats(&self) -> [u64; 5] {
        match self {
            BenchScheme::BlockMac(s) => {
                let (mh, mm, mw) = s.mac_cache_stats();
                let (vh, vm, vw) = s.vn_cache_stats().unwrap_or((0, 0, 0));
                [mh, mm, vh, vm, mw + vw]
            }
            BenchScheme::Other(_) => [0; 5],
        }
    }
}

/// One point to replay: the model on an NPU under a lineup scheme.
pub struct PointSpec<'a> {
    /// Accelerator.
    pub npu: &'a NpuConfig,
    /// Workload.
    pub model: &'a Model,
    /// Lineup scheme label (`baseline`, `SGX-64B`, ..., `SeDA`).
    pub scheme: &'a str,
    /// Integrity verifier, if modelled.
    pub verifier: Option<HashEngine>,
    /// Back-to-back inferences.
    pub repeats: u32,
}

/// What the traced replay of one point produced and observed.
#[derive(Default)]
pub struct PointTrace {
    /// Per inference: (total cycles, per-layer cycles, traffic, DRAM stats).
    pub runs: Vec<(u64, Vec<u64>, TrafficBreakdown, DramStats)>,
    /// Lowered requests over all inferences.
    pub requests: u64,
    /// Of those, requests whose block follows the previous request's.
    pub sequential: u64,
    /// `(mac hits, mac misses, vn hits, vn misses, writebacks)`.
    pub cache: [u64; 5],
}

impl PointTrace {
    /// Whether the replay equals `Sweep::run`'s runs of the same point.
    pub fn matches(&self, runs: &[RunResult]) -> bool {
        runs.len() == self.runs.len()
            && runs
                .iter()
                .zip(&self.runs)
                .all(|(r, (cycles, layers, t, d))| {
                    r.total_cycles == *cycles
                        && r.layers.iter().map(|l| l.cycles).eq(layers.iter().copied())
                        && r.traffic == *t
                        && r.dram == *d
                })
    }
}

/// Replays one point stage by stage, mirroring `pipeline::run_trace`,
/// with a span around every call into `scalesim`, `protect` and `dram`.
pub fn replay_point(
    point: &PointSpec<'_>,
    item: u32,
    cache: &TraceCache,
    rec: &mut Recorder,
) -> PointTrace {
    let npu = point.npu;
    rec.span("core.point", item, |rec| {
        let sim = rec.span("scalesim.get_or_simulate", item, |_| {
            cache.get_or_simulate(npu, point.model)
        });
        let mut scheme = BenchScheme::new(point.scheme);
        let mut dram = DramSim::new(dram_config_for(npu));
        let mem_clock = dram.config().clock_hz;
        let mut lowered = LoweredTrace::default();
        let mut out = PointTrace::default();
        for _ in 0..point.repeats {
            rec.span("protect.relower", item, |_| {
                lowered.relower(&sim, scheme.as_dyn())
            });
            let (n, seq) = rec.span("bench.inspect", item, |_| {
                sequential_run(lowered.requests())
            });
            out.requests += n;
            out.sequential += seq;
            let mut total = 0u64;
            let mut layers = Vec::with_capacity(sim.layers.len());
            for (li, layer) in sim.layers.iter().enumerate() {
                let start = dram.elapsed_cycles();
                let slice = lowered.layer(li);
                rec.span("dram.run_batch_packed", item, |_| {
                    dram.run_batch_packed(slice)
                });
                let mem = dram.elapsed_cycles() - start;
                let memory_cycles = (mem as f64 / mem_clock * npu.clock_hz).ceil() as u64;
                let mut cycles = layer.compute_cycles.max(memory_cycles);
                if let Some(engine) = &point.verifier {
                    let verify = engine.stream_cycles(slice.len() as u64 * 64);
                    cycles = cycles.max(verify) + engine.layer_check_exposure();
                }
                total += cycles;
                layers.push(cycles);
            }
            out.runs
                .push((total, layers, scheme.as_dyn().breakdown(), *dram.stats()));
        }
        let start = dram.elapsed_cycles();
        let mut flush = Vec::new();
        rec.span("protect.finish", item, |_| {
            scheme.as_dyn().finish(&mut |r| flush.push(r))
        });
        rec.span("dram.run_batch", item, |_| dram.run_batch(&flush));
        let drain = dram.elapsed_cycles() - start;
        if let Some(last) = out.runs.last_mut() {
            last.0 += (drain as f64 / mem_clock * npu.clock_hz).ceil() as u64;
            last.2 = scheme.as_dyn().breakdown();
            last.3 = *dram.stats();
        }
        out.cache = scheme.cache_stats();
        out
    })
}

/// Traffic-property counters summed over replayed points.
#[derive(Debug, Clone, Copy, Default)]
pub struct Shares {
    requests: u64,
    sequential: u64,
    cache: [u64; 5],
    metadata: u64,
    demand: u64,
    reads: u64,
    writes: u64,
    row_hits: u64,
}

impl Shares {
    /// Adds one replayed point.
    pub fn add(&mut self, p: &PointTrace) {
        self.requests += p.requests;
        self.sequential += p.sequential;
        for (c, v) in self.cache.iter_mut().zip(p.cache) {
            *c += v;
        }
        if let Some((_, _, t, d)) = p.runs.last() {
            self.metadata += t.metadata();
            self.demand += t.demand();
            self.reads += d.reads;
            self.writes += d.writes;
            self.row_hits += d.row_hits;
        }
    }

    /// Reports the counters, dividing counts by `reps` repetitions.
    pub fn report(&self, reps: f64, report: &mut Report) {
        let c = |i: usize| self.cache[i] as f64;
        report.set("protect.requests", self.requests as f64 / reps);
        report.set("protect.mac_hit_rate", util::ratio(c(0), c(0) + c(1)));
        report.set("protect.vn_hit_rate", util::ratio(c(2), c(2) + c(3)));
        report.set("protect.writebacks", c(4) / reps);
        report.set(
            "protect.metadata_ratio",
            util::ratio(self.metadata as f64, self.demand as f64),
        );
        report.set(
            "protect.seq_run_share",
            util::ratio(self.sequential as f64, self.requests as f64),
        );
        let accesses = (self.reads + self.writes) as f64;
        report.set(
            "dram.row_hit_rate",
            util::ratio(self.row_hits as f64, accesses),
        );
        report.set(
            "dram.write_share",
            util::ratio(self.writes as f64, accesses),
        );
    }
}

/// `(requests, requests whose block follows the previous one's)`.
pub fn sequential_run(packed: &[u64]) -> (u64, u64) {
    let seq = packed
        .windows(2)
        .filter(|w| w[1] >> 1 == (w[0] >> 1).wrapping_add(1))
        .count();
    (packed.len() as u64, seq as u64)
}

/// One traced sweep: spans, per-point traces, wall time, worker count.
struct TracedSweep {
    spans: Vec<Span>,
    points: Vec<PointTrace>,
    wall: f64,
    workers: usize,
    trace_hits: u64,
    trace_misses: u64,
}

fn traced_sweep(inputs: &SweepInputs) -> TracedSweep {
    let total = inputs.points();
    // The same worker count `Sweep` picks by default.
    let workers = util::host_cpus().min(total.max(1));
    let cache = TraceCache::new();
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<PointTrace>>> = Mutex::new((0..total).map(|_| None).collect());
    let epoch = Instant::now();
    let spans: Vec<Vec<Span>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (cache, next, slots) = (&cache, &next, &slots);
                scope.spawn(move || {
                    let mut rec = Recorder::new(epoch, w as u64);
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= total {
                            break;
                        }
                        let (ni, mi, si) = inputs.coords(idx);
                        let spec = PointSpec {
                            npu: &inputs.npus[ni],
                            model: &inputs.models[mi],
                            scheme: inputs.schemes[si],
                            verifier: inputs.verifier,
                            repeats: inputs.repeats,
                        };
                        let point = replay_point(&spec, idx as u32, cache, &mut rec);
                        slots.lock().expect("no worker panics holding the lock")[idx] = Some(point);
                    }
                    rec.into_spans()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced worker panicked"))
            .collect()
    });
    let wall = epoch.elapsed().as_secs_f64();
    let points = slots
        .into_inner()
        .expect("workers joined")
        .into_iter()
        .map(|p| p.expect("every point replayed"))
        .collect();
    TracedSweep {
        spans: spans.into_iter().flatten().collect(),
        points,
        wall,
        workers,
        trace_hits: cache.hits(),
        trace_misses: cache.misses(),
    }
}

/// The `protect.lower_s.<scheme>` metric of a lineup label.
fn scheme_key(label: &str) -> &'static str {
    match label {
        "baseline" => "protect.lower_s.baseline",
        "SGX-64B" => "protect.lower_s.sgx64",
        "SGX-512B" => "protect.lower_s.sgx512",
        "MGX-64B" => "protect.lower_s.mgx64",
        "MGX-512B" => "protect.lower_s.mgx512",
        _ => "protect.lower_s.seda",
    }
}

/// The traced measurement: per repetition, one untraced `Sweep::run`
/// (the reference results and the overhead baseline) and one traced
/// stage-by-stage replay, in alternating order, until `seconds` have
/// passed. Times and counts
/// are means over the traced repetitions.
pub fn measure_traced(inputs: &SweepInputs, seconds: f64, report: &mut Report) {
    let started = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut shares = Shares::default();
    let mut point_ms = Vec::new();
    let (mut capacity, mut hits, mut misses) = (0.0, 0u64, 0u64);
    let mut workers;
    let untraced_run = || {
        let t = Instant::now();
        let results = inputs.sweep.run();
        (results, t.elapsed().as_secs_f64())
    };
    loop {
        // Alternate which of the pair runs first, so neither side always
        // inherits the other's memory and cache state.
        let ((results, wall), run) = if traced.len() % 2 == 0 {
            (untraced_run(), traced_sweep(inputs))
        } else {
            let run = traced_sweep(inputs);
            (untraced_run(), run)
        };
        untraced.push(wall);
        check(inputs, &results, &mut report.tally);
        traced.push(run.wall);
        for (idx, point) in run.points.iter().enumerate() {
            let (ni, mi, si) = inputs.coords(idx);
            let same = results
                .outcome(ni, mi, si)
                .is_ok_and(|runs| point.matches(runs));
            report.tally.check(same, || {
                format!(
                    "{}: traced replay of point {idx} differs from Sweep::run",
                    inputs.name
                )
            });
            shares.add(point);
        }
        for (name, secs) in trace::self_seconds_by_name(&run.spans) {
            *sums.entry(name).or_default() += secs;
        }
        for (layer, secs) in trace::self_seconds_by_layer(&run.spans) {
            *by_layer.entry(layer).or_default() += secs;
        }
        for s in &run.spans {
            if s.name == "protect.relower" {
                let label = inputs.schemes[inputs.coords(s.item as usize).2];
                *sums.entry(scheme_key(label)).or_default() += s.dur_ns() as f64 * 1e-9;
            } else if s.name == "core.point" {
                point_ms.push(s.dur_ns() as f64 * 1e-6);
            }
        }
        workers = run.workers;
        capacity += run.wall * workers as f64;
        hits += run.trace_hits;
        misses += run.trace_misses;
        if started.elapsed().as_secs_f64() >= seconds {
            crate::write_spans(report, &run.spans);
            break;
        }
    }
    let reps = traced.len() as f64;
    let get = |k: &str| sums.get(k).copied().unwrap_or(0.0) / reps;
    shares.report(reps, report);
    crate::note_layer_split(report, &by_layer, reps, util::median(&traced), workers);
    let requests = report.metrics["protect.requests"];
    report.set("scalesim.simulate_s", get("scalesim.get_or_simulate"));
    report.set(
        "scalesim.trace_hit_rate",
        util::ratio(hits as f64, (hits + misses) as f64),
    );
    report.set("protect.lower_s", get("protect.relower"));
    for label in &inputs.schemes {
        report.set(scheme_key(label), get(scheme_key(label)));
    }
    report.set(
        "protect.ns_per_request",
        util::ratio(get("protect.relower") * 1e9, requests),
    );
    report.set("dram.replay_s", get("dram.run_batch_packed"));
    report.set(
        "dram.ns_per_request",
        util::ratio(get("dram.run_batch_packed") * 1e9, requests),
    );
    report.set(
        "dram.drain_s",
        get("protect.finish") + get("dram.run_batch"),
    );
    report.set("core.point_ms_p50", util::median(&point_ms));
    report.set("core.point_ms_p90", util::quantile(&point_ms, 0.9));
    report.set("core.point_samples", point_ms.len() as f64);
    // Every span nests under a `core.point` span, so the layers' self
    // times sum to the workers' busy time.
    let busy: f64 = by_layer.values().sum();
    report.set("core.parallel_efficiency", util::ratio(busy, capacity));
    report.set("core.other_s", get("core.point"));
    report.set("trace.inspect_s", get("bench.inspect"));
    report.set("trace.wall_s", util::median(&traced));
    report.set(
        "trace.overhead_pct",
        100.0 * (util::median(&traced) / util::median(&untraced) - 1.0),
    );
    report.note(format!(
        "{}: {} traced runs; untraced wall median {:.4} s, traced {:.4} s",
        inputs.name,
        traced.len(),
        util::median(&untraced),
        util::median(&traced)
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_run_counts_successors() {
        // Blocks 5, 6, 7, 9, 10 (reads) → 3 of 5 follow their predecessor.
        let packed: Vec<u64> = [5u64, 6, 7, 9, 10].iter().map(|b| b << 1).collect();
        assert_eq!(sequential_run(&packed), (5, 3));
        // A write to the next block still continues the run.
        assert_eq!(sequential_run(&[5 << 1, (6 << 1) | 1]), (2, 1));
    }
}
