//! The headline-matrix bench: one pass over the paper's two-NPU matrix
//! (13 workloads × 6 schemes × 2 NPUs), timed stage by stage and gated,
//! written to one record.
//!
//! * **Engine.** The `experiment::lineup` sweep shares one trace per
//!   (NPU, model) pair and executes points on scoped threads. It runs
//!   once un-timed, then in 5 interleaved pairs: telemetry disabled (one
//!   relaxed atomic load per event) and an enabled
//!   [`seda::telemetry::NoopSink`] (one virtual call that discards the
//!   event). `engine_ms` is the best disabled run. `engine.peak_rss_mb`
//!   is the process's peak resident set (`VmHWM`) after these eleven
//!   sweeps and before the serial pass below, which holds whole lowered
//!   inferences: it is the memory the kernel's chunked lowering bounds.
//! * **Telemetry guard.** Per-layer and per-point call sites dispatch into
//!   the global sink directly; the per-access hot loops (DRAM controller,
//!   metadata caches) keep plain integer accounting and flush deltas at
//!   run boundaries. So the NoopSink arm's best run may cost at most 10%
//!   over the disabled arm's. The true delta is well under 1% (≈ −2 to
//!   +2% on a quiet box); the bound is wide because a shared core has
//!   put *identical* back-to-back sweeps 20% apart, while the regression
//!   it exists for — telemetry dispatch re-entering a per-access loop —
//!   costs +20–30%.
//! * **Lowering and replay.** One serial pass, telemetry disabled, lowers
//!   every point into one reused [`LoweredTrace`] (timed per lineup
//!   scheme), tallies the per-line stream's sequential streak lengths
//!   (the structural property the fast paths exploit), and replays the
//!   stream from identical cold starts through every DRAM kernel:
//!   - **per-access** — `DramSim::access` per request, the exact kernel
//!     the fast paths fall back to;
//!   - **batched** — `DramSim::run_batch_packed` on the packed per-line
//!     stream (8 B per request — see `Request::pack`), scanning it for
//!     streaks;
//!   - **runs** — `DramSim::run_runs` per layer on the run-encoded
//!     stream, the streak kernel without the scan, exactly as
//!     `pipeline::run_trace` replays layers.
//!
//! All three kernels must agree bit for bit — stats, elapsed clock,
//! per-bank occupancy — on every stream. A divergence, a broken telemetry
//! bound, (with `--max-ms-per-point <ms>`) batched replay slower than the
//! budget per point, or (with `--max-engine-rss-mb <MB>`) an engine peak
//! resident set above the budget or unreadable exits 1 after the record
//! is written, so CI's run is a conformance, performance and memory gate
//! on real workload traffic.
//!
//! The record goes to `BENCH_sweep.json` or the path given as the first
//! non-flag argument. Floats are rounded to six decimals
//! ([`seda_bench::round6`]) so archived records diff cleanly. A malformed
//! command line exits 2 with a usage line before any work.
//!
//! Usage: `cargo run --release -p seda-bench --bin sweep_bench
//! [out.json] [--max-ms-per-point <ms>] [--max-engine-rss-mb <MB>]`

use seda::dram::{DramSim, Request};
use seda::experiment::{lineup, scheme_names};
use seda::models::zoo;
use seda::pipeline::{dram_config_for, LoweredTrace};
use seda::protect::scheme_by_name;
use seda::scalesim::{NpuConfig, TraceCache};
use seda::sweep::SweepStats;
use seda::telemetry;
use seda_bench::{finite_flag, round6, usage_exit, write_or_die};
use serde::Serialize;
use std::time::Instant;

const USAGE: &str =
    "usage: sweep_bench [out.json] [--max-ms-per-point <ms>] [--max-engine-rss-mb <MB>]";

/// Interleaved trials per telemetry arm. Minimums over more pairs give
/// both arms more chances to land in a quiet scheduler slot.
const TRIALS: usize = 5;

/// Hard failure bound on the NoopSink arm's measured delta.
const MAX_DELTA: f64 = 0.10;

/// Machine-readable record of one sweep-bench run.
#[derive(Serialize)]
struct BenchRecord {
    /// Sweep points (NPUs × workloads × schemes).
    points: usize,
    /// 64 B requests lowered over all points (each kernel replays them).
    requests: u64,
    /// Runs those requests form (maximal within each layer).
    runs: u64,
    /// CPUs visible to this process. On a single-core host the engine
    /// cannot parallelize and the trace-cache reuse is the whole win —
    /// this field makes such runs self-explaining in the archived
    /// trajectory.
    host_cpus: usize,
    engine: EngineRecord,
    telemetry: TelemetryRecord,
    lowering: LoweringRecord,
    replay: ReplayRecord,
}

/// The parallel lineup sweep.
#[derive(Serialize)]
struct EngineRecord {
    /// Traces simulated by the engine (one per distinct NPU × model).
    trace_misses: u64,
    /// Trace-cache hits (points served without re-simulation).
    trace_hits: u64,
    /// Fraction of trace lookups served from the cache.
    trace_hit_rate: f64,
    /// Sweep-engine wall-clock, milliseconds: the best telemetry-disabled
    /// trial (`telemetry.disabled_ms`).
    engine_ms: f64,
    /// Engine wall-clock divided by the sweep points, milliseconds. It
    /// covers the whole point (lowering, DRAM replay and the rest), not
    /// DRAM replay alone.
    engine_ms_per_point: f64,
    /// Whether the engine actually ran points on more than one worker.
    parallel_engaged: bool,
    /// Peak resident set of the process after the engine's sweeps, MiB
    /// (`VmHWM`); `null` where `/proc` is absent.
    peak_rss_mb: Option<f64>,
}

/// Telemetry cost on the lineup sweep, disabled vs an enabled NoopSink.
#[derive(Serialize)]
struct TelemetryRecord {
    /// Interleaved trials per arm.
    trials: usize,
    /// Best wall-clock of the disabled arm (one relaxed load per event), ms.
    disabled_ms: f64,
    /// Best wall-clock of the enabled-NoopSink arm, ms.
    noop_ms: f64,
    /// `noop_ms / disabled_ms - 1`.
    delta: f64,
    /// Every disabled-arm trial, for noise archaeology in CI archives.
    disabled_trials_ms: Vec<f64>,
    /// Every NoopSink-arm trial.
    noop_trials_ms: Vec<f64>,
}

/// The serial lowering pass.
#[derive(Serialize)]
struct LoweringRecord {
    /// Milliseconds lowering every point's trace into runs.
    lower_ms: f64,
    /// `lower_ms` split by lineup scheme, in lineup order.
    lower_ms_by_scheme: Vec<SchemeLowering>,
}

/// One lineup scheme's share of the serial lowering pass.
#[derive(Serialize)]
struct SchemeLowering {
    scheme: &'static str,
    /// Milliseconds lowering this scheme's points (every NPU × workload).
    ms: f64,
}

/// DRAM replay of every lowered stream through the three kernels.
#[derive(Serialize)]
struct ReplayRecord {
    /// Exact per-access kernel wall-clock, milliseconds.
    per_access_ms: f64,
    /// Batched kernel wall-clock, milliseconds.
    batched_ms: f64,
    /// Run-encoded replay (`run_runs`) wall-clock, milliseconds.
    runs_ms: f64,
    /// Per-access kernel cost, nanoseconds per request.
    per_access_ns_per_access: f64,
    /// Batched kernel cost, nanoseconds per request.
    batched_ns_per_access: f64,
    /// per_access_ms / batched_ms — the replay-time reduction.
    speedup: f64,
    /// DRAM replay wall-clock per sweep point before (per-access kernel).
    dram_replay_ms_per_point_before: f64,
    /// DRAM replay wall-clock per sweep point after (batched kernel).
    dram_replay_ms_per_point_after: f64,
    /// Sequential streak lengths across all streams, power-of-two buckets.
    streak_histogram: Vec<StreakBucket>,
    /// Whether all three kernels agreed bit for bit on every stream.
    identical: bool,
}

/// One power-of-two bucket of the sequential streak-length histogram.
#[derive(Serialize)]
struct StreakBucket {
    /// Inclusive lower bound of the bucket (streak length in requests).
    min_len: u64,
    /// Streaks whose length lands in `[min_len, 2 * min_len)`.
    streaks: u64,
    /// Requests covered by those streaks.
    requests: u64,
}

/// Tallies maximal sequential streaks (consecutive 64 B blocks, same
/// direction — the pattern the batched kernel coalesces) into
/// power-of-two length buckets.
#[derive(Default)]
struct StreakHistogram {
    /// `streaks[i]` counts streaks with length in `[2^i, 2^(i+1))`.
    streaks: Vec<u64>,
    /// `requests[i]` sums the requests those streaks cover.
    requests: Vec<u64>,
}

impl StreakHistogram {
    fn add_streak(&mut self, len: u64) {
        let bucket = len.ilog2() as usize;
        if self.streaks.len() <= bucket {
            self.streaks.resize(bucket + 1, 0);
            self.requests.resize(bucket + 1, 0);
        }
        self.streaks[bucket] += 1;
        self.requests[bucket] += len;
    }

    /// Scans a packed stream: a streak extends while the packed word
    /// advances by exactly 2 (next block, same direction).
    fn scan(&mut self, stream: &[u64]) {
        let mut len = 0u64;
        let mut prev = u64::MAX;
        for &p in stream {
            if len > 0 && p == prev + 2 {
                len += 1;
            } else {
                if len > 0 {
                    self.add_streak(len);
                }
                len = 1;
            }
            prev = p;
        }
        if len > 0 {
            self.add_streak(len);
        }
    }

    fn buckets(&self) -> Vec<StreakBucket> {
        self.streaks
            .iter()
            .zip(&self.requests)
            .enumerate()
            .filter(|(_, (s, _))| **s > 0)
            .map(|(i, (s, r))| StreakBucket {
                min_len: 1 << i,
                streaks: *s,
                requests: *r,
            })
            .collect()
    }
}

/// Runs the lineup sweep once, returning its wall-clock in milliseconds
/// and its trace-cache counts. A failed point exits 1.
fn time_sweep(npus: &[NpuConfig], models: &[seda::models::Model]) -> (f64, SweepStats) {
    let t = Instant::now();
    let results = lineup(npus, models).run();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    if let Some((npu, model, scheme, e)) = results.failures().next() {
        eprintln!("FAILED: sweep point {npu}/{model}/{scheme}: {e}");
        std::process::exit(1);
    }
    (ms, results.stats)
}

/// This process's peak resident set (`VmHWM` in `/proc/self/status`) in
/// MiB, or `None` where `/proc` is absent.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let hwm = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = hwm.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Wall-clock and volume of the serial lowering-and-replay pass, seconds.
#[derive(Default)]
struct SerialPass {
    /// Lowering seconds per lineup scheme, in `scheme_names()` order.
    lower_by_scheme: Vec<f64>,
    requests: u64,
    runs: u64,
    per_access: f64,
    batched: f64,
    by_runs: f64,
    histogram: StreakHistogram,
    /// Whether a fast kernel disagreed with the per-access one.
    diverged: bool,
}

/// Lowers every point once, serially, into one reused [`LoweredTrace`],
/// and replays its stream through every DRAM kernel from a cold start.
fn lower_and_replay(npus: &[NpuConfig], models: &[seda::models::Model]) -> SerialPass {
    let cache = TraceCache::new();
    let mut pass = SerialPass {
        lower_by_scheme: vec![0.0; scheme_names().len()],
        ..SerialPass::default()
    };
    let mut lowered = LoweredTrace::default();
    for npu in npus {
        let cfg = dram_config_for(npu);
        for model in models {
            let sim = cache.get_or_simulate(npu, model);
            for (si, name) in scheme_names().into_iter().enumerate() {
                // A fresh scheme instance rewrites the shared trace,
                // exactly as the pipeline lowers a point.
                let mut scheme = scheme_by_name(name).expect("lineup name");
                let t0 = Instant::now();
                lowered.relower(&sim, scheme.as_mut());
                pass.lower_by_scheme[si] += t0.elapsed().as_secs_f64();
                for li in 0..lowered.layers() {
                    pass.runs += lowered.layer_runs(li).len() as u64;
                }
                let stream = lowered.requests();
                pass.requests += stream.len() as u64;
                pass.histogram.scan(stream);

                let mut exact = DramSim::new(cfg.clone());
                let t1 = Instant::now();
                for &p in stream {
                    exact.access(Request::unpack(p));
                }
                pass.per_access += t1.elapsed().as_secs_f64();

                let mut fast = DramSim::new(cfg.clone());
                let t2 = Instant::now();
                fast.run_batch_packed(stream);
                pass.batched += t2.elapsed().as_secs_f64();

                let mut run_sim = DramSim::new(cfg.clone());
                let t3 = Instant::now();
                for li in 0..lowered.layers() {
                    run_sim.run_runs(lowered.layer_runs(li));
                }
                pass.by_runs += t3.elapsed().as_secs_f64();

                for (kernel, sim) in [("batched", &fast), ("runs", &run_sim)] {
                    let agrees = exact.stats() == sim.stats()
                        && exact.elapsed_cycles() == sim.elapsed_cycles()
                        && exact.bank_occupancy_cycles() == sim.bank_occupancy_cycles();
                    if !agrees {
                        pass.diverged = true;
                        eprintln!(
                            "KERNEL DIVERGENCE at {}/{}/{name}: \
                             exact {:?} elapsed {} vs {kernel} {:?} elapsed {}",
                            npu.name,
                            model.name(),
                            exact.stats(),
                            exact.elapsed_cycles(),
                            sim.stats(),
                            sim.elapsed_cycles()
                        );
                    }
                }
            }
        }
    }
    pass
}

fn main() {
    let mut out_path = "BENCH_sweep.json".to_owned();
    let mut max_ms_per_point: Option<f64> = None;
    let mut max_engine_rss_mb: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--max-ms-per-point" => {
                max_ms_per_point = Some(finite_flag(&mut args, "--max-ms-per-point", USAGE));
            }
            "--max-engine-rss-mb" => {
                max_engine_rss_mb = Some(finite_flag(&mut args, "--max-engine-rss-mb", USAGE));
            }
            flag if flag.starts_with("--") => usage_exit(USAGE, &format!("unknown flag {flag:?}")),
            other => out_path = other.to_owned(),
        }
    }
    let npus = [NpuConfig::server(), NpuConfig::edge()];
    let models = zoo::all_models();
    let points = npus.len() * models.len() * scheme_names().len();

    // Install the discarding sink once; the two arms differ only in the
    // enabled flag, so every instrumented call site either short-circuits
    // on the flag (disabled arm) or dispatches into NoopSink (noop arm).
    static NOOP: telemetry::NoopSink = telemetry::NoopSink;
    telemetry::install(&NOOP).expect("first and only install");

    // Warmup: one un-timed sweep so allocator and page-cache state is
    // identical for both arms.
    telemetry::set_enabled(false);
    let (_, stats) = time_sweep(&npus, &models);

    let mut disabled_trials_ms = Vec::with_capacity(TRIALS);
    let mut noop_trials_ms = Vec::with_capacity(TRIALS);
    for trial in 0..TRIALS {
        telemetry::set_enabled(false);
        let (off, _) = time_sweep(&npus, &models);
        telemetry::set_enabled(true);
        let (on, _) = time_sweep(&npus, &models);
        println!("trial {trial}: disabled {off:8.2} ms, noop-sink {on:8.2} ms");
        disabled_trials_ms.push(off);
        noop_trials_ms.push(on);
    }
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let (disabled_ms, noop_ms) = (min(&disabled_trials_ms), min(&noop_trials_ms));

    // Read before the serial pass, whose stored traces dwarf the engine's
    // chunk buffers.
    let engine_rss_mb = peak_rss_mb();
    telemetry::set_enabled(false);
    let pass = lower_and_replay(&npus, &models);

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let per_request = |s: f64| round6(s * 1e9 / pass.requests.max(1) as f64);
    let per_point = |s: f64| round6(s * 1e3 / points as f64);
    let record = BenchRecord {
        points,
        requests: pass.requests,
        runs: pass.runs,
        host_cpus,
        engine: EngineRecord {
            trace_misses: stats.trace_misses,
            trace_hits: stats.trace_hits,
            trace_hit_rate: round6(
                stats.trace_hits as f64 / (stats.trace_hits + stats.trace_misses).max(1) as f64,
            ),
            engine_ms: round6(disabled_ms),
            engine_ms_per_point: round6(disabled_ms / points as f64),
            parallel_engaged: host_cpus > 1,
            peak_rss_mb: engine_rss_mb.map(round6),
        },
        telemetry: TelemetryRecord {
            trials: TRIALS,
            disabled_ms: round6(disabled_ms),
            noop_ms: round6(noop_ms),
            delta: round6(noop_ms / disabled_ms - 1.0),
            disabled_trials_ms: disabled_trials_ms.iter().copied().map(round6).collect(),
            noop_trials_ms: noop_trials_ms.iter().copied().map(round6).collect(),
        },
        lowering: LoweringRecord {
            lower_ms: round6(pass.lower_by_scheme.iter().sum::<f64>() * 1e3),
            lower_ms_by_scheme: scheme_names()
                .into_iter()
                .zip(&pass.lower_by_scheme)
                .map(|(scheme, s)| SchemeLowering {
                    scheme,
                    ms: round6(s * 1e3),
                })
                .collect(),
        },
        replay: ReplayRecord {
            per_access_ms: round6(pass.per_access * 1e3),
            batched_ms: round6(pass.batched * 1e3),
            runs_ms: round6(pass.by_runs * 1e3),
            per_access_ns_per_access: per_request(pass.per_access),
            batched_ns_per_access: per_request(pass.batched),
            speedup: round6(pass.per_access / pass.batched.max(f64::MIN_POSITIVE)),
            dram_replay_ms_per_point_before: per_point(pass.per_access),
            dram_replay_ms_per_point_after: per_point(pass.batched),
            streak_histogram: pass.histogram.buckets(),
            identical: !pass.diverged,
        },
    };

    println!(
        "headline sweep: {} points ({} workloads x {} schemes x {} NPUs)",
        record.points,
        models.len(),
        scheme_names().len(),
        npus.len()
    );
    let engine = &record.engine;
    println!(
        "trace cache: {} simulations, {} reuses",
        engine.trace_misses, engine.trace_hits
    );
    println!(
        "sweep engine (cached + parallel): {:.2} ms, {:.2} ms/point (best of {TRIALS})",
        engine.engine_ms, engine.engine_ms_per_point
    );
    match engine.peak_rss_mb {
        Some(mb) => println!("sweep engine peak RSS: {mb:.1} MB"),
        None => println!("sweep engine peak RSS: unavailable (no /proc)"),
    }
    println!(
        "host: {} CPU(s){}",
        record.host_cpus,
        if engine.parallel_engaged {
            ""
        } else {
            " — single-core host, points run serially"
        }
    );
    let tele = &record.telemetry;
    println!(
        "telemetry: disabled {:.2} ms, noop-sink {:.2} ms, delta {:+.2}%",
        tele.disabled_ms,
        tele.noop_ms,
        tele.delta * 100.0
    );

    let lowering = &record.lowering;
    println!(
        "serial lowering: {:.2} ms ({} requests in {} runs)",
        lowering.lower_ms, record.requests, record.runs
    );
    for s in &lowering.lower_ms_by_scheme {
        println!("  {:9} {:8.2} ms", s.scheme, s.ms);
    }
    let replay = &record.replay;
    println!(
        "per-access kernel: {:8.2} ms ({:6.1} ns/access)",
        replay.per_access_ms, replay.per_access_ns_per_access
    );
    println!(
        "batched kernel:    {:8.2} ms ({:6.1} ns/access)",
        replay.batched_ms, replay.batched_ns_per_access
    );
    println!(
        "run replay:        {:8.2} ms ({:.1} requests/run)",
        replay.runs_ms,
        record.requests as f64 / record.runs.max(1) as f64
    );
    println!(
        "replay time per point: {:.3} ms -> {:.3} ms ({:.2}x)",
        replay.dram_replay_ms_per_point_before,
        replay.dram_replay_ms_per_point_after,
        replay.speedup
    );
    for b in &replay.streak_histogram {
        println!(
            "  streak len {:>5}+: {:>8} streaks, {:>9} requests",
            b.min_len, b.streaks, b.requests
        );
    }

    let json = serde_json::to_string_pretty(&record).expect("serializable");
    write_or_die(&out_path, json);
    eprintln!("wrote {out_path}");

    let mut failed = false;
    if replay.identical {
        println!("identity: batched and run kernels bit-identical on all {points} streams");
    } else {
        eprintln!("FAILED: a batched kernel diverged from the per-access kernel");
        failed = true;
    }
    if let Some(limit) = max_ms_per_point {
        let after = replay.dram_replay_ms_per_point_after;
        if after > limit {
            eprintln!("FAILED: batched replay {after:.3} ms/point exceeds the {limit} ms gate");
            failed = true;
        } else {
            println!("regression gate: {after:.3} ms/point within the {limit} ms budget");
        }
    }
    if let Some(limit) = max_engine_rss_mb {
        match engine.peak_rss_mb {
            Some(mb) if mb <= limit => {
                println!("memory gate: engine peak RSS {mb:.1} MB within the {limit} MB budget");
            }
            Some(mb) => {
                eprintln!("FAILED: engine peak RSS {mb:.1} MB exceeds the {limit} MB gate");
                failed = true;
            }
            None => {
                eprintln!("FAILED: --max-engine-rss-mb needs /proc/self/status, which is absent");
                failed = true;
            }
        }
    }
    if tele.delta < MAX_DELTA {
        println!(
            "OK: no-op telemetry within the {:.0}% bound",
            MAX_DELTA * 100.0
        );
    } else {
        eprintln!(
            "FAILED: no-op telemetry costs {:+.2}% on the headline sweep (bound {:.0}%)",
            tele.delta * 100.0,
            MAX_DELTA * 100.0
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
