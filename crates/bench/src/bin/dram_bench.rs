//! Times the batched DRAM replay kernel against the exact per-access
//! kernel on the headline sweep's own request streams.
//!
//! Every (NPU, workload, scheme) point of the Fig. 5/6 matrix is lowered
//! once (via [`LoweredTrace`]) into its flat *packed* per-line request
//! stream (8 B per request — see `Request::pack`), then the stream is
//! driven through every kernel from identical cold starts:
//!
//! * **per-access** — `DramSim::access` per request, the exact kernel the
//!   batched path falls back to;
//! * **batched** — `DramSim::run_batch_packed`, the streak-coalescing
//!   fast path on the packed stream, which scans it for streaks;
//! * **runs** — `DramSim::run_runs` on the same stream run-encoded, the
//!   streak kernel without the scan, exactly as `pipeline::run_trace`
//!   replays layers.
//!
//! All three must agree bit for bit — stats, elapsed clock, per-bank
//! occupancy — on *every* stream; the binary exits non-zero otherwise, so
//! CI's smoke step doubles as a conformance gate on real workload traffic.
//! Alongside the timing, the run records the streams' sequential
//! streak-length histogram (the structural property the fast path
//! exploits) in `BENCH_dram.json` (or the path given as the first
//! non-flag argument). Floats are rounded to six decimals
//! ([`seda_bench::round6`]) so archived artifacts diff cleanly.
//!
//! With `--max-ms-per-point <ms>` the run additionally acts as a
//! performance regression gate: it exits non-zero when the batched
//! kernel's per-point replay time exceeds the threshold, so CI pins the
//! fast path's speed alongside its correctness.
//!
//! A malformed command line exits 2 with a usage line.
//!
//! Usage: `cargo run --release -p seda-bench --bin dram_bench
//! [out.json] [--max-ms-per-point <ms>]`
//!
//! [`LoweredTrace`]: seda::pipeline::LoweredTrace

use seda::dram::{DramSim, Request};
use seda::experiment::scheme_names;
use seda::models::zoo;
use seda::pipeline::{dram_config_for, LoweredTrace};
use seda::protect::scheme_by_name;
use seda::scalesim::{NpuConfig, TraceCache};
use seda_bench::{finite_flag, round6, usage_exit, write_or_die};
use serde::Serialize;
use std::time::Instant;

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

/// Machine-readable record of one dram-bench run.
#[derive(Serialize)]
struct DramBenchRecord {
    /// Sweep points whose streams were replayed (NPUs × workloads ×
    /// schemes — the full headline matrix).
    points: usize,
    /// Total requests replayed through each kernel.
    requests: u64,
    /// Exact per-access kernel wall-clock, milliseconds.
    per_access_ms: f64,
    /// Batched kernel wall-clock, milliseconds.
    batched_ms: f64,
    /// Run-encoded replay (`run_runs`) wall-clock, milliseconds.
    runs_ms: f64,
    /// Runs the requests form (maximal within each layer).
    runs: u64,
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

const USAGE: &str = "usage: dram_bench [out.json] [--max-ms-per-point <ms>]";

fn main() {
    let mut out_path = "BENCH_dram.json".to_owned();
    let mut max_ms_per_point: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--max-ms-per-point" => {
                max_ms_per_point = Some(finite_flag(&mut args, "--max-ms-per-point", USAGE));
            }
            flag if flag.starts_with("--") => usage_exit(USAGE, &format!("unknown flag {flag:?}")),
            other => out_path = other.to_owned(),
        }
    }
    let npus = [NpuConfig::server(), NpuConfig::edge()];
    let models = zoo::all_models();
    let cache = TraceCache::new();

    let mut points = 0usize;
    let mut requests = 0u64;
    let mut per_access = 0.0f64;
    let mut batched = 0.0f64;
    let mut by_runs = 0.0f64;
    let mut runs = 0u64;
    let mut histogram = StreakHistogram::default();
    let mut identical = true;

    for npu in &npus {
        let cfg = dram_config_for(npu);
        for model in &models {
            let sim = cache.get_or_simulate(npu, model);
            for name in scheme_names() {
                // Lower the point's stream exactly as the pipeline would:
                // a fresh scheme instance rewriting the shared trace.
                let mut scheme = scheme_by_name(name).expect("lineup name");
                let lowered = LoweredTrace::lower(&sim, scheme.as_mut());
                let stream = lowered.requests();
                points += 1;
                requests += stream.len() as u64;
                histogram.scan(stream);

                let mut exact = DramSim::new(cfg.clone());
                let t0 = Instant::now();
                for &p in stream {
                    exact.access(Request::unpack(p));
                }
                per_access += t0.elapsed().as_secs_f64();

                let mut fast = DramSim::new(cfg.clone());
                let t1 = Instant::now();
                fast.run_batch_packed(stream);
                batched += t1.elapsed().as_secs_f64();

                let mut run_sim = DramSim::new(cfg.clone());
                let t2 = Instant::now();
                for li in 0..lowered.layers() {
                    run_sim.run_runs(lowered.layer_runs(li));
                }
                by_runs += t2.elapsed().as_secs_f64();
                runs += (0..lowered.layers())
                    .map(|li| lowered.layer_runs(li).len() as u64)
                    .sum::<u64>();

                for (kernel, sim) in [("batched", &fast), ("runs", &run_sim)] {
                    let agrees = exact.stats() == sim.stats()
                        && exact.elapsed_cycles() == sim.elapsed_cycles()
                        && exact.bank_occupancy_cycles() == sim.bank_occupancy_cycles();
                    if !agrees {
                        identical = false;
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

    let record = DramBenchRecord {
        points,
        requests,
        per_access_ms: round6(per_access * 1e3),
        batched_ms: round6(batched * 1e3),
        runs_ms: round6(by_runs * 1e3),
        runs,
        per_access_ns_per_access: round6(per_access * 1e9 / requests.max(1) as f64),
        batched_ns_per_access: round6(batched * 1e9 / requests.max(1) as f64),
        speedup: round6(per_access / batched.max(f64::MIN_POSITIVE)),
        dram_replay_ms_per_point_before: round6(per_access * 1e3 / points.max(1) as f64),
        dram_replay_ms_per_point_after: round6(batched * 1e3 / points.max(1) as f64),
        streak_histogram: histogram.buckets(),
        identical,
    };

    println!(
        "dram replay: {} points, {} requests ({} workloads x {} schemes x {} NPUs)",
        record.points,
        record.requests,
        models.len(),
        scheme_names().len(),
        npus.len()
    );
    println!(
        "per-access kernel: {:8.2} ms ({:6.1} ns/access)",
        record.per_access_ms, record.per_access_ns_per_access
    );
    println!(
        "batched kernel:    {:8.2} ms ({:6.1} ns/access)",
        record.batched_ms, record.batched_ns_per_access
    );
    println!(
        "run replay:        {:8.2} ms ({} runs, {:.1} requests/run)",
        record.runs_ms,
        record.runs,
        record.requests as f64 / record.runs.max(1) as f64
    );
    println!(
        "replay time per point: {:.3} ms -> {:.3} ms ({:.2}x)",
        record.dram_replay_ms_per_point_before,
        record.dram_replay_ms_per_point_after,
        record.speedup
    );
    for b in &record.streak_histogram {
        println!(
            "  streak len {:>5}+: {:>8} streaks, {:>9} requests",
            b.min_len, b.streaks, b.requests
        );
    }

    let json = serde_json::to_string_pretty(&record).expect("serializable");
    write_or_die(&out_path, json);
    eprintln!("wrote {out_path}");

    if !record.identical {
        eprintln!("FAILED: a batched kernel diverged from the per-access kernel");
        std::process::exit(1);
    }
    println!("identity: batched and run kernels bit-identical on all {points} streams");

    if let Some(limit) = max_ms_per_point {
        if record.dram_replay_ms_per_point_after > limit {
            eprintln!(
                "FAILED: batched replay {:.3} ms/point exceeds the {limit} ms gate",
                record.dram_replay_ms_per_point_after
            );
            std::process::exit(1);
        }
        println!(
            "regression gate: {:.3} ms/point within the {limit} ms budget",
            record.dram_replay_ms_per_point_after
        );
    }
}
