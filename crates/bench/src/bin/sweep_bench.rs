//! Times the sweep engine on the paper's headline two-NPU matrix
//! (13 workloads × 6 schemes × 2 NPUs): `evaluate_suites` shares one
//! trace per (NPU, model) pair and executes points on scoped threads.
//!
//! Besides the human-readable summary, the run is recorded in
//! `BENCH_sweep.json` (or the path given as the first argument) so CI can
//! archive the perf trajectory PR over PR.
//!
//! Usage: `cargo run --release -p seda-bench --bin sweep_bench [out.json]`

use seda::experiment::{evaluate_suites_with_stats, scheme_names};
use seda::models::zoo;
use seda::scalesim::NpuConfig;
use seda_bench::{round6, write_or_die};
use serde::Serialize;
use std::time::Instant;

/// Machine-readable record of one sweep-bench run.
#[derive(Serialize)]
struct BenchRecord {
    /// Sweep points executed (NPUs × workloads × schemes).
    points: usize,
    /// Traces simulated by the engine (one per distinct NPU × model).
    trace_misses: u64,
    /// Trace-cache hits (points served without re-simulation).
    trace_hits: u64,
    /// Fraction of trace lookups served from the cache.
    trace_hit_rate: f64,
    /// Sweep-engine wall-clock, milliseconds.
    engine_ms: f64,
    /// Engine wall-clock divided by the sweep points, milliseconds. It
    /// covers the whole point (lowering, DRAM replay and the rest), not
    /// DRAM replay alone.
    engine_ms_per_point: f64,
    /// CPUs visible to this process. On a single-core host the engine
    /// cannot parallelize and the trace-cache reuse is the whole win —
    /// this field makes such runs self-explaining in the archived
    /// trajectory.
    host_cpus: usize,
    /// Whether the engine actually ran points on more than one worker.
    parallel_engaged: bool,
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_sweep.json".to_owned());
    let npus = [NpuConfig::server(), NpuConfig::edge()];
    let models = zoo::all_models();

    let t0 = Instant::now();
    let (_, stats) = evaluate_suites_with_stats(&npus, &models);
    let engine = t0.elapsed();

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let points = npus.len() * models.len() * scheme_names().len();
    let record = BenchRecord {
        points,
        trace_misses: stats.trace_misses,
        trace_hits: stats.trace_hits,
        trace_hit_rate: round6(
            stats.trace_hits as f64 / (stats.trace_hits + stats.trace_misses).max(1) as f64,
        ),
        engine_ms: round6(engine.as_secs_f64() * 1e3),
        engine_ms_per_point: round6(engine.as_secs_f64() * 1e3 / points as f64),
        host_cpus,
        parallel_engaged: host_cpus > 1,
    };

    println!(
        "headline sweep: {} points (13 workloads x 6 schemes x 2 NPUs)",
        record.points
    );
    println!(
        "trace cache: {} simulations, {} reuses",
        record.trace_misses, record.trace_hits
    );
    println!(
        "sweep engine (cached + parallel): {:.2} ms, {:.2} ms/point",
        record.engine_ms, record.engine_ms_per_point
    );
    println!(
        "host: {} CPU(s){}",
        record.host_cpus,
        if record.parallel_engaged {
            ""
        } else {
            " — single-core host, points run serially"
        }
    );

    let json = serde_json::to_string_pretty(&record).expect("serializable");
    write_or_die(&out_path, json);
    eprintln!("wrote {out_path}");
}
