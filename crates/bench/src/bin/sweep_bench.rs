//! Times the sweep engine on the paper's headline two-NPU matrix
//! (13 workloads × 6 schemes × 2 NPUs): the `experiment::lineup` sweep
//! shares one trace per (NPU, model) pair and executes points on scoped
//! threads.
//!
//! A second, serial pass over the same 156 points times the pipeline's
//! main stage on its own: lowering each point's trace into runs
//! (`LoweredTrace::relower`), in total and per lineup scheme, with the
//! request and run counts it produced. DRAM replay of the same lowered traces is timed by
//! `dram_bench`; together they are the stage-by-stage numbers a
//! performance change reports before and after.
//!
//! Besides the human-readable summary, the run is recorded in
//! `BENCH_sweep.json` (or the path given as the first argument) so CI can
//! archive the perf trajectory PR over PR.
//!
//! Usage: `cargo run --release -p seda-bench --bin sweep_bench [out.json]`

use seda::experiment::{lineup, scheme_names};
use seda::models::zoo;
use seda::pipeline::LoweredTrace;
use seda::protect::scheme_by_name;
use seda::scalesim::{NpuConfig, TraceCache};
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
    /// Serial pass: milliseconds lowering every point's trace into runs.
    lower_ms: f64,
    /// Serial pass: `lower_ms` split by lineup scheme, in lineup order.
    lower_ms_by_scheme: Vec<SchemeLowering>,
    /// Serial pass: 64 B requests lowered over all points.
    requests: u64,
    /// Serial pass: runs those requests form.
    runs: u64,
}

/// One lineup scheme's share of the serial lowering pass.
#[derive(Serialize)]
struct SchemeLowering {
    scheme: &'static str,
    /// Milliseconds lowering this scheme's points (every NPU × workload).
    ms: f64,
}

/// Wall-clock and volume of the serial lowering pass.
struct Lowering {
    /// Seconds per lineup scheme, in `scheme_names()` order.
    seconds_by_scheme: Vec<f64>,
    requests: u64,
    runs: u64,
}

/// Lowers every point once, serially, timing only the lowering.
fn time_lowering(npus: &[NpuConfig], models: &[seda::models::Model]) -> Lowering {
    let cache = TraceCache::new();
    let mut lowering = Lowering {
        seconds_by_scheme: vec![0.0; scheme_names().len()],
        requests: 0,
        runs: 0,
    };
    let mut lowered = LoweredTrace::default();
    for npu in npus {
        for model in models {
            let sim = cache.get_or_simulate(npu, model);
            for (si, name) in scheme_names().into_iter().enumerate() {
                let mut scheme = scheme_by_name(name).expect("lineup name");
                let t0 = Instant::now();
                lowered.relower(&sim, scheme.as_mut());
                lowering.seconds_by_scheme[si] += t0.elapsed().as_secs_f64();
                for li in 0..lowered.layers() {
                    lowering.requests += lowered.layer_requests(li);
                    lowering.runs += lowered.layer_runs(li).len() as u64;
                }
            }
        }
    }
    lowering
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_sweep.json".to_owned());
    let npus = [NpuConfig::server(), NpuConfig::edge()];
    let models = zoo::all_models();

    let t0 = Instant::now();
    let stats = lineup(&npus, &models).run().stats;
    let engine = t0.elapsed();
    let lowering = time_lowering(&npus, &models);

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
        lower_ms: round6(lowering.seconds_by_scheme.iter().sum::<f64>() * 1e3),
        lower_ms_by_scheme: scheme_names()
            .into_iter()
            .zip(&lowering.seconds_by_scheme)
            .map(|(scheme, s)| SchemeLowering {
                scheme,
                ms: round6(s * 1e3),
            })
            .collect(),
        requests: lowering.requests,
        runs: lowering.runs,
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

    println!(
        "serial lowering: {:.2} ms ({} requests in {} runs)",
        record.lower_ms, record.requests, record.runs
    );
    for s in &record.lower_ms_by_scheme {
        println!("  {:9} {:8.2} ms", s.scheme, s.ms);
    }

    let json = serde_json::to_string_pretty(&record).expect("serializable");
    write_or_die(&out_path, json);
    eprintln!("wrote {out_path}");
}
