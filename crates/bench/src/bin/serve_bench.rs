//! Throughput benchmark for the `seda-serve` event kernel.
//!
//! Runs a synthetic 100k-request four-tenant serving spec (EDF with
//! preemption, four replicas, batching, burst + diurnal modulation — the
//! most branch-heavy configuration) through the event-driven kernel
//! twice: once to pin determinism (both runs must produce bit-identical
//! outcomes) and once under the clock. Records events/sec and wall-clock
//! in `BENCH_serve.json` so CI can archive the kernel's perf trajectory
//! PR over PR.
//!
//! With `--max-ms <ms>` the run additionally acts as a regression gate:
//! the timed simulation exceeding the budget fails the process.
//! A malformed command line exits 2 with a usage line.
//!
//! Usage: `cargo run --release -p seda-bench --bin serve_bench --
//! [out.json] [--requests <n>] [--max-ms <ms>]`

use seda_bench::{finite_flag, round6, usage_exit, write_or_die};
use seda_serve::{simulate, ArrivalSim, BurstSim, DiurnalSim, Scheduler, SimSpec, TenantSim};
use serde::Serialize;
use std::time::Instant;

/// Machine-readable record of one serve-bench run.
#[derive(Serialize)]
struct BenchRecord {
    /// Requests issued by the open-loop arrival process.
    requests: u64,
    /// Tenants in the lineup.
    tenants: usize,
    /// NPU replicas drained from the shared queue.
    replicas: u32,
    /// Arrival + layer-done events the kernel processed.
    events: u64,
    /// Timed-run wall-clock, milliseconds.
    wall_ms: f64,
    /// Events processed per wall-clock second.
    events_per_sec: f64,
    /// Requests completed per wall-clock second.
    requests_per_sec: f64,
    /// Simulated cycles covered by the run.
    end_cycle: u64,
    /// Whether the two runs produced bit-identical outcomes.
    deterministic: bool,
}

/// The branch-heavy synthetic spec: mixed batch depths, SLAs on half the
/// lineup, preemptive EDF, and both arrival modulations active.
fn bench_spec(requests: u64) -> SimSpec {
    let tenant = |name: &str, profiles: Vec<Vec<u64>>, sla: Option<u64>, weight| TenantSim {
        name: name.to_owned(),
        profiles,
        sla_cycles: sla,
        weight,
    };
    SimSpec {
        seed: 0x5EDA,
        scheduler: Scheduler::Edf { preempt: true },
        replicas: 4,
        max_batch: 4,
        tenants: vec![
            tenant(
                "interactive",
                vec![
                    vec![40, 25, 15],
                    vec![12, 8, 5],
                    vec![12, 8, 5],
                    vec![12, 8, 5],
                ],
                Some(600),
                3,
            ),
            tenant(
                "batchy",
                vec![vec![120, 90], vec![30, 25], vec![30, 25], vec![30, 25]],
                None,
                2,
            ),
            tenant(
                "tiny",
                vec![vec![9], vec![4], vec![4], vec![4]],
                Some(200),
                4,
            ),
            tenant(
                "heavy",
                vec![vec![300, 200, 150, 100], vec![80, 60, 40, 30]],
                None,
                1,
            ),
        ],
        arrival: ArrivalSim::OpenLoop {
            mean_cycles: 55.0,
            requests,
            burst: Some(BurstSim {
                period_cycles: 40_000.0,
                duty_pct: 25.0,
                factor: 3.0,
            }),
            diurnal: Some(DiurnalSim {
                period_cycles: 400_000.0,
                amplitude: 0.5,
            }),
        },
        swaps: vec![],
    }
}

const USAGE: &str = "usage: serve_bench [out.json] [--requests <n>] [--max-ms <ms>]";

fn main() {
    let mut out_path = "BENCH_serve.json".to_owned();
    let mut max_ms: Option<f64> = None;
    let mut requests = 100_000u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--max-ms" => max_ms = Some(finite_flag(&mut args, "--max-ms", USAGE)),
            "--requests" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) if n > 0 => requests = n,
                _ => usage_exit(USAGE, "--requests wants a positive integer"),
            },
            flag if flag.starts_with("--") => usage_exit(USAGE, &format!("unknown flag {flag:?}")),
            other => out_path = other.to_owned(),
        }
    }

    let spec = bench_spec(requests);
    let reference = simulate(&spec);
    let t0 = Instant::now();
    let timed = simulate(&spec);
    let wall = t0.elapsed();
    let deterministic = reference == timed;
    assert!(
        deterministic,
        "two runs of the same spec must be bit-identical"
    );

    let wall_s = wall.as_secs_f64();
    let record = BenchRecord {
        requests,
        tenants: spec.tenants.len(),
        replicas: spec.replicas,
        events: timed.events,
        wall_ms: round6(wall_s * 1e3),
        events_per_sec: round6(timed.events as f64 / wall_s),
        requests_per_sec: round6(timed.completions.len() as f64 / wall_s),
        end_cycle: timed.end_cycle,
        deterministic,
    };
    println!(
        "serve kernel: {} requests, {} tenants, {} replicas (EDF preempt, batch 4)",
        record.requests, record.tenants, record.replicas
    );
    println!(
        "{} events in {:.2} ms — {:.0} events/sec, {:.0} requests/sec",
        record.events, record.wall_ms, record.events_per_sec, record.requests_per_sec
    );
    println!(
        "covered {} simulated cycles; outcomes bit-identical across runs",
        record.end_cycle
    );
    let json = serde_json::to_string_pretty(&record).expect("record serializes");
    write_or_die(&out_path, json);
    println!("recorded to {out_path}");
    if let Some(limit) = max_ms {
        if record.wall_ms > limit {
            eprintln!(
                "REGRESSION: serve kernel took {:.2} ms, over the {limit:.2} ms budget",
                record.wall_ms
            );
            std::process::exit(1);
        }
        println!("within the {limit:.2} ms budget");
    }
}
