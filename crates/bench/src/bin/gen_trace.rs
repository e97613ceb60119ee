//! Generates a DRAM burst trace file for a workload — the SCALE-Sim-style
//! trace-export interface, consumable by `replay_trace`.
//!
//! Usage: `cargo run --release -p seda-bench --bin gen_trace -- <workload> [server|edge] [out.trace]`

use seda::models::zoo;
use seda::scalesim::{simulate_model, write_trace};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let workload = args.get(1).map(String::as_str).unwrap_or("rest");
    let npu = seda_bench::npu_arg_or_exit(args.get(2).map(String::as_str));
    let Some(model) = zoo::by_name(workload) else {
        eprintln!("unknown workload {workload:?}");
        std::process::exit(1);
    };
    let sim = simulate_model(&npu, &model);
    let bursts: Vec<_> = sim.layers.iter().flat_map(|l| l.bursts.clone()).collect();
    let text = write_trace(&bursts);
    match args.get(3) {
        Some(path) => {
            seda_bench::write_or_die(path, &text);
            eprintln!("{} bursts -> {path}", bursts.len());
        }
        None => print!("{text}"),
    }
}
