//! Per-layer accelerator report: tile plan, traffic, compute/memory
//! balance, and array utilization for any workload on either NPU — the
//! SCALE-Sim-style drill-down behind the aggregate figures.
//!
//! Usage: `cargo run --release -p seda-bench --bin layer_report [workload] [server|edge]`

use seda::models::zoo;
use seda::pipeline::run_model;
use seda::protect::Unprotected;
use seda::scalesim::{simulate_model, utilization, Schedule};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let workload = args.get(1).map(String::as_str).unwrap_or("rest");
    let npu = seda_bench::npu_arg_or_exit(args.get(2).map(String::as_str));
    let Some(model) = zoo::by_name(workload) else {
        eprintln!("unknown workload {workload:?}");
        eprintln!("available: let alex mob rest goo dlrm algo ds2 fast ncf sent trf yolo");
        std::process::exit(1);
    };

    let sim = simulate_model(&npu, &model);
    let run = run_model(&npu, &model, &mut Unprotected::new());

    println!(
        "layer report: {} on {} NPU ({}x{}, {} KB SRAM)\n",
        model.name(),
        npu.name,
        npu.rows,
        npu.cols,
        npu.sram_bytes >> 10
    );
    println!(
        "{:<14} {:>9} {:>7} {:>7} {:>12} {:>11} {:>11} {:>6} {:>6}",
        "layer",
        "schedule",
        "strips",
        "chunks",
        "traffic B",
        "compute cy",
        "memory cy",
        "bound",
        "util"
    );
    for (layer, (l, t)) in model
        .layers()
        .iter()
        .zip(sim.layers.iter().zip(run.layers.iter()))
    {
        let sched = match l.plan.schedule {
            Schedule::IfmapResident => "ifmap",
            Schedule::FilterResident => "filter",
            Schedule::OutputResident => "output",
        };
        println!(
            "{:<14} {:>9} {:>7} {:>7} {:>12} {:>11} {:>11} {:>6} {:>5.1}%",
            l.name,
            sched,
            l.plan.strips,
            l.plan.chunks,
            l.traffic.total(),
            t.compute_cycles,
            t.memory_cycles,
            if t.compute_cycles >= t.memory_cycles {
                "comp"
            } else {
                "mem"
            },
            utilization(&npu, layer.gemm_shape()) * 100.0,
        );
    }
    println!(
        "\ntotals: {} bytes of demand traffic, {} cycles ({:.3} ms @ {:.2} GHz)",
        run.traffic.total(),
        run.total_cycles,
        run.total_cycles as f64 / npu.clock_hz * 1e3,
        npu.clock_hz / 1e9
    );
}
