//! Ablation: integrity-verifier throughput sensitivity.
//!
//! Sweeps the hash engine's sustained throughput and reports ResNet-18
//! runtime on the edge NPU under SeDA, showing the sizing cliff: once the
//! verifier matches memory bandwidth it leaves the critical path entirely,
//! and further lanes are wasted area.
//!
//! Usage: `cargo run --release -p seda-bench --bin ablation_hash_engine`

use seda::models::zoo;
use seda::pipeline::run_trace;
use seda::protect::{HashEngine, LayerMacStore, SedaScheme, Unprotected, PROTECTED_BYTES};
use seda::scalesim::{simulate_model, NpuConfig};

fn main() {
    let npu = NpuConfig::edge();
    let sim = simulate_model(&npu, &zoo::resnet18());
    let base = run_trace(&sim, &npu, &mut Unprotected::new(), None, 1).remove(0);
    println!("Ablation: hash-engine throughput (rest, edge NPU, SeDA)");
    println!(
        "(memory system needs {:.1} B/cycle at this clock)\n",
        npu.dram_bandwidth / npu.clock_hz
    );
    println!("{:>12} {:>14} {:>10}", "throughput", "cycles", "slowdown");
    for bpc in [0.5f64, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0] {
        let engine = HashEngine::new(bpc, 80);
        let r = run_trace(
            &sim,
            &npu,
            &mut SedaScheme::new(LayerMacStore::OffChip, PROTECTED_BYTES),
            Some(&engine),
            1,
        )
        .remove(0);
        println!(
            "{:>8.1} B/cy {:>14} {:>9.4}x",
            bpc,
            r.total_cycles,
            r.total_cycles as f64 / base.total_cycles as f64
        );
    }
    println!();
    println!("Below the memory system's B/cycle demand the verifier throttles");
    println!("every layer; above it, only the fixed per-layer drain remains.");
}
