//! Ablation: Securator-style layer XOR-MAC vs SeDA's tiling-aware optBlk.
//!
//! Both reach near-zero *traffic*, but Securator's fixed 32 B hash blocks
//! ignore tile overlap: every halo row a strip re-fetches is re-hashed
//! into the layer MAC, costing hash-engine work (and requiring dedup
//! bookkeeping for correctness). SeDA's optBlk granularity matches tile
//! runs, so re-fetched halos re-verify whole blocks exactly once.
//! Securator's positionless fold is also RePA-vulnerable (see alg2_repa).
//!
//! Usage: `cargo run --release -p seda-bench --bin ablation_securator`

use seda::models::zoo;
use seda::pipeline::LoweredTrace;
use seda::protect::{ProtectionScheme, SecuratorScheme, PROTECTED_BYTES};
use seda::scalesim::{simulate_model, NpuConfig};

fn main() {
    let npu = NpuConfig::edge();
    println!("Ablation: Securator layer check vs SeDA (edge NPU)");
    println!(
        "{:<10} {:>14} {:>16} {:>18} {:>10}",
        "workload", "demand B", "hashed B", "redundant hash B", "overhead"
    );
    for model in zoo::all_models() {
        let sim = simulate_model(&npu, &model);
        let mut securator = SecuratorScheme::new(PROTECTED_BYTES);
        // Only the scheme's tallies matter here, not the lowered runs.
        LoweredTrace::lower(&sim, &mut securator);
        securator.finish(&mut |_r| {});
        let demand = securator.breakdown().demand();
        println!(
            "{:<10} {:>14} {:>16} {:>18} {:>9.2}%",
            model.name(),
            demand,
            securator.hashed_bytes(),
            securator.redundant_hash_bytes(),
            securator.redundant_hash_bytes() as f64 / demand as f64 * 100.0,
        );
    }
    println!();
    println!("The redundant column is pure hash-engine waste on tiled layers —");
    println!("work SeDA's optBlk avoids by aligning verification blocks to tile");
    println!("runs (and which a positionless XOR fold cannot even detect).");
}
