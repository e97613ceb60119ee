//! Design-space exploration: for a chosen workload, sweep the protection
//! granularity, run the optBlk search, and size the encryption hardware —
//! the workflow an accelerator architect would run before taping out a
//! secure NPU.
//!
//! Run with: `cargo run --release -p seda-examples --example design_space`
//! Optionally pass a workload name (default: mob).

use seda::hw::{baes_cost, taes_cost};
use seda::models::zoo;
use seda::optblk::search_model;
use seda::pipeline::run_model;
use seda::protect::{BlockMacKind, BlockMacScheme, Unprotected, PROTECTED_BYTES};
use seda::scalesim::NpuConfig;
use std::collections::BTreeMap;

fn main() {
    let workload = std::env::args().nth(1).unwrap_or_else(|| "mob".to_owned());
    let Some(model) = zoo::by_name(&workload) else {
        eprintln!("unknown workload {workload:?}");
        std::process::exit(1);
    };
    let npu = NpuConfig::edge();

    println!(
        "design-space exploration: {} on the edge NPU\n",
        model.name()
    );

    // 1. Fixed-granularity sweep: where does one-size-fits-all land?
    println!("-- fixed protection granularity (MGX-style) --");
    let base = run_model(&npu, &model, &mut Unprotected::new());
    let mut best = (0u64, f64::INFINITY);
    for g in [64u64, 128, 256, 512, 1024, 2048, 4096] {
        let mut scheme = BlockMacScheme::new(BlockMacKind::Mgx, g, PROTECTED_BYTES);
        let r = run_model(&npu, &model, &mut scheme);
        let overhead = r.traffic.total() as f64 / base.traffic.total() as f64 - 1.0;
        if overhead < best.1 {
            best = (g, overhead);
        }
        println!(
            "  g = {g:>5} B: traffic overhead {:>6.2}%",
            overhead * 100.0
        );
    }
    println!(
        "  best fixed granularity: {} B ({:.2}%)",
        best.0,
        best.1 * 100.0
    );

    // 2. Per-layer optBlk: what does the search pick instead?
    println!("\n-- per-layer optBlk search (SecureLoop-style) --");
    let choices = search_model(&npu, &model);
    let mut hist: BTreeMap<u64, usize> = BTreeMap::new();
    for c in &choices {
        *hist.entry(c.granularity).or_insert(0) += 1;
    }
    for (g, n) in &hist {
        println!("  {g:>5} B chosen by {n} layer(s)");
    }

    // 3. Encryption hardware sizing for this NPU's bandwidth.
    // A round-based AES-128 engine produces one 16 B pad per 11 cycles.
    let engine_bw = 16.0 * npu.clock_hz / 11.0;
    let multiple = (npu.dram_bandwidth / engine_bw).ceil().max(1.0) as u32;
    let t = taes_cost(multiple.max(1));
    let b = baes_cost(multiple.max(1));
    println!(
        "\n-- encryption hardware for {:.0} GB/s --",
        npu.dram_bandwidth / 1e9
    );
    println!("  required bandwidth multiple: {multiple}x a single engine");
    println!(
        "  T-AES: {:.4} mm^2, {:.2} mW   B-AES: {:.4} mm^2, {:.2} mW  (saves {:.0}% area)",
        t.area_mm2,
        t.power_mw,
        b.area_mm2,
        b.power_mw,
        (1.0 - b.area_mm2 / t.area_mm2) * 100.0
    );
}
