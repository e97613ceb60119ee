//! Seal a complete model with SeDA's multi-level MAC hierarchy: per-optBlk
//! MACs fold into layer MACs, layer MACs fold into the single on-chip
//! model MAC, and tampering anywhere in the weights is both detected and
//! localized to the offending layer.
//!
//! Each layer's weights fill one region of a `seda-adversary` image under
//! the full SeDA configuration (`layer-mac`), zero-padded up to the 64 B
//! protection block.
//!
//! Run with: `cargo run --release -p seda-examples --example model_sealing`
//! Optionally pass a workload name (default: rest); an unknown name exits 1.

use seda::functional::synthetic_weights;
use seda::models::zoo;
use seda::scenario::ScenarioError;
use seda_adversary::{ProtectConfig, ProtectedImage, BLOCK};

fn main() {
    let workload = std::env::args().nth(1).unwrap_or_else(|| "rest".to_owned());
    let Some(model) = zoo::by_name(&workload) else {
        eprintln!("error: {}", ScenarioError::UnknownModel { name: workload });
        std::process::exit(1);
    };
    let weights: Vec<Vec<u8>> = model
        .layers()
        .iter()
        .enumerate()
        .map(|(idx, layer)| {
            let mut w = synthetic_weights(idx as u32, layer.filter_bytes());
            w.resize(w.len().div_ceil(BLOCK).max(1) * BLOCK, 0);
            w
        })
        .collect();
    let lens: Vec<usize> = weights.iter().map(Vec::len).collect();
    let config = ProtectConfig::by_name("layer-mac").expect("matrix config");
    let mut image =
        ProtectedImage::new(config, &lens, [0x2b; 16], [0x7e; 16]).expect("block-aligned regions");

    println!(
        "sealing {} ({} layers, {:.1} MB of weights)...",
        model.name(),
        model.layers().len(),
        model.weight_bytes() as f64 / 1e6
    );
    for (idx, w) in weights.iter().enumerate() {
        image.write_layer(idx, w).expect("region fits its layer");
    }
    println!(
        "model MAC (on-chip, 8 B for the whole model): {}",
        image.model_root()
    );

    // Honest read-back: verify every layer, then look at one.
    let plains = image.read_model().expect("an honest image verifies");
    println!("verification: PASS");
    let first = &model.layers()[0];
    let plain = &plains[0][..first.filter_bytes() as usize];
    println!(
        "unsealed layer {:?}: {} bytes, {:.1}% zeros (pruned-network sparsity)",
        first.name,
        plain.len(),
        plain.iter().filter(|&&b| b == 0).count() as f64 / plain.len() as f64 * 100.0
    );

    // Attack: flip one bit somewhere in the middle of the model.
    let victim = model.layers().len() / 2;
    image.flip_ciphertext_bit(image.layer_pa(victim) as usize + 33, 2);
    match image.read_model() {
        Ok(_) => println!("tampering went UNDETECTED (bug!)"),
        Err(e) => {
            let layer = e
                .integrity()
                .expect("tampering is an integrity error")
                .layer;
            println!(
                "single flipped bit in layer {victim} detected; localized to layer {layer} ({})",
                model.layers()[layer as usize].name
            );
        }
    }
}
