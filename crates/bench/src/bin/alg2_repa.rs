//! Demonstrates Algorithm 2: the Re-Permutation Attack against XOR-folded
//! layer MACs, and SeDA's position-binding defense.
//!
//! One 64-block layer is sealed into a `seda-adversary` image under the
//! positionless `layer-ct` configuration and under SeDA's position-bound
//! `layer-mac`; the attacker swaps blocks `(2i, 2i+1)` in place.
//!
//! Usage: `cargo run --release -p seda-bench --bin alg2_repa`

use seda_adversary::{ProtectConfig, ProtectedImage, BLOCK};

fn main() {
    println!("Algorithm 2: RePA attack — shuffle a layer's ciphertext blocks and");
    println!("test whether the XOR-folded layer MAC still verifies.\n");
    let plaintext: Vec<u8> = (0..64 * BLOCK).map(|i| (i % 251) as u8).collect();
    println!(
        "{:<36} {:>10} {:>12} {:>9}",
        "block MAC construction", "verifies?", "intact%", "broken?"
    );
    for (name, config) in [
        ("Hash(ciphertext) only (Securator-ish)", "layer-ct"),
        ("Hash(blk||PA||VN||layer||fmap||blk)", "layer-mac"),
    ] {
        let config = ProtectConfig::by_name(config).expect("matrix config");
        let mut image = ProtectedImage::new(config, &[plaintext.len()], [0x5e; 16], [0xda; 16])
            .expect("whole-block layer");
        image.write_layer(0, &plaintext).expect("layer fits");
        for i in 0..image.blocks_in(0) / 2 {
            image.swap_blocks(0, 2 * i, 0, 2 * i + 1);
        }
        // The verifier releases plaintext only when the layer verifies.
        let (verdict, intact, broken) = match image.read_layer(0) {
            Ok(read) => {
                let same = read.iter().zip(&plaintext).filter(|(a, b)| a == b).count();
                let share = same as f64 / plaintext.len() as f64;
                ("PASS", format!("{:.1}%", share * 100.0), share < 0.5)
            }
            Err(_) => ("FAIL", "-".to_owned(), false),
        };
        println!(
            "{:<36} {:>10} {:>12} {:>9}",
            name,
            verdict,
            intact,
            if broken { "BROKEN" } else { "safe" }
        );
    }
    println!("\nXOR folds are order-insensitive, so a shuffled layer passes the");
    println!("ciphertext-only check while CTR decryption (address-bound pads)");
    println!("silently yields garbage activations. Binding layer/fmap/block");
    println!("position into each optBlk MAC (Alg. 2 lines 7-8) detects the swap.");
}
