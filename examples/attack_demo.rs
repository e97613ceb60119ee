//! Attack & defense walkthrough: mounts the paper's two attacks — SECA
//! (Algorithm 1) against shared-OTP encryption and RePA (Algorithm 2)
//! against XOR-folded layer MACs — and shows SeDA's defenses stopping both.
//!
//! Run with: `cargo run --release -p seda-examples --example attack_demo`

use seda::attacks::seca::{mount_seca, sparse_block};
use seda::crypto::ctr::CounterSeed;
use seda::crypto::otp::{BandwidthAwareOtp, SharedOtp};
use seda_adversary::{ProtectConfig, ProtectedImage};

fn main() {
    println!("=== Attack 1: SECA (single-element collision, Algorithm 1) ===\n");
    let key = [0x42; 16];
    let seed = CounterSeed::new(0x10_0000, 5);
    // 512 B of 70%-sparse weights — typical for pruned DNNs.
    let weights = sparse_block(32, 0.7, 99);

    let naive = mount_seca(&SharedOtp::new(key), seed, &weights, [0u8; 16]);
    println!(
        "shared OTP:  attacker recovers {:.1}% of the block  -> {}",
        naive.accuracy * 100.0,
        if naive.success {
            "MODEL STOLEN"
        } else {
            "safe"
        }
    );

    let defended = mount_seca(&BandwidthAwareOtp::new(key), seed, &weights, [0u8; 16]);
    println!(
        "B-AES:       attacker recovers {:.1}% of the block  -> {}",
        defended.accuracy * 100.0,
        if defended.success {
            "MODEL STOLEN"
        } else {
            "safe"
        }
    );

    println!("\n=== Attack 2: RePA (re-permutation, Algorithm 2) ===\n");
    let activations: Vec<u8> = (0..32 * 64).map(|i| (i as u8).wrapping_mul(13)).collect();
    for (label, config) in [
        ("ciphertext-only MACs (layer-ct):", "layer-ct"),
        ("position-bound MACs (layer-mac):", "layer-mac"),
    ] {
        let config = ProtectConfig::by_name(config).expect("matrix config");
        let mut image = ProtectedImage::new(config, &[activations.len()], [0x5e; 16], [0xda; 16])
            .expect("whole-block layer");
        image.write_layer(0, &activations).expect("layer fits");
        // SHUFFLEORDER: swap every pair of neighbouring blocks in place.
        for i in 0..image.blocks_in(0) / 2 {
            image.swap_blocks(0, 2 * i, 0, 2 * i + 1);
        }
        match image.read_layer(0) {
            Ok(read) => {
                let same = read.iter().zip(&activations).filter(|(a, b)| a == b);
                let share = same.count() as f64 / activations.len() as f64;
                println!(
                    "{label} verification PASSES after shuffle, {:.1}% of data intact -> {}",
                    share * 100.0,
                    if share < 0.5 {
                        "SILENT CORRUPTION"
                    } else {
                        "safe"
                    }
                );
            }
            Err(e) => println!("{label} verification FAILS after shuffle ({e}) -> safe"),
        }
    }

    println!("\nBoth defenses are structural: per-segment pads from the AES key");
    println!("schedule (B-AES) and position fields inside each optBlk MAC.");
}
