//! The two-time-pad attack that version-number management exists to
//! prevent.
//!
//! CTR-mode security collapses if a `(PA, VN)` pair repeats under one key:
//! the two ciphertexts share a pad, so `C₁ ⊕ C₂ = P₁ ⊕ P₂` — and with
//! sparse DNN tensors (many zero bytes), `P₁ ⊕ P₂` directly *is* the other
//! plaintext wherever either byte is zero. This module demonstrates the
//! break against a buggy VN manager that reuses a version after rollover,
//! and shows that [`seda_protect::OnChipVn`]'s monotone epoch counter
//! never produces the colliding pair.
//!
//! The quantitative defense margin: a 56-bit VN at one write per block per
//! layer per inference outlives any realistic deployment (see
//! [`inferences_until_overflow`]).

use seda_crypto::ctr::CounterSeed;
use seda_crypto::otp::{BandwidthAwareOtp, OtpStrategy};

/// Outcome of mounting the two-time-pad attack.
#[derive(Debug, Clone, PartialEq)]
pub struct PadReuseOutcome {
    /// XOR of the two observed ciphertexts (`= P₁ ⊕ P₂` on pad reuse).
    pub xor_of_plaintexts: Vec<u8>,
    /// Bytes of the second plaintext recovered via zero bytes in the first.
    pub recovered_bytes: usize,
    /// Fraction of the second plaintext recovered correctly.
    pub accuracy: f64,
    /// Whether the pads actually collided.
    pub success: bool,
}

/// Mounts the attack: encrypt `p1` and `p2` to the same address under
/// `vn1`/`vn2`, XOR the ciphertexts, and use `p1`'s known-zero positions
/// to read `p2`.
pub fn mount_pad_reuse(
    key: [u8; 16],
    pa: u64,
    vn1: u64,
    vn2: u64,
    p1: &[u8],
    p2: &[u8],
) -> PadReuseOutcome {
    assert_eq!(p1.len(), p2.len(), "plaintexts must match in length");
    let enc = BandwidthAwareOtp::new(key);
    let mut c1 = p1.to_vec();
    enc.apply(CounterSeed::new(pa, vn1), &mut c1);
    let mut c2 = p2.to_vec();
    enc.apply(CounterSeed::new(pa, vn2), &mut c2);

    let xor_of_plaintexts: Vec<u8> = c1.iter().zip(c2.iter()).map(|(a, b)| a ^ b).collect();
    // Where the attacker knows p1 is zero (sparse weights), the XOR leaks
    // p2 directly.
    let mut recovered_bytes = 0usize;
    let mut correct = 0usize;
    for ((&x, &a), &b) in xor_of_plaintexts.iter().zip(p1.iter()).zip(p2.iter()) {
        if a == 0 {
            recovered_bytes += 1;
            if x == b {
                correct += 1;
            }
        }
    }
    let accuracy = if recovered_bytes == 0 {
        0.0
    } else {
        correct as f64 / recovered_bytes as f64
    };
    PadReuseOutcome {
        xor_of_plaintexts,
        recovered_bytes,
        accuracy,
        success: recovered_bytes > 0 && accuracy > 0.99,
    }
}

/// Number of complete inferences a `vn_bits`-wide activation counter
/// supports before overflow, for a model of `layers` layers (one buffer
/// write per layer per inference, as `seda_protect::OnChipVn` assigns them).
pub fn inferences_until_overflow(vn_bits: u32, layers: u32) -> u64 {
    let max = if vn_bits >= 64 {
        u64::MAX
    } else {
        (1u64 << vn_bits) - 1
    };
    max / u64::from(layers.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functional::synthetic_weights;
    use seda_protect::OnChipVn;

    #[test]
    fn reused_vn_leaks_sparse_plaintext() {
        let p1 = synthetic_weights(1, 512); // ~30% zero bytes
        let p2 = synthetic_weights(2, 512);
        let out = mount_pad_reuse([9; 16], 0x4000, 7, 7, &p1, &p2);
        assert!(out.success, "identical VNs must leak");
        assert!(out.recovered_bytes > 100);
        assert!((out.accuracy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn distinct_vns_leak_nothing() {
        let p1 = synthetic_weights(1, 512);
        let p2 = synthetic_weights(2, 512);
        let out = mount_pad_reuse([9; 16], 0x4000, 7, 8, &p1, &p2);
        assert!(!out.success, "fresh VN must not leak: {}", out.accuracy);
        assert!(out.accuracy < 0.05);
    }

    #[test]
    fn onchip_vn_never_produces_the_colliding_pair() {
        // Sweep many inferences; the activation VN for a fixed buffer slot
        // is strictly increasing, so the attack precondition never holds.
        let mut gen = OnChipVn::new(12, 1);
        let mut last = 0u64;
        for _ in 0..1000 {
            gen.begin_inference();
            let vn = gen.activation_vn(4);
            assert!(vn > last, "VN must be strictly monotone");
            last = vn;
        }
    }

    #[test]
    fn fifty_six_bit_counters_outlive_deployments() {
        // ResNet-18 at 1000 inferences/second: > 100k years to overflow.
        let inferences = inferences_until_overflow(56, 18);
        let seconds = inferences / 1000;
        let years = seconds / (365 * 24 * 3600);
        assert!(years > 100_000, "56-bit VN lasts {years} years");
    }

    #[test]
    fn tiny_counters_do_overflow() {
        // An 8-bit counter on a 16-layer model dies after 15 inferences —
        // why real schemes carry wide counters or re-encrypt on rollover.
        assert_eq!(inferences_until_overflow(8, 16), 15);
    }
}
