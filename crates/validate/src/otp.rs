//! Differential oracle: streamed OTP application vs per-segment reference.
//!
//! [`BandwidthAwareOtp`] overrides the trait's generic `apply` with a
//! streaming datapath that reuses the base pad and each derived key
//! schedule. This family checks that the optimization is invisible: for
//! every strategy, `apply` must XOR exactly the pads `segment_otp`
//! defines, be self-inverse, and report evaluation counts with the right
//! edge behaviour — across block sizes spanning several schedule groups.

use crate::ensure;
use seda_adversary::Rng;
use seda_crypto::ctr::CounterSeed;
use seda_crypto::otp::{
    BandwidthAwareOtp, OtpStrategy, SharedOtp, TraditionalOtp, PADS_PER_SCHEDULE,
};

/// Reference application: one `segment_otp` call per 16 B chunk, the
/// definitionally-correct (and slow) path every strategy must match.
fn reference_apply(otp: &dyn OtpStrategy, seed: CounterSeed, data: &[u8]) -> Vec<u8> {
    data.chunks(16)
        .enumerate()
        .flat_map(|(i, chunk)| {
            let pad = otp.segment_otp(seed, i);
            chunk
                .iter()
                .zip(pad.iter())
                .map(|(b, p)| b ^ p)
                .collect::<Vec<u8>>()
        })
        .collect()
}

/// A block length in bytes: 0, a partial trailing segment, or a span
/// crossing up to four schedule groups (> 640 B).
fn random_len(rng: &mut Rng) -> usize {
    match rng.below(4) {
        0 => rng.below(16) as usize,
        1 => (rng.range(1, 4) * 16 * PADS_PER_SCHEDULE as u64) as usize,
        2 => (rng.range(1, 4) * 16 * PADS_PER_SCHEDULE as u64) as usize + rng.range(1, 15) as usize,
        _ => rng.below(720) as usize,
    }
}

/// One randomized case over all three strategies.
pub fn check_case(rng: &mut Rng) -> Result<(), String> {
    let key = rng.block();
    let seed = CounterSeed::new(rng.below(1 << 40) & !0x3F, rng.below(1 << 20));
    let len = random_len(rng);
    let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();

    let baes = BandwidthAwareOtp::new(key);
    let taes = TraditionalOtp::new(key);
    let shared = SharedOtp::new(key);
    let strategies: [(&str, &dyn OtpStrategy); 3] =
        [("B-AES", &baes), ("T-AES", &taes), ("Shared", &shared)];
    let segments = len.div_ceil(16);

    for (name, otp) in strategies {
        let ctx = format!("{name}, len={len}, seed=({:#x},{})", seed.pa, seed.vn);

        // apply == the per-segment reference.
        let mut fast = data.clone();
        otp.apply(seed, &mut fast);
        let reference = reference_apply(otp, seed, &data);
        ensure!(
            fast == reference,
            "{ctx}: streamed apply diverges from per-segment reference \
             (first mismatch at byte {:?})",
            fast.iter().zip(&reference).position(|(a, b)| a != b)
        );

        // apply is self-inverse.
        otp.apply(seed, &mut fast);
        ensure!(fast == data, "{ctx}: double apply is not the identity");

        // Evaluation counts: zero blocks are free, counts are monotone in
        // the segment count, and T-AES dominates B-AES dominates nothing
        // below one evaluation per non-empty block.
        ensure!(
            otp.aes_evaluations(0) == 0,
            "{ctx}: empty block costs {} evaluations",
            otp.aes_evaluations(0)
        );
        if segments > 0 {
            let evals = otp.aes_evaluations(segments);
            ensure!(
                (1..=segments).contains(&evals),
                "{ctx}: {segments} segments cost {evals} evaluations"
            );
            ensure!(
                otp.aes_evaluations(segments + 1) >= evals,
                "{ctx}: evaluation count not monotone at {segments} segments"
            );
        }
    }

    // Pad-structure properties over the first `segments` pads.
    if segments >= 2 {
        let b_pads: Vec<[u8; 16]> = (0..segments).map(|i| baes.segment_otp(seed, i)).collect();
        let t_pads: Vec<[u8; 16]> = (0..segments).map(|i| taes.segment_otp(seed, i)).collect();
        for i in 0..segments {
            for j in i + 1..segments {
                ensure!(
                    b_pads[i] != b_pads[j],
                    "B-AES pads {i} and {j} collide at len={len}"
                );
                ensure!(
                    t_pads[i] != t_pads[j],
                    "T-AES pads {i} and {j} collide at len={len}"
                );
            }
        }
        // The strawman really is a strawman: all its pads coincide.
        let s0 = shared.segment_otp(seed, 0);
        ensure!(
            (1..segments).all(|i| shared.segment_otp(seed, i) == s0),
            "Shared OTP pads differ across segments at len={len}"
        );
    }

    // Distinct blocks never share a base pad (AES is a permutation, and
    // distinct (PA, VN) pairs produce distinct counter blocks).
    let other = CounterSeed::new(seed.pa ^ 0x40, seed.vn);
    ensure!(
        baes.segment_otp(seed, 0) != baes.segment_otp(other, 0),
        "adjacent blocks share a B-AES pad at seed ({:#x},{})",
        seed.pa,
        seed.vn
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::{run_family, Family};

    #[test]
    fn otp_family_passes_fixed_seed() {
        let report = run_family(Family::Otp, 0xD1FF_0002, Family::Otp.default_cases());
        assert!(report.passed(), "{report}");
    }
}
