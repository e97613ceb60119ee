//! The workspace's one deterministic PRNG (SplitMix64).
//!
//! Reproducibility matters more than statistical quality. Every consumer
//! derives its own stream from `(root seed, tag)` through
//! [`Rng::for_stream`], so a stream advances only when its consumer draws
//! from it. This module is the whole replay contract:
//! - the fault matrix and chaos plans derive one stream per cell or point;
//! - the validation harness derives one stream per case;
//! - the serving simulator derives one stream per arrival process, client
//!   and tenant key.
//!
//! A failing matrix cell, a validation case or a serve golden therefore
//! replays exactly. `seda-serve` re-exports this type as `seda_serve::Rng`.

/// SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a raw seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The derived sub-seed for stream `tag` under `seed`: one SplitMix64
    /// step over the combined value, so neighbouring tags are
    /// uncorrelated.
    pub fn sub_seed(seed: u64, tag: u64) -> u64 {
        Self::new(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
    }

    /// A generator for the derived stream `tag` under `seed`.
    pub fn for_stream(seed: u64, tag: u64) -> Self {
        Self::new(Self::sub_seed(seed, tag))
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. `bound` must be positive.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        // Modulo bias is irrelevant at these bounds (all ≪ 2^32).
        self.next_u64() % bound
    }

    /// Uniform value in `[lo, hi]` inclusive.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        lo + self.below(hi - lo + 1)
    }

    /// Picks one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    /// A biased coin: true with probability `num / den`.
    pub fn coin(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// Uniform `f64` in the half-open interval `(0, 1]`. It is never
    /// zero, so it is safe under `ln()`.
    #[inline]
    pub fn unit_open(&mut self) -> f64 {
        // 53 mantissa bits, shifted into (0, 1] by the +1.
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// One exponential draw with the given mean (inverse-CDF over
    /// [`unit_open`](Self::unit_open)), in the mean's unit.
    #[inline]
    pub fn exp(&mut self, mean: f64) -> f64 {
        -self.unit_open().ln() * mean
    }

    /// A random 16-byte block (AES key or plaintext material).
    pub fn block(&mut self) -> [u8; 16] {
        let mut out = [0u8; 16];
        self.fill(&mut out);
        out
    }

    /// Fills `buf` with pseudo-random bytes, one little-endian draw per
    /// 8 bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Values computed from the generators this type replaced; a change
    /// to the derivation or to a draw fails here first, not in a golden.
    #[test]
    fn derivation_and_draws_are_pinned() {
        assert_eq!(Rng::sub_seed(0x5EDA, 0x2_0000), 0x6b49_d801_f6fb_b284);
        assert_eq!(Rng::for_stream(1, 7).next_u64(), 0x71e3_a388_b76b_e3f8);
        assert_eq!(
            Rng::new(42).block(),
            [
                0x95, 0x6e, 0xeb, 0x2f, 0x26, 0x32, 0xd7, 0xbd, 0x03, 0xf1, 0x66, 0xb2, 0x33, 0xe3,
                0xef, 0x28
            ]
        );
        assert_eq!(Rng::new(42).unit_open().to_bits(), 0x3fe7_bae6_44c5_fd6e);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn streams_are_distinct() {
        let seeds: Vec<u64> = (0..64).map(|tag| Rng::sub_seed(1, tag)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
    }

    /// One case index replayed under different root seeds is a different
    /// case.
    #[test]
    fn sub_seeds_differ_across_cases() {
        let seeds: Vec<u64> = (0..64).map(|root| Rng::sub_seed(root, 3)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
    }

    /// Tag 0 leaves the seed unchanged before the derivation step, so the
    /// derived stream must still not be the root stream.
    #[test]
    fn derived_streams_differ() {
        let mut root = Rng::new(1);
        let mut derived = Rng::for_stream(1, 0);
        assert_ne!(root.next_u64(), derived.next_u64());
    }

    #[test]
    fn range_is_inclusive_and_in_bounds() {
        let mut rng = Rng::new(7);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..2000 {
            let v = rng.range(3, 6);
            assert!((3..=6).contains(&v));
            saw_lo |= v == 3;
            saw_hi |= v == 6;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn unit_open_stays_in_bounds() {
        let mut rng = Rng::new(7);
        for _ in 0..10_000 {
            let u = rng.unit_open();
            assert!(u > 0.0 && u <= 1.0, "{u}");
        }
    }

    #[test]
    fn exponential_draws_are_positive() {
        let mut rng = Rng::new(9);
        for _ in 0..10_000 {
            assert!(rng.exp(25.0) >= 0.0);
        }
    }

    #[test]
    fn fill_covers_partial_chunks() {
        let mut rng = Rng::new(9);
        let mut buf = [0u8; 13];
        rng.fill(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
