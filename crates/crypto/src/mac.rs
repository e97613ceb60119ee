//! Message authentication codes for protected data blocks, and the XOR-MAC
//! layer folding that SeDA's multi-level integrity verification uses.
//!
//! [`PositionBoundMac`] is SeDA's defense against the Re-Permutation Attack
//! (RePA, Algorithm 2): it binds `layer_id`, `fmap_idx` and `blk_idx` into
//! each optBlk MAC (Algorithm 2 lines 7-8), so a shuffled layer no longer
//! XOR-folds to the same layer MAC. With the address, version and position
//! zeroed it hashes the ciphertext alone — the construction Securator-style
//! layer checks rely on, whose XOR fold RePA defeats.

use crate::sha256::{HmacSha256, BLOCK_BYTES};

/// MAC width assumed throughout the evaluation (8 B MAC per block).
pub const MAC_BYTES: usize = 8;

/// A truncated 64-bit MAC tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct MacTag(pub u64);

impl MacTag {
    /// XOR-combines two tags (the XOR-MAC fold of Bellare et al.).
    pub fn xor(self, other: MacTag) -> MacTag {
        MacTag(self.0 ^ other.0)
    }

    /// Constant-time equality: every byte of both tags is examined and
    /// folded into the verdict, with no data-dependent early exit, so the
    /// comparison's timing leaks nothing about *where* a forged tag first
    /// diverges. All verify paths in the workspace go through this.
    pub fn ct_eq(self, other: MacTag) -> bool {
        ct_eq_bytes(&self.0.to_be_bytes(), &other.0.to_be_bytes())
    }

    /// Constant-time verification against an expected tag.
    ///
    /// # Errors
    ///
    /// Returns [`TagMismatch`] (carrying both tags) when they differ.
    pub fn verify(self, expected: MacTag) -> Result<(), TagMismatch> {
        if self.ct_eq(expected) {
            Ok(())
        } else {
            seda_telemetry::counter_add("crypto.mac.tag_mismatches", 1);
            Err(TagMismatch {
                expected,
                actual: self,
            })
        }
    }
}

/// Accumulates the byte-wise difference of two equal-length slices: the OR
/// of all byte XORs. Zero iff the slices are identical. Every byte pair
/// contributes to the result regardless of earlier differences — the
/// no-early-exit property [`MacTag::ct_eq`] relies on.
pub fn ct_diff(a: &[u8], b: &[u8]) -> u8 {
    debug_assert_eq!(a.len(), b.len(), "ct_diff compares equal lengths");
    a.iter().zip(b.iter()).fold(0u8, |d, (x, y)| d | (x ^ y))
}

/// Constant-time slice equality (length mismatch is public information and
/// returns `false` immediately; content comparison has no early exit).
pub fn ct_eq_bytes(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len() && ct_diff(a, b) == 0
}

/// A failed tag verification: the expected and recomputed tags.
///
/// Tags are 64-bit truncations of keyed HMACs over data the verifier
/// already holds, so carrying both values in the error is diagnostic
/// context, not a secret leak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagMismatch {
    /// The tag the verifier expected (stored / on-chip value).
    pub expected: MacTag,
    /// The tag recomputed from the (possibly tampered) data.
    pub actual: MacTag,
}

impl core::fmt::Display for TagMismatch {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "MAC tag mismatch: expected {}, recomputed {}",
            self.expected, self.actual
        )
    }
}

impl std::error::Error for TagMismatch {}

impl core::fmt::Display for MacTag {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Position metadata bound into a SeDA optBlk MAC (Algorithm 2, line 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BlockPosition {
    /// Index of the layer the block belongs to.
    pub layer_id: u32,
    /// Index of the feature map (or weight tensor) within the layer.
    pub fmap_idx: u32,
    /// Index of the block within the feature map.
    pub blk_idx: u32,
}

impl BlockPosition {
    /// Creates a position triple.
    pub fn new(layer_id: u32, fmap_idx: u32, blk_idx: u32) -> Self {
        Self {
            layer_id,
            fmap_idx,
            blk_idx,
        }
    }
}

fn truncate(digest: &[u8; 32]) -> MacTag {
    // Invariant: an 8-byte slice of a 32-byte digest always converts.
    #[allow(clippy::expect_used)]
    MacTag(u64::from_be_bytes(
        digest[..8].try_into().expect("8-byte prefix"),
    ))
}

/// SeDA's position-bound optBlk MAC:
/// `HMAC_K(blk || PA || VN || layer_id || fmap_idx || blk_idx)`.
///
/// # Examples
///
/// ```
/// use seda_crypto::mac::{BlockPosition, PositionBoundMac};
///
/// let mac = PositionBoundMac::new([1u8; 16]);
/// let a = mac.tag(b"block-a", 0x100, 0, BlockPosition::new(3, 0, 7));
/// let b = mac.tag(b"block-a", 0x100, 0, BlockPosition::new(3, 0, 8));
/// assert_ne!(a, b, "same data at a different block index must not collide");
/// ```
#[derive(Debug, Clone)]
pub struct PositionBoundMac {
    hmac: HmacSha256,
}

impl PositionBoundMac {
    /// Creates a MAC engine under `key`.
    pub fn new(key: [u8; 16]) -> Self {
        Self {
            hmac: HmacSha256::new(&key),
        }
    }

    /// MACs a ciphertext block bound to address, version, and position.
    pub fn tag(&self, blk: &[u8], pa: u64, vn: u64, pos: BlockPosition) -> MacTag {
        truncate(&self.hmac.mac(&[blk, &binding(pa, vn, pos)]))
    }

    /// Four tags at once, one per `(blk, pa, vn, pos)` argument tuple of
    /// [`tag`](Self::tag), over one four-lane HMAC
    /// ([`HmacSha256::mac4`]).
    ///
    /// # Panics
    ///
    /// Panics when the four blocks differ in length.
    pub fn tag4(&self, blocks: [(&[u8], u64, u64, BlockPosition); 4]) -> [MacTag; 4] {
        let bindings = blocks.map(|(_, pa, vn, pos)| binding(pa, vn, pos));
        let parts: [[&[u8]; 2]; 4] = std::array::from_fn(|l| [blocks[l].0, &bindings[l]]);
        self.hmac
            .mac4(parts.each_ref().map(|p| &p[..]))
            .map(|d| truncate(&d))
    }

    /// This engine with `block` absorbed as the start of every block it
    /// tags: `self.absorb(b).tag(rest, ..)` equals `self.tag` over `b`
    /// followed by `rest`.
    pub fn absorb(&self, block: &[u8; BLOCK_BYTES]) -> Self {
        Self {
            hmac: self.hmac.absorb(block),
        }
    }

    /// [`absorb`](Self::absorb) of four blocks at once, over one
    /// four-lane compression.
    pub fn absorb4(&self, blocks: [&[u8; BLOCK_BYTES]; 4]) -> [Self; 4] {
        self.hmac.absorb4(blocks).map(|hmac| Self { hmac })
    }
}

/// The 28 bytes a position-bound tag binds after the block:
/// `PA || VN || layer_id || fmap_idx || blk_idx`, big-endian.
fn binding(pa: u64, vn: u64, pos: BlockPosition) -> [u8; 28] {
    let mut binding = [0u8; 28];
    binding[..8].copy_from_slice(&pa.to_be_bytes());
    binding[8..16].copy_from_slice(&vn.to_be_bytes());
    binding[16..20].copy_from_slice(&pos.layer_id.to_be_bytes());
    binding[20..24].copy_from_slice(&pos.fmap_idx.to_be_bytes());
    binding[24..].copy_from_slice(&pos.blk_idx.to_be_bytes());
    binding
}

/// XOR-folds a sequence of block tags into a single aggregate tag.
///
/// This is the layer-MAC fold of SeDA (and the Securator layer check). The
/// fold is *commutative*: order does not affect the result, which is exactly
/// why position binding inside each tag is required for security.
pub fn xor_fold<I: IntoIterator<Item = MacTag>>(tags: I) -> MacTag {
    tags.into_iter().fold(MacTag(0), MacTag::xor)
}

/// Incremental XOR-MAC accumulator for a layer (or whole model).
///
/// Supports the incrementality property of XOR-MACs: re-writing one block
/// updates the aggregate by XORing out the old tag and XORing in the new one,
/// without touching any other block.
///
/// # Examples
///
/// ```
/// use seda_crypto::mac::{MacTag, XorAccumulator};
///
/// let mut acc = XorAccumulator::new();
/// acc.add(MacTag(0xaaaa));
/// acc.add(MacTag(0x5555));
/// acc.replace(MacTag(0x5555), MacTag(0x1111));
/// assert_eq!(acc.value(), MacTag(0xaaaa ^ 0x1111));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XorAccumulator {
    value: MacTag,
    blocks: u64,
}

impl XorAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a block tag to the aggregate.
    pub fn add(&mut self, tag: MacTag) {
        self.value = self.value.xor(tag);
        self.blocks += 1;
    }

    /// Replaces a block's tag after a write (incremental update).
    pub fn replace(&mut self, old: MacTag, new: MacTag) {
        self.value = self.value.xor(old).xor(new);
    }

    /// Removes a block tag (e.g. when a buffer is freed).
    pub fn remove(&mut self, tag: MacTag) {
        self.value = self.value.xor(tag);
        self.blocks = self.blocks.saturating_sub(1);
    }

    /// Current aggregate tag.
    pub fn value(&self) -> MacTag {
        self.value
    }

    /// Number of live blocks folded in.
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Verifies the aggregate against an expected value (constant-time).
    pub fn verify(&self, expected: MacTag) -> bool {
        self.value.ct_eq(expected)
    }

    /// Like [`verify`](Self::verify), but returns the typed
    /// [`TagMismatch`] carrying both tags on failure.
    ///
    /// # Errors
    ///
    /// Returns [`TagMismatch`] when the aggregate differs from `expected`.
    pub fn check(&self, expected: MacTag) -> Result<(), TagMismatch> {
        self.value.verify(expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_depend_on_every_input() {
        let mac = PositionBoundMac::new([9u8; 16]);
        let base = mac.tag(b"data", 1, 2, BlockPosition::new(3, 4, 5));
        assert_ne!(base, mac.tag(b"datA", 1, 2, BlockPosition::new(3, 4, 5)));
        assert_ne!(base, mac.tag(b"data", 9, 2, BlockPosition::new(3, 4, 5)));
        assert_ne!(base, mac.tag(b"data", 1, 9, BlockPosition::new(3, 4, 5)));
        assert_ne!(base, mac.tag(b"data", 1, 2, BlockPosition::new(9, 4, 5)));
        assert_ne!(base, mac.tag(b"data", 1, 2, BlockPosition::new(3, 9, 5)));
        assert_ne!(base, mac.tag(b"data", 1, 2, BlockPosition::new(3, 4, 9)));
    }

    #[test]
    fn tag4_and_absorb_match_scalar_tags() {
        let mac = PositionBoundMac::new([5u8; 16]);
        let blocks: [[u8; 64]; 4] = std::array::from_fn(|l| [l as u8 * 17 + 1; 64]);
        let at = |l: usize| {
            (
                0x40 * l as u64,
                l as u64 + 1,
                BlockPosition::new(2, 0, l as u32),
            )
        };
        let want: [MacTag; 4] = std::array::from_fn(|l| {
            let (pa, vn, pos) = at(l);
            mac.tag(&blocks[l], pa, vn, pos)
        });
        let quad = std::array::from_fn(|l| {
            let (pa, vn, pos) = at(l);
            (&blocks[l][..], pa, vn, pos)
        });
        assert_eq!(mac.tag4(quad), want);
        // An absorbed block is the start of the tagged block.
        let absorbed = mac.absorb4(blocks.each_ref());
        for (l, engine) in absorbed.iter().enumerate() {
            let mut long = blocks[l].to_vec();
            long.extend_from_slice(b"tail");
            let want = mac.tag(&long, 7, 8, BlockPosition::new(1, 2, 3));
            assert_eq!(engine.tag(b"tail", 7, 8, BlockPosition::new(1, 2, 3)), want);
            assert_eq!(
                mac.absorb(&blocks[l])
                    .tag(b"tail", 7, 8, BlockPosition::new(1, 2, 3)),
                want
            );
        }
    }

    #[test]
    fn tag_is_the_truncated_hmac_of_the_bound_message() {
        use crate::sha256::hmac_sha256;
        let key = [0x42u8; 16];
        let mac = PositionBoundMac::new(key);
        for len in [0usize, 7, 36, 64, 100, 200] {
            let blk: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut msg = blk.clone();
            msg.extend_from_slice(&0x1122_3344_5566_7788u64.to_be_bytes());
            msg.extend_from_slice(&9u64.to_be_bytes());
            for v in [3u32, 4, 5] {
                msg.extend_from_slice(&v.to_be_bytes());
            }
            let want = truncate(&hmac_sha256(&key, &msg));
            let pos = BlockPosition::new(3, 4, 5);
            assert_eq!(
                mac.tag(&blk, 0x1122_3344_5566_7788, 9, pos),
                want,
                "{len} B"
            );
        }
    }

    #[test]
    fn xor_fold_is_order_insensitive() {
        let tags = [MacTag(1), MacTag(2), MacTag(4), MacTag(8)];
        let mut rev = tags;
        rev.reverse();
        assert_eq!(xor_fold(tags), xor_fold(rev));
    }

    #[test]
    fn accumulator_matches_fold() {
        let tags = [MacTag(0xdead), MacTag(0xbeef), MacTag(0xf00d)];
        let mut acc = XorAccumulator::new();
        for t in tags {
            acc.add(t);
        }
        assert_eq!(acc.value(), xor_fold(tags));
        assert_eq!(acc.blocks(), 3);
    }

    #[test]
    fn incremental_replace_equals_rebuild() {
        let mac = PositionBoundMac::new([2u8; 16]);
        let pos = BlockPosition::default();
        let old = mac.tag(b"old", 0x40, 0, pos);
        let new = mac.tag(b"new", 0x40, 1, pos);
        let other = mac.tag(b"other", 0x80, 0, pos);
        let mut acc = XorAccumulator::new();
        acc.add(old);
        acc.add(other);
        acc.replace(old, new);
        assert_eq!(acc.value(), xor_fold([new, other]));
    }

    #[test]
    fn ct_eq_touches_every_byte() {
        // A difference confined to any single byte position must flip the
        // verdict, and the accumulated difference must equal the OR-fold
        // over *all* byte pairs — i.e. every byte contributes to the
        // output, which an early-exit comparison cannot claim.
        let base = MacTag(0x0123_4567_89ab_cdef);
        for byte in 0..8 {
            let flipped = MacTag(base.0 ^ (0x80u64 << (8 * byte)));
            assert!(!base.ct_eq(flipped), "difference at byte {byte} missed");
            assert!(base.ct_eq(base));
        }
        let a = 0xdead_beef_0bad_f00du64.to_be_bytes();
        let b = 0x1234_5678_9abc_def0u64.to_be_bytes();
        let expected_fold = a.iter().zip(b.iter()).fold(0u8, |d, (x, y)| d | (x ^ y));
        assert_eq!(ct_diff(&a, &b), expected_fold);
        assert_eq!(ct_diff(&a, &a), 0);
    }

    #[test]
    fn ct_eq_bytes_handles_length_mismatch() {
        assert!(!ct_eq_bytes(&[1, 2, 3], &[1, 2]));
        assert!(ct_eq_bytes(&[1, 2, 3], &[1, 2, 3]));
        assert!(ct_eq_bytes(&[], &[]));
    }

    #[test]
    fn tag_verify_returns_typed_mismatch() {
        let good = MacTag(7);
        let bad = MacTag(9);
        assert!(good.verify(good).is_ok());
        let err = bad.verify(good).expect_err("mismatch");
        assert_eq!(err.expected, good);
        assert_eq!(err.actual, bad);
        let msg = err.to_string();
        assert!(msg.contains("0000000000000007"), "{msg}");
        assert!(msg.contains("0000000000000009"), "{msg}");
        // TagMismatch is a std error.
        let _: &dyn std::error::Error = &err;
    }

    #[test]
    fn verify_detects_tamper() {
        let mac = PositionBoundMac::new([5u8; 16]);
        let good = mac.tag(b"payload", 0, 0, BlockPosition::default());
        let bad = mac.tag(b"Payload", 0, 0, BlockPosition::default());
        let mut acc = XorAccumulator::new();
        acc.add(good);
        assert!(acc.verify(good));
        assert!(!acc.verify(bad));
    }
}
