//! The sealing side: turn plaintext layers into an authenticated stream.

use crate::frame::{encode_header, frame_mac, header_mac, FRAME_BYTES};
use seda::SedaError;
use seda_adversary::{layer_pas, Pads, ProtectConfig, BLOCK};
use seda_crypto::mac::PositionBoundMac;

/// Everything both ends of a provisioning stream agree on out of band:
/// identity, key material, and the sealed model's geometry.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Stream identity, bound into every transport MAC.
    pub stream_id: u64,
    /// Key epoch; the unsealer rejects any other epoch as stale.
    pub key_epoch: u64,
    /// The protection configuration the image is sealed under.
    pub config: ProtectConfig,
    /// Layer region lengths in bytes (positive multiples of 64).
    pub lens: Vec<usize>,
    /// AES-CTR encryption key (the at-rest pad key).
    pub enc_key: [u8; 16],
    /// Storage MAC key for the installed [`ProtectedImage`].
    ///
    /// [`ProtectedImage`]: seda_adversary::ProtectedImage
    pub mac_key: [u8; 16],
    /// Long-lived transport MAC key (independent of the model key epoch).
    pub transport_key: [u8; 16],
}

impl StreamSpec {
    /// Total payload bytes across all layer regions.
    pub fn total_bytes(&self) -> usize {
        self.lens.iter().sum()
    }

    /// Total protection blocks across all layer regions.
    pub fn total_blocks(&self) -> u64 {
        (self.total_bytes() / BLOCK) as u64
    }

    /// Base physical address of each layer region: the
    /// [`ProtectedImage`] layout, from [`layer_pas`].
    ///
    /// [`ProtectedImage`]: seda_adversary::ProtectedImage
    pub fn layer_pas(&self) -> Vec<u64> {
        layer_pas(&self.lens)
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`SedaError::InvalidSpec`] for an empty lineup, a region
    /// that is not a positive multiple of 64, or too many layers.
    pub fn validate(&self) -> Result<(), SedaError> {
        if self.lens.is_empty() {
            return Err(SedaError::InvalidSpec {
                reason: "stream needs at least one layer region".to_owned(),
            });
        }
        if self.lens.len() > crate::frame::MAX_LAYERS {
            return Err(SedaError::InvalidSpec {
                reason: format!(
                    "{} layers exceed the {} layer framing ceiling",
                    self.lens.len(),
                    crate::frame::MAX_LAYERS
                ),
            });
        }
        if let Some(bad) = self.lens.iter().find(|&&l| l == 0 || l % BLOCK != 0) {
            return Err(SedaError::InvalidSpec {
                reason: format!("layer length {bad} is not a positive multiple of {BLOCK}"),
            });
        }
        Ok(())
    }
}

/// Region lengths for a model's sealed image: one region per layer, the
/// layer's weight footprint clamped into `[64, 4096]` and rounded up to
/// the 64-byte protection block — the geometry `seda-serve` seals
/// tenants under.
pub fn model_lens(model: &seda_models::Model) -> Vec<usize> {
    model
        .layers()
        .iter()
        .map(|l| {
            let bytes = l.filter_bytes().clamp(64, 4096);
            (bytes.div_ceil(64) * 64) as usize
        })
        .collect()
}

/// A sealed provisioning stream, with frame-aware tamper helpers for the
/// adversarial validation family.
#[derive(Debug, Clone)]
pub struct SealedStream {
    bytes: Vec<u8>,
    header_len: usize,
    frames: usize,
}

impl SealedStream {
    /// The raw stream bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Total stream length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the stream is empty (it never is after a seal).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Header length in bytes.
    pub fn header_len(&self) -> usize {
        self.header_len
    }

    /// Number of block frames.
    pub fn frame_count(&self) -> usize {
        self.frames
    }

    /// Byte offset of frame `i`.
    pub fn frame_offset(&self, i: usize) -> usize {
        self.header_len + i * FRAME_BYTES
    }

    /// Flips bit `bit` of stream byte `offset` (wrapping both).
    pub fn flip_bit(&mut self, offset: usize, bit: u8) {
        let at = offset % self.bytes.len();
        self.bytes[at] ^= 1 << (bit % 8);
    }

    /// Flips one bit of frame `i`'s transport MAC.
    pub fn corrupt_frame_mac(&mut self, i: usize, bit: u8) {
        let at = self.frame_offset(i % self.frames) + FRAME_BYTES - 8 + ((bit % 64) / 8) as usize;
        self.bytes[at] ^= 1 << (bit % 8);
    }

    /// Swaps frames `a` and `b` wholesale (metadata, ciphertext, MAC).
    pub fn swap_frames(&mut self, a: usize, b: usize) {
        let (a, b) = (a % self.frames, b % self.frames);
        if a == b {
            return;
        }
        let (oa, ob) = (self.frame_offset(a), self.frame_offset(b));
        for i in 0..FRAME_BYTES {
            self.bytes.swap(oa + i, ob + i);
        }
    }

    /// Replaces frame `i` with the same-index frame of `other` — the
    /// cross-stream splice move.
    pub fn splice_frame_from(&mut self, other: &SealedStream, i: usize) {
        let i = i % self.frames.min(other.frames);
        let (to, from) = (self.frame_offset(i), other.frame_offset(i));
        self.bytes[to..to + FRAME_BYTES].copy_from_slice(&other.bytes[from..from + FRAME_BYTES]);
    }
}

/// Seals plaintext layers into an authenticated provisioning stream.
///
/// Ciphertext is produced exactly as the at-rest image would (AES-CTR
/// pads seeded by `(pa, vn=1)`), so the unsealed image is bit-identical
/// to sealing the same plaintext through `write_layer` on a fresh image.
///
/// # Errors
///
/// Returns [`SedaError::InvalidSpec`] when the geometry is invalid or
/// `layers` does not match it.
pub fn seal(spec: &StreamSpec, layers: &[Vec<u8>]) -> Result<SealedStream, SedaError> {
    spec.validate()?;
    if layers.len() != spec.lens.len() {
        return Err(SedaError::InvalidSpec {
            reason: format!(
                "stream declares {} layer regions, got {} payloads",
                spec.lens.len(),
                layers.len()
            ),
        });
    }
    for (layer, (plain, &len)) in layers.iter().zip(spec.lens.iter()).enumerate() {
        if plain.len() != len {
            return Err(SedaError::InvalidSpec {
                reason: format!("layer {layer} holds {len} bytes, got {}", plain.len()),
            });
        }
    }
    let transport = PositionBoundMac::new(spec.transport_key);
    let pads = Pads::new(spec.config.pad, spec.enc_key);
    let pas = spec.layer_pas();
    let blocks_per_layer: Vec<u32> = spec.lens.iter().map(|&l| (l / BLOCK) as u32).collect();
    let mut bytes = encode_header(
        &transport,
        spec.stream_id,
        spec.key_epoch,
        &blocks_per_layer,
    );
    let hlen = bytes.len();
    // The chain starts at the header MAC, so frame 0 also authenticates
    // the header it follows.
    let mut chain = header_mac(
        &transport,
        spec.stream_id,
        spec.key_epoch,
        &bytes[..hlen - 8],
    );
    // Frames are appended in place into the exact stream length.
    bytes.reserve_exact(spec.total_blocks() as usize * FRAME_BYTES);
    let mut seq = 0u64;
    for (layer, plain) in layers.iter().enumerate() {
        let mut layer_ct = plain.clone();
        pads.apply_region(pas[layer], 1, &mut layer_ct);
        // `validate` made every region a whole number of blocks.
        let (blocks, _) = layer_ct.as_chunks::<BLOCK>();
        // Each ciphertext opens its frame's MAC message, so four frames
        // absorb it at once, ahead of the chain.
        let quads = blocks.chunks_exact(4);
        let tail = quads.remainder();
        let absorbed = quads
            .flat_map(|q| transport.absorb4([&q[0], &q[1], &q[2], &q[3]]))
            .chain(tail.iter().map(|ct| transport.absorb(ct)));
        for ((blk, ct), engine) in blocks.iter().enumerate().zip(absorbed) {
            let (layer, blk) = (layer as u32, blk as u32);
            chain = frame_mac(&engine, spec.stream_id, seq, layer, blk, chain);
            bytes.extend_from_slice(&seq.to_be_bytes());
            bytes.extend_from_slice(&layer.to_be_bytes());
            bytes.extend_from_slice(&blk.to_be_bytes());
            bytes.extend_from_slice(ct);
            bytes.extend_from_slice(&chain.0.to_be_bytes());
            seq += 1;
        }
    }
    seda_telemetry::counter_add("stream.blocks_sealed", seq);
    Ok(SealedStream {
        bytes,
        header_len: hlen,
        frames: seq as usize,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::header_len;
    use seda_models::zoo;

    fn spec() -> StreamSpec {
        StreamSpec {
            stream_id: 11,
            key_epoch: 1,
            config: ProtectConfig::matrix()[2],
            lens: vec![128, 64],
            enc_key: [1; 16],
            mac_key: [2; 16],
            transport_key: [3; 16],
        }
    }

    #[test]
    fn seal_rejects_bad_geometry_with_typed_errors() {
        let mut sp = spec();
        sp.lens = vec![];
        assert!(matches!(seal(&sp, &[]), Err(SedaError::InvalidSpec { .. })));
        let mut sp = spec();
        sp.lens = vec![100];
        assert!(matches!(
            seal(&sp, &[vec![0; 100]]),
            Err(SedaError::InvalidSpec { .. })
        ));
        let sp = spec();
        assert!(matches!(
            seal(&sp, &[vec![0; 128]]),
            Err(SedaError::InvalidSpec { .. })
        ));
        assert!(matches!(
            seal(&sp, &[vec![0; 128], vec![0; 32]]),
            Err(SedaError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn stream_geometry_matches_the_framing_math() {
        let sp = spec();
        let s = seal(&sp, &[vec![7; 128], vec![9; 64]]).expect("seal");
        assert_eq!(s.frame_count(), 3);
        assert_eq!(s.header_len(), header_len(2));
        assert_eq!(s.len(), header_len(2) + 3 * FRAME_BYTES);
        assert!(!s.is_empty());
        assert_eq!(s.frame_offset(2), s.header_len() + 2 * FRAME_BYTES);
    }

    #[test]
    fn model_lens_are_block_aligned_and_bounded() {
        for model in zoo::all_models() {
            let lens = model_lens(&model);
            assert_eq!(lens.len(), model.layers().len(), "{}", model.name());
            for len in lens {
                assert!((64..=4096 + 63).contains(&len), "{len}");
                assert_eq!(len % 64, 0);
            }
        }
    }
}
