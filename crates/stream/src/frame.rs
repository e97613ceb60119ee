//! Wire framing of a sealed-model stream.
//!
//! ```text
//! header := magic(4) || stream_id(8) || key_epoch(8) || layer_count(4)
//!        || blocks_per_layer(4)*layer_count || header_mac(8)
//! frame  := seq(8) || layer_id(4) || blk_idx(4) || ciphertext(64) || mac(8)
//! stream := header || frame*          (frames in global seq order)
//! ```
//!
//! All integers are big-endian. The header MAC is the transport MAC over
//! the serialized header prefix keyed to `(stream_id, key_epoch)`; each
//! frame MAC chains on its predecessor (the header MAC for frame 0) and
//! binds `(stream id, seq, layer id, blk idx)`, so a verified prefix of
//! the stream authenticates every framing decision made so far — reorder,
//! splice, and substitution all break the chain at the first bad frame.

use seda_adversary::BLOCK;
use seda_crypto::mac::{BlockPosition, MacTag, PositionBoundMac};

/// Stream magic: "SDS1" (SeDA stream, framing version 1).
pub const MAGIC: [u8; 4] = *b"SDS1";

/// Fixed header bytes before the per-layer block counts.
pub(crate) const HEADER_PREFIX: usize = 4 + 8 + 8 + 4;

/// One frame on the wire: seq, layer id, block index, one protection
/// block of ciphertext, and the chained transport MAC.
pub const FRAME_BYTES: usize = 8 + 4 + 4 + BLOCK + 8;

/// Sanity ceiling on the declared layer count — far above any zoo model,
/// low enough that a corrupted header cannot demand absurd buffering.
pub const MAX_LAYERS: usize = 4096;

/// Total header length for `layers` layer regions.
pub fn header_len(layers: usize) -> usize {
    HEADER_PREFIX + 4 * layers + 8
}

/// Serializes a header (without its MAC) and returns the full buffer
/// with the MAC appended.
pub(crate) fn encode_header(
    transport: &PositionBoundMac,
    stream_id: u64,
    key_epoch: u64,
    blocks_per_layer: &[u32],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(header_len(blocks_per_layer.len()));
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&stream_id.to_be_bytes());
    out.extend_from_slice(&key_epoch.to_be_bytes());
    out.extend_from_slice(&(blocks_per_layer.len() as u32).to_be_bytes());
    for &blocks in blocks_per_layer {
        out.extend_from_slice(&blocks.to_be_bytes());
    }
    let mac = header_mac(transport, stream_id, key_epoch, &out);
    out.extend_from_slice(&mac.0.to_be_bytes());
    out
}

/// The transport MAC over a serialized header prefix.
pub(crate) fn header_mac(
    transport: &PositionBoundMac,
    stream_id: u64,
    key_epoch: u64,
    prefix: &[u8],
) -> MacTag {
    transport.tag(prefix, stream_id, key_epoch, BlockPosition::default())
}

/// The chained transport MAC of one frame: the ciphertext concatenated
/// with the previous tag in the chain, keyed to the stream id, the
/// global sequence number, and the block's `(layer, blk)` position.
///
/// The ciphertext is the message's first block, so the chain does not
/// enter it: `absorbed` is the transport engine with the frame's
/// ciphertext already absorbed ([`PositionBoundMac::absorb`], or
/// [`absorb4`](PositionBoundMac::absorb4) over four frames ahead of the
/// chain), and only `prev` and the binding remain to hash here.
pub(crate) fn frame_mac(
    absorbed: &PositionBoundMac,
    stream_id: u64,
    seq: u64,
    layer: u32,
    blk: u32,
    prev: MacTag,
) -> MacTag {
    absorbed.tag(
        &prev.0.to_be_bytes(),
        stream_id,
        seq,
        BlockPosition::new(layer, 0, blk),
    )
}

/// Reads a big-endian u64 at `at` (caller guarantees bounds).
pub(crate) fn be64(buf: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[at..at + 8]);
    u64::from_be_bytes(b)
}

/// Reads a big-endian u32 at `at` (caller guarantees bounds).
pub(crate) fn be32(buf: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&buf[at..at + 4]);
    u32::from_be_bytes(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrips_its_fields() {
        let transport = PositionBoundMac::new([1; 16]);
        let h = encode_header(&transport, 0xABCD, 3, &[4, 2, 1]);
        assert_eq!(h.len(), header_len(3));
        assert_eq!(&h[..4], &MAGIC);
        assert_eq!(be64(&h, 4), 0xABCD);
        assert_eq!(be64(&h, 12), 3);
        assert_eq!(be32(&h, 20), 3);
        assert_eq!(be32(&h, 24), 4);
        let mac = header_mac(&transport, 0xABCD, 3, &h[..h.len() - 8]);
        assert_eq!(be64(&h, h.len() - 8), mac.0);
    }

    #[test]
    fn frame_macs_chain_and_bind_position() {
        let transport = PositionBoundMac::new([2; 16]);
        let ct = [0x5au8; BLOCK];
        let absorbed = transport.absorb(&ct);
        let base = frame_mac(&absorbed, 1, 0, 0, 0, MacTag(7));
        assert_ne!(base, frame_mac(&absorbed, 2, 0, 0, 0, MacTag(7)));
        assert_ne!(base, frame_mac(&absorbed, 1, 1, 0, 0, MacTag(7)));
        assert_ne!(base, frame_mac(&absorbed, 1, 0, 1, 0, MacTag(7)));
        assert_ne!(base, frame_mac(&absorbed, 1, 0, 0, 1, MacTag(7)));
        assert_ne!(base, frame_mac(&absorbed, 1, 0, 0, 0, MacTag(8)));
        // The wire tag: the transport MAC over `ct || prev`.
        let mut msg = ct.to_vec();
        msg.extend_from_slice(&7u64.to_be_bytes());
        assert_eq!(base, transport.tag(&msg, 1, 0, BlockPosition::new(0, 0, 0)));
    }
}
