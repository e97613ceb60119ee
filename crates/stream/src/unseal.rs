//! The consuming side: an incremental, verify-before-trust unsealer.

use crate::frame::{
    be32, be64, frame_mac, header_len, header_mac, FRAME_BYTES, HEADER_PREFIX, MAGIC, MAX_LAYERS,
};
use crate::seal::StreamSpec;
use seda::error::StreamViolation;
use seda::SedaError;
use seda_adversary::{ProtectedImage, BLOCK};
use seda_crypto::mac::{MacTag, PositionBoundMac};
use seda_dram::{DramConfig, DramSim, Request, Run};
use std::time::Instant;

/// Stream bytes handed to the unsealer per push — a line-rate NIC
/// burst's worth of frames.
pub const CHUNK_BYTES: usize = 4096;

/// Incremental sealed-stream consumer.
///
/// Feed arbitrary byte chunks through [`push`](Self::push); the unsealer
/// buffers partial frames, verifies each complete frame's chained
/// transport MAC before trusting any of it, and installs each completed
/// layer into the [`ProtectedImage`] under construction. Every failure
/// is a typed [`SedaError`]; after one, the unsealer is poisoned and
/// repeats it. A *torn* stream is not a failure: state persists across
/// pushes, so resuming with the remaining bytes continues cleanly from
/// the last verified block, and [`finish`](Self::finish) reports
/// [`StreamViolation::Truncated`] only if the stream never completes.
#[derive(Debug)]
pub struct StreamUnsealer {
    spec: StreamSpec,
    transport: PositionBoundMac,
    buf: Vec<u8>,
    pos: usize,
    header_done: bool,
    image: ProtectedImage,
    chain: MacTag,
    next_seq: u64,
    total_blocks: u64,
    verified: u64,
    layer_buf: Vec<u8>,
    current_layer: usize,
    next_blk: u32,
    layers_installed: usize,
    blocks_per_layer: Vec<u32>,
    failed: Option<SedaError>,
}

impl StreamUnsealer {
    /// Creates an unsealer expecting `spec`'s stream identity, key
    /// epoch, and geometry.
    ///
    /// # Errors
    ///
    /// Returns [`SedaError::InvalidSpec`] for invalid geometry.
    pub fn new(spec: StreamSpec) -> Result<Self, SedaError> {
        spec.validate()?;
        let image = ProtectedImage::new(spec.config, &spec.lens, spec.enc_key, spec.mac_key)?;
        let blocks_per_layer: Vec<u32> = spec.lens.iter().map(|&l| (l / BLOCK) as u32).collect();
        let total_blocks = spec.total_blocks();
        Ok(Self {
            transport: PositionBoundMac::new(spec.transport_key),
            buf: Vec::new(),
            pos: 0,
            header_done: false,
            image,
            chain: MacTag(0),
            next_seq: 0,
            total_blocks,
            verified: 0,
            layer_buf: Vec::new(),
            current_layer: 0,
            next_blk: 0,
            layers_installed: 0,
            blocks_per_layer,
            failed: None,
            spec,
        })
    }

    /// Blocks verified so far.
    pub fn verified_blocks(&self) -> u64 {
        self.verified
    }

    /// Layers fully verified and installed so far.
    pub fn layers_installed(&self) -> usize {
        self.layers_installed
    }

    /// Whether every declared block has been verified and installed.
    pub fn is_complete(&self) -> bool {
        self.verified == self.total_blocks
    }

    /// Feeds the next chunk of the stream, verifying as many complete
    /// frames as it holds.
    ///
    /// # Errors
    ///
    /// Any framing, ordering, or MAC violation — see the crate docs for
    /// the full taxonomy. The unsealer stays poisoned with the first
    /// error.
    pub fn push(&mut self, data: &[u8]) -> Result<(), SedaError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        self.buf.extend_from_slice(data);
        let result = self.drain();
        if let Err(e) = &result {
            self.failed = Some(e.clone());
        }
        // Reclaim consumed bytes so a long stream never grows the buffer.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        result
    }

    /// Completes the unseal, yielding the installed image.
    ///
    /// # Errors
    ///
    /// Repeats any earlier violation; an incomplete stream yields
    /// [`StreamViolation::Truncated`] with the verified progress.
    pub fn finish(self) -> Result<ProtectedImage, SedaError> {
        if let Some(e) = self.failed {
            return Err(e);
        }
        if !self.is_complete() {
            return Err(StreamViolation::Truncated {
                verified: self.verified,
                expected: self.total_blocks,
            }
            .into());
        }
        seda_telemetry::counter_add("stream.unseals_completed", 1);
        Ok(self.image)
    }

    fn available(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn drain(&mut self) -> Result<(), SedaError> {
        if !self.header_done && !self.try_header()? {
            return Ok(());
        }
        loop {
            // Frames held in full and still expected. Each ciphertext
            // opens its frame's MAC message, so four of them absorb at
            // once ahead of the chain; the frames are then checked and
            // verified one by one, in stream order, as without it.
            let ready =
                (self.available() / FRAME_BYTES).min((self.total_blocks - self.verified) as usize);
            if ready >= 4 {
                let cts: [&[u8; BLOCK]; 4] = std::array::from_fn(|k| {
                    let at = self.pos + k * FRAME_BYTES + 16;
                    self.buf[at..at + BLOCK].try_into().expect("one block")
                });
                for absorbed in self.transport.absorb4(cts) {
                    self.try_frame(Some(&absorbed))?;
                }
            } else if !self.try_frame(None)? {
                return Ok(());
            }
        }
    }

    /// Attempts to parse and verify the header; `Ok(false)` means more
    /// bytes are needed.
    fn try_header(&mut self) -> Result<bool, SedaError> {
        if self.available() < HEADER_PREFIX {
            return Ok(false);
        }
        let at = self.pos;
        if self.buf[at..at + 4] != MAGIC {
            return Err(StreamViolation::BadHeader {
                reason: format!(
                    "bad magic {:02x}{:02x}{:02x}{:02x}",
                    self.buf[at],
                    self.buf[at + 1],
                    self.buf[at + 2],
                    self.buf[at + 3]
                ),
            }
            .into());
        }
        let layer_count = be32(&self.buf, at + 20) as usize;
        if layer_count == 0 || layer_count > MAX_LAYERS {
            return Err(StreamViolation::BadHeader {
                reason: format!("layer count {layer_count} outside 1..={MAX_LAYERS}"),
            }
            .into());
        }
        let hlen = header_len(layer_count);
        if self.available() < hlen {
            return Ok(false);
        }
        let stream_id = be64(&self.buf, at + 4);
        let key_epoch = be64(&self.buf, at + 12);
        // Authenticate before interpreting: the MAC covers every header
        // field, so any flipped byte surfaces as a tag mismatch here.
        let stored = MacTag(be64(&self.buf, at + hlen - 8));
        let computed = header_mac(
            &self.transport,
            stream_id,
            key_epoch,
            &self.buf[at..at + hlen - 8],
        );
        computed.verify(stored).map_err(SedaError::from)?;
        if stream_id != self.spec.stream_id {
            return Err(StreamViolation::BadHeader {
                reason: format!(
                    "stream id {stream_id:#x}, expected {:#x}",
                    self.spec.stream_id
                ),
            }
            .into());
        }
        if key_epoch != self.spec.key_epoch {
            return Err(StreamViolation::StaleEpoch {
                stream: key_epoch,
                current: self.spec.key_epoch,
            }
            .into());
        }
        if layer_count != self.spec.lens.len() {
            return Err(StreamViolation::BadHeader {
                reason: format!(
                    "{layer_count} layer regions declared, expected {}",
                    self.spec.lens.len()
                ),
            }
            .into());
        }
        for (layer, &expected) in self.blocks_per_layer.iter().enumerate() {
            let declared = be32(&self.buf, at + HEADER_PREFIX + 4 * layer);
            if declared != expected {
                return Err(StreamViolation::BadHeader {
                    reason: format!(
                        "layer {layer} declares {declared} blocks, expected {expected}"
                    ),
                }
                .into());
            }
        }
        self.chain = computed;
        self.pos += hlen;
        self.header_done = true;
        Ok(true)
    }

    /// Attempts to verify one frame; `Ok(false)` means more bytes are
    /// needed. `absorbed` is the transport engine with this frame's
    /// ciphertext already absorbed, when the caller has it.
    fn try_frame(&mut self, absorbed: Option<&PositionBoundMac>) -> Result<bool, SedaError> {
        if self.is_complete() {
            if self.available() > 0 {
                return Err(StreamViolation::BadFrame {
                    seq: self.next_seq,
                    reason: format!("{} trailing bytes after the final frame", self.available()),
                }
                .into());
            }
            return Ok(false);
        }
        if self.available() < FRAME_BYTES {
            return Ok(false);
        }
        let at = self.pos;
        let seq = be64(&self.buf, at);
        if seq != self.next_seq {
            return Err(StreamViolation::OutOfOrder {
                expected: self.next_seq,
                got: seq,
            }
            .into());
        }
        let layer = be32(&self.buf, at + 8);
        let blk = be32(&self.buf, at + 12);
        if layer as usize != self.current_layer || blk != self.next_blk {
            return Err(StreamViolation::BadFrame {
                seq,
                reason: format!(
                    "declared position (layer {layer}, blk {blk}), expected (layer {}, blk {})",
                    self.current_layer, self.next_blk
                ),
            }
            .into());
        }
        let ct: &[u8; BLOCK] = self.buf[at + 16..at + 16 + BLOCK]
            .try_into()
            .expect("one block");
        let stored = MacTag(be64(&self.buf, at + 16 + BLOCK));
        let own;
        let absorbed = match absorbed {
            Some(engine) => engine,
            None => {
                own = self.transport.absorb(ct);
                &own
            }
        };
        let computed = frame_mac(absorbed, self.spec.stream_id, seq, layer, blk, self.chain);
        computed.verify(stored).map_err(SedaError::from)?;
        self.layer_buf.extend_from_slice(ct);
        self.chain = computed;
        self.next_seq += 1;
        self.verified += 1;
        self.next_blk += 1;
        if self.next_blk == self.blocks_per_layer[self.current_layer] {
            let layer_ct = std::mem::take(&mut self.layer_buf);
            self.image
                .install_sealed_layer(self.current_layer, &layer_ct)?;
            self.layers_installed += 1;
            self.current_layer += 1;
            self.next_blk = 0;
        }
        self.pos += FRAME_BYTES;
        Ok(true)
    }
}

/// One-shot unseal of a complete stream.
///
/// # Errors
///
/// Same taxonomy as [`StreamUnsealer::push`] / [`StreamUnsealer::finish`].
pub fn unseal(spec: &StreamSpec, stream: &[u8]) -> Result<ProtectedImage, SedaError> {
    let mut unsealer = StreamUnsealer::new(spec.clone())?;
    unsealer.push(stream)?;
    unsealer.finish()
}

/// A completed, timed provisioning run: see [`measure`].
#[derive(Debug)]
pub struct UnsealRun {
    /// The verified, installed image.
    pub image: ProtectedImage,
    /// Ciphertext payload bytes provisioned.
    pub payload_bytes: u64,
    /// Protection blocks verified.
    pub blocks: u64,
    /// Wall-clock seconds of the unseal plus the write-out replay.
    pub wall_s: f64,
    /// Sustained payload throughput in GB/s.
    pub gbps_sustained: f64,
    /// DRAM memory-clock cycles the layer write-out replay consumed.
    pub replay_cycles: u64,
}

/// Provisions a stream end to end and times it: pushes the stream in
/// [`CHUNK_BYTES`] chunks, finishes, then replays each layer's 64-byte
/// writes as one [`Run`] through one [`DramSim`] — the off-chip write-out
/// of the installed image. The image is bit-identical to a one-shot
/// [`unseal()`]; only the wall-clock is measured.
///
/// # Errors
///
/// Propagates every unsealer violation (see [`StreamUnsealer`]).
pub fn measure(
    spec: &StreamSpec,
    stream: &[u8],
    dram: &DramConfig,
) -> Result<UnsealRun, SedaError> {
    let started = Instant::now();
    let mut unsealer = StreamUnsealer::new(spec.clone())?;
    for chunk in stream.chunks(CHUNK_BYTES) {
        unsealer.push(chunk)?;
    }
    let image = unsealer.finish()?;
    let mut sim = DramSim::new(dram.clone());
    for (&pa0, &len) in spec.layer_pas().iter().zip(&spec.lens) {
        sim.run_runs(&[Run {
            head: Request::write(pa0).pack(),
            len: (len / BLOCK) as u64,
        }]);
    }
    let wall_s = started.elapsed().as_secs_f64();
    let payload_bytes = spec.total_bytes() as u64;
    Ok(UnsealRun {
        image,
        payload_bytes,
        blocks: spec.total_blocks(),
        wall_s,
        gbps_sustained: payload_bytes as f64 / wall_s.max(1e-9) / 1e9,
        replay_cycles: sim.elapsed_cycles(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seal::seal;
    use seda_adversary::ProtectConfig;

    fn spec() -> StreamSpec {
        StreamSpec {
            stream_id: 0xFEED,
            key_epoch: 1,
            config: ProtectConfig::matrix()[2],
            lens: vec![128, 64],
            enc_key: [1; 16],
            mac_key: [2; 16],
            transport_key: [3; 16],
        }
    }

    fn dram() -> DramConfig {
        DramConfig::ddr4_with_bandwidth(1, 16.0e9)
    }

    fn plains() -> Vec<Vec<u8>> {
        vec![vec![0x11; 128], vec![0x22; 64]]
    }

    #[test]
    fn measure_matches_one_shot_unseal_bit_for_bit() {
        let sp = StreamSpec {
            lens: vec![1024, 512, 2048],
            ..spec()
        };
        let plains: Vec<Vec<u8>> = sp
            .lens
            .iter()
            .enumerate()
            .map(|(i, &len)| vec![i as u8 + 1; len])
            .collect();
        let stream = seal(&sp, &plains).expect("seal");
        let run = measure(&sp, stream.bytes(), &dram()).expect("measure");
        assert_eq!(run.blocks, (1024 + 512 + 2048) / 64);
        assert_eq!(run.payload_bytes, 1024 + 512 + 2048);
        assert!(run.gbps_sustained > 0.0);
        assert!(run.replay_cycles > 0);
        let one_shot = unseal(&sp, stream.bytes()).expect("one-shot");
        assert_eq!(run.image.offchip_bytes(), one_shot.offchip_bytes());
        assert_eq!(run.image.model_root(), one_shot.model_root());
        assert_eq!(
            run.image.read_model().expect("verifies"),
            plains,
            "measured unseal round-trips the plaintext"
        );
    }

    #[test]
    fn measure_propagates_tamper_errors() {
        let sp = StreamSpec {
            lens: vec![1024, 512, 2048],
            ..spec()
        };
        let plains: Vec<Vec<u8>> = sp.lens.iter().map(|&len| vec![7u8; len]).collect();
        let mut stream = seal(&sp, &plains).expect("seal");
        stream.flip_bit(stream.frame_offset(10) + 20, 3);
        let err = measure(&sp, stream.bytes(), &dram()).expect_err("tamper detected");
        assert!(matches!(err, SedaError::Tag(_)), "{err:?}");
    }

    #[test]
    fn byte_at_a_time_push_matches_one_shot() {
        let sp = spec();
        let stream = seal(&sp, &plains()).expect("seal");
        let one_shot = unseal(&sp, stream.bytes()).expect("one-shot");
        let mut dribble = StreamUnsealer::new(sp.clone()).expect("unsealer");
        for &b in stream.bytes() {
            dribble.push(&[b]).expect("dribbled push");
        }
        assert!(dribble.is_complete());
        assert_eq!(dribble.layers_installed(), 2);
        let dribbled = dribble.finish().expect("finish");
        assert_eq!(one_shot.offchip_bytes(), dribbled.offchip_bytes());
        assert_eq!(one_shot.model_root(), dribbled.model_root());
    }

    #[test]
    fn poisoned_unsealer_repeats_its_error() {
        let sp = spec();
        let mut stream = seal(&sp, &plains()).expect("seal");
        stream.corrupt_frame_mac(0, 5);
        let mut u = StreamUnsealer::new(sp).expect("unsealer");
        let first = u.push(stream.bytes()).expect_err("tamper detected");
        assert!(matches!(first, SedaError::Tag(_)), "{first:?}");
        let again = u.push(&[0]).expect_err("still poisoned");
        assert_eq!(first, again);
        assert_eq!(u.verified_blocks(), 0);
        let fin = u.finish().expect_err("finish repeats the error");
        assert_eq!(fin, first);
    }

    #[test]
    fn wrong_stream_id_and_trailing_garbage_are_typed() {
        let sp = spec();
        let stream = seal(&sp, &plains()).expect("seal");
        let mut other = sp.clone();
        other.stream_id = 0xBEEF;
        let err = unseal(&other, stream.bytes()).expect_err("stream id pinned");
        assert!(
            matches!(err, SedaError::Stream(StreamViolation::BadHeader { .. })),
            "{err:?}"
        );
        let mut long = stream.bytes().to_vec();
        long.push(0xAB);
        let err = unseal(&sp, &long).expect_err("trailing bytes rejected");
        assert!(
            matches!(err, SedaError::Stream(StreamViolation::BadFrame { .. })),
            "{err:?}"
        );
    }
}
