//! Functional secure inference: execute a quantized DNN whose tensors
//! live *encrypted* in untrusted memory, decrypting and verifying tiles
//! on-chip — the end-to-end behaviour the timing pipeline abstracts.
//!
//! The accelerator-side arithmetic is plain int8 × int8 → int32 with a
//! fixed right-shift requantization; the security side is the real SeDA
//! stack: B-AES pads keyed by `(PA, VN)`, position-bound optBlk MACs
//! XOR-folded into per-layer MACs, and MGX-style on-chip version numbers.
//! The headline property, pinned by tests: **protected inference produces
//! bit-identical outputs to unprotected inference, and any off-chip
//! tampering is detected before results are consumed.**

use crate::error::SedaError;
use seda_crypto::ctr::CounterSeed;
use seda_crypto::mac::{BlockPosition, MacTag, PositionBoundMac, XorAccumulator};
use seda_crypto::otp::{BandwidthAwareOtp, OtpStrategy};
use seda_models::{Layer, LayerKind, Model};
use seda_protect::OnChipVn;
use seda_scalesim::{AddressMap, TensorKind};

/// Protection block size of the functional memory (one optBlk).
const BLOCK: usize = 64;

/// Requantization shift applied to every accumulator.
const REQUANT_SHIFT: i32 = 7;

/// Error raised when a read fails integrity verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegrityViolation {
    /// Layer whose data failed the check.
    pub layer: u32,
    /// Tensor kind that failed.
    pub tensor: TensorKind,
    /// Index of the failing block within the region, when the check is
    /// block-granular; `None` for aggregate (layer-fold) checks, which
    /// cannot localize below the region.
    pub block: Option<u32>,
    /// Base physical address of the failing block (or region, for
    /// aggregate checks).
    pub pa: u64,
}

impl core::fmt::Display for IntegrityViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "integrity violation in layer {} ({:?}) at PA {:#x}",
            self.layer, self.tensor, self.pa
        )?;
        match self.block {
            Some(b) => write!(f, ", block {b}"),
            None => write!(f, " (aggregate layer check)"),
        }
    }
}

impl std::error::Error for IntegrityViolation {}

/// Untrusted off-chip memory: stores only ciphertext.
///
/// The trusted side (this struct's methods, standing in for the on-chip
/// protection engine) encrypts on write, folding block MACs into a layer
/// accumulator, and decrypts on read, re-folding and comparing.
#[derive(Debug)]
pub struct SecureMemory {
    bytes: Vec<u8>,
    enc: BandwidthAwareOtp,
    mac: PositionBoundMac,
}

impl SecureMemory {
    /// Creates a memory of `size` bytes under fresh keys.
    pub fn new(size: usize, enc_key: [u8; 16], mac_key: [u8; 16]) -> Self {
        Self {
            bytes: vec![0; size],
            enc: BandwidthAwareOtp::new(enc_key),
            mac: PositionBoundMac::new(mac_key),
        }
    }

    /// Raw ciphertext access for tamper injection in tests/demos.
    pub fn raw_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    /// Bounds check shared by reads and writes: the whole `[pa, pa + len)`
    /// span must lie inside the image. A truncated or relocated request
    /// surfaces as a typed error, never a slice panic.
    fn check_bounds(&self, pa: u64, len: usize) -> Result<(), SedaError> {
        let end = (pa as usize).checked_add(len);
        if pa as usize > self.bytes.len() || end.is_none_or(|e| e > self.bytes.len()) {
            return Err(SedaError::OutOfBounds {
                pa,
                len,
                size: self.bytes.len(),
            });
        }
        Ok(())
    }

    /// Encrypts `data` to `pa` under `vn`, returning the region's folded
    /// MAC (which the caller keeps on-chip).
    ///
    /// # Errors
    ///
    /// Returns [`SedaError::OutOfBounds`] if the region escapes the image.
    pub fn write_region(
        &mut self,
        pa: u64,
        vn: u64,
        layer: u32,
        tensor: TensorKind,
        data: &[u8],
    ) -> Result<u64, SedaError> {
        self.check_bounds(pa, data.len())?;
        let mut fold = XorAccumulator::new();
        for (i, chunk) in data.chunks(BLOCK).enumerate() {
            let block_pa = pa + (i * BLOCK) as u64;
            let mut buf = chunk.to_vec();
            self.enc.apply(CounterSeed::new(block_pa, vn), &mut buf);
            let tag = self.mac.tag(
                &buf,
                block_pa,
                vn,
                BlockPosition::new(layer, tensor.fmap_idx(), i as u32),
            );
            fold.add(tag);
            let at = block_pa as usize;
            self.bytes[at..at + buf.len()].copy_from_slice(&buf);
        }
        Ok(fold.value().0)
    }

    /// Decrypts `len` bytes from `pa`, verifying the folded MAC against
    /// the caller's on-chip `expected` value (constant-time comparison).
    ///
    /// # Errors
    ///
    /// Returns [`SedaError::Integrity`] if the recomputed layer MAC
    /// differs, or [`SedaError::OutOfBounds`] if the region escapes the
    /// image.
    pub fn read_region(
        &self,
        pa: u64,
        vn: u64,
        layer: u32,
        tensor: TensorKind,
        len: usize,
        expected: u64,
    ) -> Result<Vec<u8>, SedaError> {
        self.check_bounds(pa, len)?;
        let mut fold = XorAccumulator::new();
        let mut out = Vec::with_capacity(len);
        let mut i = 0usize;
        while i * BLOCK < len {
            let block_pa = pa + (i * BLOCK) as u64;
            let chunk_len = BLOCK.min(len - i * BLOCK);
            let at = block_pa as usize;
            let mut buf = self.bytes[at..at + chunk_len].to_vec();
            let tag = self.mac.tag(
                &buf,
                block_pa,
                vn,
                BlockPosition::new(layer, tensor.fmap_idx(), i as u32),
            );
            fold.add(tag);
            self.enc.apply(CounterSeed::new(block_pa, vn), &mut buf);
            out.extend_from_slice(&buf);
            i += 1;
        }
        if fold.value().ct_eq(MacTag(expected)) {
            Ok(out)
        } else {
            seda_telemetry::counter_add("functional.verification_failures", 1);
            Err(SedaError::Integrity(IntegrityViolation {
                layer,
                tensor,
                block: None,
                pa,
            }))
        }
    }
}

fn requantize(acc: i32) -> i8 {
    (acc >> REQUANT_SHIFT).clamp(i8::MIN as i32, i8::MAX as i32) as i8
}

/// Reference (unprotected) execution of one layer over plaintext bytes.
///
/// Tensors are interpreted as `i8`; layouts match the timing simulator's:
/// ifmap `[y][x][c]`, conv weights `[m][r][s][c]`, GEMM weights `[n][k]`,
/// ofmap `[y][x][m]`.
pub fn execute_layer(layer: &Layer, ifmap: &[u8], weights: &[u8]) -> Vec<u8> {
    let as_i8 = |b: u8| b as i8;
    match layer.kind {
        LayerKind::Conv {
            iw,
            r,
            s,
            c,
            m,
            stride,
            ..
        } => {
            let (oh, ow) = layer.ofmap_dims();
            let (iw, r, s, c, m, stride) = (
                iw as usize,
                r as usize,
                s as usize,
                c as usize,
                m as usize,
                stride as usize,
            );
            let mut out = vec![0u8; (oh * ow) as usize * m];
            for oy in 0..oh as usize {
                for ox in 0..ow as usize {
                    for om in 0..m {
                        let mut acc: i32 = 0;
                        for ky in 0..r {
                            for kx in 0..s {
                                for kc in 0..c {
                                    let iy = oy * stride + ky;
                                    let ix = ox * stride + kx;
                                    let iv = as_i8(ifmap[(iy * iw + ix) * c + kc]) as i32;
                                    let wv =
                                        as_i8(weights[((om * r + ky) * s + kx) * c + kc]) as i32;
                                    acc += iv * wv;
                                }
                            }
                        }
                        out[(oy * ow as usize + ox) * m + om] = requantize(acc) as u8;
                    }
                }
            }
            out
        }
        LayerKind::DepthwiseConv {
            iw,
            r,
            s,
            c,
            stride,
            ..
        } => {
            let (oh, ow) = layer.ofmap_dims();
            let (iw, r, s, c, stride) = (
                iw as usize,
                r as usize,
                s as usize,
                c as usize,
                stride as usize,
            );
            let mut out = vec![0u8; (oh * ow) as usize * c];
            for oy in 0..oh as usize {
                for ox in 0..ow as usize {
                    for ch in 0..c {
                        let mut acc: i32 = 0;
                        for ky in 0..r {
                            for kx in 0..s {
                                let iy = oy * stride + ky;
                                let ix = ox * stride + kx;
                                let iv = as_i8(ifmap[(iy * iw + ix) * c + ch]) as i32;
                                let wv = as_i8(weights[(ch * r + ky) * s + kx]) as i32;
                                acc += iv * wv;
                            }
                        }
                        out[(oy * ow as usize + ox) * c + ch] = requantize(acc) as u8;
                    }
                }
            }
            out
        }
        LayerKind::Gemm { m, k, n } => {
            let (m, k, n) = (m as usize, k as usize, n as usize);
            let mut out = vec![0u8; m * n];
            for row in 0..m {
                for col in 0..n {
                    let mut acc: i32 = 0;
                    for kk in 0..k {
                        acc +=
                            as_i8(ifmap[row * k + kk]) as i32 * as_i8(weights[col * k + kk]) as i32;
                    }
                    out[row * n + col] = requantize(acc) as u8;
                }
            }
            out
        }
    }
}

/// Deterministic synthetic weights for layer `layer_idx` of a model
/// (xorshift64-star over the layer index; ~30% exact zeros to mimic
/// pruned-network sparsity, which is what makes SECA dangerous). They
/// stand in for the trained parameters the paper's artifact loads from
/// disk.
pub fn synthetic_weights(layer_idx: u32, bytes: u64) -> Vec<u8> {
    let mut state = (u64::from(layer_idx) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut out = Vec::with_capacity(bytes as usize);
    for _ in 0..bytes {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let b = (state >> 32) as u8;
        out.push(if b < 77 { 0 } else { b });
    }
    out
}

/// Runs a whole model unprotected (the reference the secure path must
/// match bit-for-bit). Weights are [`synthetic_weights`]; the input is the
/// caller's.
pub fn run_reference(model: &Model, input: &[u8]) -> Vec<u8> {
    let mut act = input.to_vec();
    for (idx, layer) in model.layers().iter().enumerate() {
        let weights = synthetic_weights(idx as u32, layer.filter_bytes());
        act = execute_layer(layer, &act, &weights);
    }
    act
}

/// Runs a whole model with every tensor encrypted and verified in
/// untrusted memory.
///
/// # Errors
///
/// Returns [`SedaError::Integrity`] if any read fails verification (e.g.
/// after `tamper` flips ciphertext bits via [`SecureMemory::raw_mut`]),
/// or [`SedaError::OutOfBounds`] if a tensor escapes the image.
pub fn run_protected(
    model: &Model,
    input: &[u8],
    tamper: impl FnOnce(&mut SecureMemory),
) -> Result<Vec<u8>, SedaError> {
    let map = AddressMap::new(model);
    let mut mem = SecureMemory::new(map.total_bytes() as usize, [0x2b; 16], [0x7e; 16]);
    let mut vn_gen = OnChipVn::new(model.layers().len() as u32, 1);
    let epoch = vn_gen.begin_inference();

    // Provision weights (VN = model version) and the input activation.
    let mut weight_macs = Vec::new();
    for (idx, layer) in model.layers().iter().enumerate() {
        let weights = synthetic_weights(idx as u32, layer.filter_bytes());
        weight_macs.push(mem.write_region(
            map.weights(idx),
            vn_gen.weight_vn(),
            idx as u32,
            TensorKind::Filter,
            &weights,
        )?);
    }
    let input_vn = epoch * model.layers().len() as u64;
    let mut act_mac = mem.write_region(map.ifmap(0), input_vn, 0, TensorKind::Ifmap, input)?;
    let mut act_len = input.len();

    tamper(&mut mem);

    for (idx, layer) in model.layers().iter().enumerate() {
        let idx_u = idx as u32;
        // The reader uses the VN its producer wrote (on-chip state).
        let read_vn = vn_gen.ifmap_vn(idx_u);
        let produced_by = if idx == 0 { 0 } else { idx_u - 1 };
        let ifmap = mem.read_region(
            map.ifmap(idx),
            read_vn,
            produced_by,
            if idx == 0 {
                TensorKind::Ifmap
            } else {
                TensorKind::Ofmap
            },
            act_len,
            act_mac,
        )?;
        let weights = mem.read_region(
            map.weights(idx),
            vn_gen.weight_vn(),
            idx_u,
            TensorKind::Filter,
            layer.filter_bytes() as usize,
            weight_macs[idx],
        )?;
        let ofmap = execute_layer(layer, &ifmap, &weights);
        act_mac = mem.write_region(
            map.ofmap(idx),
            vn_gen.activation_vn(idx_u),
            idx_u,
            TensorKind::Ofmap,
            &ofmap,
        )?;
        act_len = ofmap.len();
    }

    // Read the final activations back (one last verification).
    let last = (model.layers().len() - 1) as u32;
    mem.read_region(
        map.ofmap(last as usize),
        vn_gen.activation_vn(last),
        last,
        TensorKind::Ofmap,
        act_len,
        act_mac,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use seda_models::zoo;

    fn lenet_input() -> Vec<u8> {
        (0..32 * 32).map(|i| (i % 23) as u8).collect()
    }

    #[test]
    fn synthetic_weights_are_sparse_and_deterministic() {
        let w = synthetic_weights(5, 10_000);
        assert_eq!(w, synthetic_weights(5, 10_000));
        let zeros = w.iter().filter(|&&b| b == 0).count();
        assert!(zeros > 2_000 && zeros < 4_500, "zeros: {zeros}");
        assert_ne!(w, synthetic_weights(6, 10_000));
    }

    #[test]
    fn protected_inference_matches_reference_bit_for_bit() {
        let model = zoo::lenet();
        let input = lenet_input();
        let reference = run_reference(&model, &input);
        let protected = run_protected(&model, &input, |_| {}).expect("honest run verifies");
        assert_eq!(protected, reference);
        assert_eq!(protected.len(), 10, "LeNet emits 10 logits");
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let model = zoo::lenet();
        let map = AddressMap::new(&model);
        let mut mem = SecureMemory::new(map.total_bytes() as usize, [1; 16], [2; 16]);
        let data: Vec<u8> = (0..256).map(|i| i as u8).collect();
        mem.write_region(0, 0, 0, TensorKind::Ifmap, &data)
            .expect("region fits");
        assert_ne!(
            &mem.raw_mut()[..256],
            &data[..],
            "memory must hold ciphertext"
        );
    }

    #[test]
    fn tampered_weights_are_detected() {
        let model = zoo::lenet();
        let map = AddressMap::new(&model);
        let weight_addr = map.weights(1) as usize;
        let err = run_protected(&model, &lenet_input(), |mem| {
            mem.raw_mut()[weight_addr + 5] ^= 0x01;
        })
        .expect_err("flipped weight bit must be caught");
        let v = err.integrity().expect("tamper surfaces as Integrity");
        assert_eq!(v.layer, 1);
        assert_eq!(v.tensor, TensorKind::Filter);
        assert_eq!(v.pa, map.weights(1));
    }

    #[test]
    fn tampered_input_activations_are_detected() {
        let model = zoo::lenet();
        let map = AddressMap::new(&model);
        let addr = map.ifmap(0) as usize;
        let err = run_protected(&model, &lenet_input(), |mem| {
            mem.raw_mut()[addr] ^= 0x80;
        })
        .expect_err("tampered input must be caught");
        let v = err.integrity().expect("tamper surfaces as Integrity");
        assert_eq!(v.tensor, TensorKind::Ifmap);
    }

    #[test]
    fn gemm_layer_executes_correctly() {
        // 1x2 · 2x2 with known int8 values: out = requant([a·w]).
        let layer = Layer::gemm("g", 1, 2, 2);
        let ifmap = [10u8, 20u8];
        // weights [n][k]: n0 = [1, 2], n1 = [3, 4]
        let weights = [1u8, 2, 3, 4];
        let out = execute_layer(&layer, &ifmap, &weights);
        // n0: 10*1 + 20*2 = 50 >> 7 = 0; n1: 10*3 + 20*4 = 110 >> 7 = 0
        assert_eq!(out, vec![0, 0]);
        let big = [100u8, 100u8];
        let out2 = execute_layer(&layer, &big, &weights);
        // n0: 100+200=300>>7=2; n1: 300+400=700>>7=5
        assert_eq!(out2, vec![2, 5]);
    }

    #[test]
    fn conv_layer_matches_hand_computation() {
        // 3x3x1 input, 2x2 filter, stride 1 → 2x2 output.
        let layer = Layer::conv("c", 3, 3, 2, 2, 1, 1, 1);
        let ifmap = [1u8, 2, 3, 4, 5, 6, 7, 8, 9].map(|v| v * 10);
        let weights = [1u8, 1, 1, 1];
        let out = execute_layer(&layer, &ifmap, &weights);
        // Window sums: (10+20+40+50)=120, (20+30+50+60)=160,
        //              (40+50+70+80)=240, (50+60+80+90)=280; >>7.
        assert_eq!(out, vec![0, 1, 1, 2]);
    }

    #[test]
    fn negative_values_round_toward_negative_infinity() {
        // i8 semantics: 0x80 = -128; -128 >> 7 = -1 → 0xff.
        let layer = Layer::gemm("g", 1, 1, 1);
        let out = execute_layer(&layer, &[0x80], &[1]);
        assert_eq!(out, vec![0xff]);
    }

    #[test]
    fn out_of_bounds_access_is_a_typed_error() {
        let mut mem = SecureMemory::new(128, [1; 16], [2; 16]);
        let err = mem
            .write_region(96, 0, 0, TensorKind::Ifmap, &[0u8; 64])
            .expect_err("write past the image end");
        assert!(matches!(err, SedaError::OutOfBounds { size: 128, .. }));
        let err = mem
            .read_region(u64::MAX - 8, 0, 0, TensorKind::Ifmap, 64, 0)
            .expect_err("overflowing PA must not wrap");
        assert!(matches!(err, SedaError::OutOfBounds { .. }));
    }

    #[test]
    fn replayed_stale_activations_are_rejected() {
        // Write twice to the same buffer with bumped VN, then restore the
        // old ciphertext: the reader (holding the new VN and MAC) rejects.
        let mut mem = SecureMemory::new(4096, [7; 16], [8; 16]);
        let old: Vec<u8> = vec![1; 256];
        let new: Vec<u8> = vec![2; 256];
        mem.write_region(0, 10, 0, TensorKind::Ofmap, &old)
            .expect("region fits");
        let stale: Vec<u8> = mem.raw_mut()[..256].to_vec();
        let new_mac = mem
            .write_region(0, 11, 0, TensorKind::Ofmap, &new)
            .expect("region fits");
        mem.raw_mut()[..256].copy_from_slice(&stale); // replay!
        let err = mem.read_region(0, 11, 0, TensorKind::Ofmap, 256, new_mac);
        assert!(err.is_err(), "replayed ciphertext must fail verification");
    }
}
