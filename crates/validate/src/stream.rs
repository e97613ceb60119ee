//! Stream-family oracle: sealed-model provisioning streams must unseal
//! bit-identical to at-rest sealing, and every tamper class must degrade
//! into a typed error — never a panic, never silent acceptance.
//!
//! Each case draws a random geometry (layer count and 64-byte-multiple
//! region lengths), a random [`ProtectConfig`] from the detection matrix,
//! and fresh random keys, then checks:
//!
//! * **Differential oracle** — [`seda_stream::seal()`] followed by
//!   [`seda_stream::unseal()`] yields a [`ProtectedImage`] whose
//!   ciphertext, model root, and recovered plaintext are bit-identical
//!   to sealing the same layers at rest through
//!   [`ProtectedImage::write_layer`]; a chunked
//!   [`seda_stream::StreamUnsealer`] fed random-sized
//!   slices must land on the same root.
//! * **Adversarial classes** — a random bit flip anywhere in the stream,
//!   a corrupted frame MAC, a frame reorder, a truncation at a random
//!   byte, a cross-stream frame splice, and a stale-epoch replay after
//!   key rotation must each fail with [`SedaError::Tag`] or
//!   [`SedaError::Stream`] under `catch_unwind`.
//!
//! [`ProtectedImage`]: seda_adversary::ProtectedImage
//! [`ProtectedImage::write_layer`]: seda_adversary::ProtectedImage::write_layer

use crate::ensure;
use seda::error::StreamViolation;
use seda::SedaError;
use seda_adversary::{ProtectConfig, ProtectedImage, Rng};
use seda_stream::{seal, unseal, StreamSpec, StreamUnsealer};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs a tampered stream through `unseal` and requires a typed
/// stream-layer rejection: no panic, no silent acceptance, no
/// unrelated error class.
fn expect_typed(ctx: &str, label: &str, spec: &StreamSpec, bytes: &[u8]) -> Result<(), String> {
    let spec = spec.clone();
    let data = bytes.to_vec();
    let outcome = catch_unwind(AssertUnwindSafe(|| unseal(&spec, &data)));
    let Ok(result) = outcome else {
        return Err(format!("{ctx}: {label}: unseal panicked"));
    };
    match result {
        Ok(_) => Err(format!("{ctx}: {label}: tamper went undetected")),
        Err(SedaError::Tag(_) | SedaError::Stream(_)) => Ok(()),
        Err(e) => Err(format!("{ctx}: {label}: non-stream error {e}")),
    }
}

/// One randomized differential-plus-adversarial case.
pub fn check_case(rng: &mut Rng) -> Result<(), String> {
    // Random geometry: 1–4 layers, each 2–6 protection blocks, so every
    // stream carries at least two frames (the reorder class needs them).
    let layers = rng.range(1, 4) as usize;
    let lens: Vec<usize> = (0..layers).map(|_| rng.range(2, 6) as usize * 64).collect();
    let config = *rng.pick(&ProtectConfig::matrix());
    let spec = StreamSpec {
        stream_id: rng.next_u64() | 1,
        key_epoch: rng.range(1, 8),
        config,
        lens: lens.clone(),
        enc_key: rng.block(),
        mac_key: rng.block(),
        transport_key: rng.block(),
    };
    let plains: Vec<Vec<u8>> = lens
        .iter()
        .map(|&len| (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect())
        .collect();
    let ctx = format!(
        "config={} lens={lens:?} stream={:#x} epoch={}",
        config.name, spec.stream_id, spec.key_epoch
    );

    let stream = seal(&spec, &plains).map_err(|e| format!("{ctx}: seal failed: {e}"))?;

    // Differential oracle: the streamed image must be bit-identical to
    // sealing the same plaintext at rest.
    let streamed =
        unseal(&spec, stream.bytes()).map_err(|e| format!("{ctx}: clean unseal failed: {e}"))?;
    let mut at_rest = ProtectedImage::new(config, &lens, spec.enc_key, spec.mac_key)
        .map_err(|e| format!("{ctx}: at-rest image failed: {e}"))?;
    for (layer, plain) in plains.iter().enumerate() {
        at_rest
            .write_layer(layer, plain)
            .map_err(|e| format!("{ctx}: write_layer {layer} failed: {e}"))?;
    }
    ensure!(
        streamed.offchip_bytes() == at_rest.offchip_bytes(),
        "{ctx}: streamed ciphertext differs from at-rest sealing"
    );
    ensure!(
        streamed.model_root() == at_rest.model_root(),
        "{ctx}: streamed model root differs from at-rest sealing"
    );
    let read = streamed
        .read_model()
        .map_err(|e| format!("{ctx}: streamed image failed verification: {e}"))?;
    ensure!(
        read == plains,
        "{ctx}: streamed image recovered the wrong plaintext"
    );

    // The incremental consumer fed random-sized chunks must converge on
    // the same image as the one-shot path.
    let mut unsealer =
        StreamUnsealer::new(spec.clone()).map_err(|e| format!("{ctx}: unsealer: {e}"))?;
    let mut rest = stream.bytes();
    while !rest.is_empty() {
        let take = (rng.range(1, 96) as usize).min(rest.len());
        unsealer
            .push(&rest[..take])
            .map_err(|e| format!("{ctx}: chunked push failed: {e}"))?;
        rest = &rest[take..];
    }
    let chunked = unsealer
        .finish()
        .map_err(|e| format!("{ctx}: chunked finish failed: {e}"))?;
    ensure!(
        chunked.model_root() == streamed.model_root(),
        "{ctx}: chunk size changed the unsealed image"
    );

    // Adversarial classes — each one typed, none a panic.
    let total = stream.len();
    let frames = stream.frame_count();

    let mut flipped = stream.clone();
    flipped.flip_bit(rng.below(total as u64) as usize, 1 << rng.below(8));
    expect_typed(&ctx, "random bit flip", &spec, flipped.bytes())?;

    let mut bad_mac = stream.clone();
    bad_mac.corrupt_frame_mac(rng.below(frames as u64) as usize, 1 << rng.below(8));
    expect_typed(&ctx, "frame MAC corruption", &spec, bad_mac.bytes())?;

    let mut reordered = stream.clone();
    let a = rng.below(frames as u64 - 1) as usize;
    reordered.swap_frames(a, a + 1);
    expect_typed(&ctx, "frame reorder", &spec, reordered.bytes())?;

    let keep = rng.below(total as u64) as usize;
    expect_typed(&ctx, "truncation", &spec, &stream.bytes()[..keep])?;

    // Cross-stream splice: a frame sealed for another stream id under
    // the same keys must not verify here.
    let mut foreign_spec = spec.clone();
    foreign_spec.stream_id ^= 0x5EDA;
    let foreign = seal(&foreign_spec, &plains).map_err(|e| format!("{ctx}: foreign seal: {e}"))?;
    let mut spliced = stream.clone();
    spliced.splice_frame_from(&foreign, rng.below(frames as u64) as usize);
    expect_typed(&ctx, "cross-stream splice", &spec, spliced.bytes())?;

    // Stale replay: after the receiver rotates its key epoch, the old
    // stream must be rejected up front with the exact violation.
    let mut rotated = spec.clone();
    rotated.key_epoch = spec.key_epoch + 1;
    let err = unseal(&rotated, stream.bytes())
        .err()
        .ok_or_else(|| format!("{ctx}: stale-epoch replay went undetected"))?;
    ensure!(
        err == SedaError::Stream(StreamViolation::StaleEpoch {
            stream: spec.key_epoch,
            current: rotated.key_epoch,
        }),
        "{ctx}: stale-epoch replay not rejected as StaleEpoch: {err:?}"
    );

    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::{run_family, Family};

    #[test]
    fn stream_family_passes_fixed_seed() {
        let report = run_family(Family::Stream, 0xD1FF_000A, Family::Stream.default_cases());
        assert!(report.passed(), "{report}");
    }
}
