//! Line-rate sealed-model provisioning for the SeDA stack.
//!
//! SeDA seals models *at rest* ([`seda_adversary::ProtectedImage`]); this
//! crate seals them *in flight*. A sealed model is emitted as a compact
//! header plus sequence-numbered authenticated 64-byte blocks — AES-CTR
//! ciphertext (identical to the at-rest encryption, so a streamed image
//! is bit-identical to an at-rest sealing of the same plaintext) framed
//! with a per-block transport MAC chained over `(stream id, seq,
//! layer id)`. The consumer is an incremental unsealer that verifies
//! every frame before trusting a byte of it, installs completed layers
//! through [`ProtectedImage::install_sealed_layer`], and degrades every
//! tamper class into a typed [`seda::SedaError`] — never a panic:
//!
//! * bit flips anywhere (header, frame metadata, ciphertext, MAC) →
//!   [`SedaError::Tag`] / [`StreamViolation`] variants,
//! * frame reorder or cross-stream splice → `OutOfOrder` / `Tag`,
//! * truncation → `Truncated` carrying how far verification got,
//! * replay of a stream sealed under a retired key epoch → `StaleEpoch`.
//!
//! A torn stream is resumable: the unsealer holds its chain state, so
//! pushing the remaining bytes continues cleanly from the last verified
//! block.
//!
//! [`measure`] is the timed provisioning path: it verifies and installs
//! the whole stream, then replays every layer's write-out as one run of
//! DRAM writes ([`seda_dram::DramSim::run_runs`]), reporting sustained
//! GB/s and the modelled replay cycles (`stream_bench` records both in
//! `BENCH_stream.json`). The per-block crypto dominates its wall-clock;
//! the replay is about 0.1% of it, so there is nothing for a second
//! thread to overlap.
//!
//! [`SedaError::Tag`]: seda::SedaError::Tag
//! [`StreamViolation`]: seda::error::StreamViolation
//! [`ProtectedImage::install_sealed_layer`]:
//!     seda_adversary::ProtectedImage::install_sealed_layer

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod seal;
pub mod unseal;

pub use frame::{header_len, FRAME_BYTES, MAGIC, MAX_LAYERS};
pub use seal::{model_lens, seal, SealedStream, StreamSpec};
pub use unseal::{measure, unseal, StreamUnsealer, UnsealRun, CHUNK_BYTES};

#[cfg(test)]
mod tests {
    use super::*;
    use seda::error::StreamViolation;
    use seda::SedaError;
    use seda_adversary::ProtectConfig;
    use seda_models::zoo;

    fn spec(lens: &[usize]) -> StreamSpec {
        StreamSpec {
            stream_id: 0x5EDA_0001,
            key_epoch: 1,
            config: ProtectConfig::matrix()[2],
            lens: lens.to_vec(),
            enc_key: [7; 16],
            mac_key: [8; 16],
            transport_key: [9; 16],
        }
    }

    fn payloads(lens: &[usize], salt: u8) -> Vec<Vec<u8>> {
        lens.iter()
            .map(|&len| {
                (0..len)
                    .map(|i| (i as u8).wrapping_mul(13) ^ salt)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn streamed_unseal_matches_at_rest_sealing_on_every_zoo_model() {
        // The acceptance headline: for every zoo model, a sealed stream
        // unseals into an image bit-identical to sealing the same
        // plaintext at rest through `write_layer`.
        for model in zoo::all_models() {
            let lens = model_lens(&model);
            let sp = spec(&lens);
            let plains = payloads(&lens, model.name().len() as u8);
            let stream = seal(&sp, &plains).expect("seal");
            let streamed = unseal(&sp, stream.bytes()).expect("unseal");
            let mut at_rest =
                seda_adversary::ProtectedImage::new(sp.config, &sp.lens, sp.enc_key, sp.mac_key)
                    .expect("image");
            for (layer, plain) in plains.iter().enumerate() {
                at_rest.write_layer(layer, plain).expect("write");
            }
            assert_eq!(
                streamed.offchip_bytes(),
                at_rest.offchip_bytes(),
                "{} ciphertext differs",
                model.name()
            );
            assert_eq!(
                streamed.model_root(),
                at_rest.model_root(),
                "{} root differs",
                model.name()
            );
            assert_eq!(
                streamed.read_model().expect("streamed verifies"),
                plains,
                "{} plaintext differs",
                model.name()
            );
        }
    }

    #[test]
    fn stale_epoch_replay_is_rejected_after_rotation() {
        let lens = [128usize, 64];
        let old = spec(&lens);
        let stream = seal(&old, &payloads(&lens, 1)).expect("seal");
        // The receiver rotated to epoch 2; the epoch-1 stream replays.
        let mut rotated = old.clone();
        rotated.key_epoch = 2;
        let err = unseal(&rotated, stream.bytes()).expect_err("stale stream");
        assert_eq!(
            err,
            SedaError::Stream(StreamViolation::StaleEpoch {
                stream: 1,
                current: 2
            })
        );
    }

    #[test]
    fn cross_stream_splice_is_rejected() {
        let lens = [128usize, 64];
        let sp = spec(&lens);
        let mut other = sp.clone();
        other.stream_id = 0x5EDA_0002;
        let a = seal(&sp, &payloads(&lens, 1)).expect("seal a");
        let b = seal(&other, &payloads(&lens, 2)).expect("seal b");
        // Splice a frame from stream B into stream A at the same seq:
        // the transport MAC binds the stream id, so it cannot verify.
        let mut spliced = a.clone();
        spliced.splice_frame_from(&b, 1);
        let err = unseal(&sp, spliced.bytes()).expect_err("splice detected");
        assert!(matches!(err, SedaError::Tag(_)), "{err:?}");
    }

    #[test]
    fn reordered_frames_are_rejected_in_order() {
        let lens = [256usize];
        let sp = spec(&lens);
        let mut stream = seal(&sp, &payloads(&lens, 3)).expect("seal");
        stream.swap_frames(1, 2);
        let err = unseal(&sp, stream.bytes()).expect_err("reorder detected");
        assert_eq!(
            err,
            SedaError::Stream(StreamViolation::OutOfOrder {
                expected: 1,
                got: 2
            })
        );
    }

    #[test]
    fn truncation_reports_verified_progress() {
        let lens = [128usize, 128];
        let sp = spec(&lens);
        let stream = seal(&sp, &payloads(&lens, 4)).expect("seal");
        // Keep the header and the first frame plus half of the second.
        let keep = header_len(lens.len()) + FRAME_BYTES + FRAME_BYTES / 2;
        let err = unseal(&sp, &stream.bytes()[..keep]).expect_err("torn stream");
        assert_eq!(
            err,
            SedaError::Stream(StreamViolation::Truncated {
                verified: 1,
                expected: 4
            })
        );
    }
}
