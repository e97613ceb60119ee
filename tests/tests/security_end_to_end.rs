//! End-to-end security tests crossing the crypto, protection, and attack
//! layers: the full write-path/read-path lifecycle of protected tensors,
//! plus both paper attacks mounted against the real cipher and MACs.

use seda::attacks::seca::{mount_seca, sparse_block};
use seda_adversary::{ProtectConfig, ProtectedImage, BLOCK};
use seda_crypto::ctr::CounterSeed;
use seda_crypto::mac::{BlockPosition, MacTag, PositionBoundMac, XorAccumulator};
use seda_crypto::otp::{BandwidthAwareOtp, OtpStrategy, SharedOtp, TraditionalOtp};

#[test]
fn full_tensor_lifecycle_roundtrips() {
    // Encrypt a multi-block tensor, build a layer MAC, verify, decrypt.
    let enc = BandwidthAwareOtp::new([3u8; 16]);
    let mac = PositionBoundMac::new([4u8; 16]);
    let tensor: Vec<u8> = (0..4096).map(|i| (i % 253) as u8).collect();
    let base_pa = 0x10_0000u64;

    let mut cipher = tensor.clone();
    let mut layer_mac = XorAccumulator::new();
    for (i, chunk) in cipher.chunks_mut(64).enumerate() {
        let pa = base_pa + (i * 64) as u64;
        enc.apply(CounterSeed::new(pa, 0), chunk);
        layer_mac.add(mac.tag(chunk, pa, 0, BlockPosition::new(0, 0, i as u32)));
    }
    assert_ne!(cipher, tensor);

    // Read path.
    let mut check = XorAccumulator::new();
    let mut plain = cipher.clone();
    for (i, chunk) in plain.chunks_mut(64).enumerate() {
        let pa = base_pa + (i * 64) as u64;
        check.add(mac.tag(chunk, pa, 0, BlockPosition::new(0, 0, i as u32)));
        enc.apply(CounterSeed::new(pa, 0), chunk);
    }
    assert!(check.verify(layer_mac.value()));
    assert_eq!(plain, tensor);
}

#[test]
fn version_bump_invalidates_stale_ciphertext() {
    // Replay protection: data encrypted under VN=0 must not decrypt under
    // VN=1 (the on-chip VN after a legitimate overwrite).
    let enc = BandwidthAwareOtp::new([3u8; 16]);
    let msg = *b"fresh activations from layer 12, version zero...";
    let mut stale = msg.to_vec();
    enc.apply(CounterSeed::new(0x9000, 0), &mut stale);
    // Verifier decrypts with the current VN = 1.
    enc.apply(CounterSeed::new(0x9000, 1), &mut stale);
    assert_ne!(
        &stale[..],
        &msg[..],
        "replayed data must decrypt to garbage"
    );
}

#[test]
fn seca_outcome_matrix() {
    // The attack succeeds iff pads are shared, independent of sparsity.
    let seed = CounterSeed::new(0x7700, 9);
    for sparsity in [0.2, 0.5, 0.8] {
        let pt = sparse_block(64, sparsity, 1234);
        assert!(
            mount_seca(&SharedOtp::new([9u8; 16]), seed, &pt, [0u8; 16]).success,
            "shared OTP must break at sparsity {sparsity}"
        );
        assert!(
            !mount_seca(&BandwidthAwareOtp::new([9u8; 16]), seed, &pt, [0u8; 16]).success,
            "B-AES must hold at sparsity {sparsity}"
        );
        assert!(
            !mount_seca(&TraditionalOtp::new([9u8; 16]), seed, &pt, [0u8; 16]).success,
            "T-AES must hold at sparsity {sparsity}"
        );
    }
}

#[test]
fn baes_and_taes_agree_on_security_but_not_cost() {
    // Equal security outcome, an order of magnitude apart in engine work.
    let baes = BandwidthAwareOtp::new([5u8; 16]);
    let taes = TraditionalOtp::new([5u8; 16]);
    let segments = 32; // 512 B block
    assert!(baes.aes_evaluations(segments) * 8 <= taes.aes_evaluations(segments));
}

/// Seals `pt` as a one-layer image under the named matrix configuration,
/// swaps blocks `(2i, 2i+1)` (Algorithm 2's SHUFFLEORDER), and returns
/// the share of plaintext bytes intact if the layer still verifies.
fn repa_intact_share(config: &str, pt: &[u8]) -> Option<f64> {
    let config = ProtectConfig::by_name(config).expect("matrix config");
    let mut image = ProtectedImage::new(config, &[pt.len()], [0x5e; 16], [0xda; 16]).expect("ok");
    image.write_layer(0, pt).expect("layer fits");
    for i in 0..image.blocks_in(0) / 2 {
        image.swap_blocks(0, 2 * i, 0, 2 * i + 1);
    }
    let read = image.read_layer(0).ok()?;
    let same = read.iter().zip(pt).filter(|(a, b)| a == b).count();
    Some(same as f64 / pt.len() as f64)
}

#[test]
fn repa_matrix_over_block_sizes() {
    // The image has one optBlk size (64 B); the attack is swept over the
    // number of blocks in the shuffled layer instead.
    for blocks in [2usize, 8, 64] {
        let pt: Vec<u8> = (0..BLOCK * blocks).map(|i| (i % 251) as u8).collect();
        let weak = repa_intact_share("layer-ct", &pt);
        assert!(
            weak.is_some_and(|share| share < 0.5),
            "RePA must break positionless MACs over {blocks} blocks: {weak:?}"
        );
        assert_eq!(
            repa_intact_share("layer-mac", &pt),
            None,
            "position binding must hold over {blocks} blocks"
        );
    }
}

#[test]
fn distinct_layers_produce_distinct_layer_macs() {
    // The same data sealed as layer 0 and layer 1 must not share a MAC —
    // otherwise whole layers could be transplanted. Equal layer MACs
    // would cancel in the XOR-folded model root.
    let pt: Vec<u8> = vec![0x77; 512];
    let config = ProtectConfig::by_name("layer-mac").expect("matrix config");
    let mut image = ProtectedImage::new(config, &[512, 512], [3; 16], [4; 16]).expect("ok");
    image.write_layer(0, &pt).expect("layer fits");
    image.write_layer(1, &pt).expect("layer fits");
    assert_ne!(image.model_root(), MacTag(0));
    // And the transplant itself is caught.
    for blk in 0..image.blocks_in(0) {
        image.swap_blocks(0, blk, 1, blk);
    }
    assert!(image.read_model().is_err(), "layer transplant must fail");
}
