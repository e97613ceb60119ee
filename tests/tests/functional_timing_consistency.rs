//! Consistency checks between the functional (value-level) and timing
//! (trace-level) views of the same secure accelerator.

use seda::functional::{run_protected, run_reference, synthetic_weights, SecureMemory};
use seda_adversary::{ProtectConfig, ProtectedImage, BLOCK};
use seda_models::zoo;
use seda_scalesim::{simulate_model, AddressMap, NpuConfig, TensorKind};

#[test]
fn timing_trace_addresses_fit_the_functional_memory() {
    // Every address the timing simulator's bursts touch must lie inside
    // the address map the functional memory is sized from.
    let model = zoo::lenet();
    let map = AddressMap::new(&model);
    for cfg in [NpuConfig::server(), NpuConfig::edge()] {
        let sim = simulate_model(&cfg, &model);
        for layer in &sim.layers {
            for b in &layer.bursts {
                assert!(
                    b.end() <= map.total_bytes(),
                    "burst {:?} escapes the protected region",
                    b
                );
            }
        }
    }
}

#[test]
fn functional_weights_match_sealed_weights() {
    // The functional simulator and the at-rest image must agree on the
    // synthetic weights for each layer (same generator, same sizes).
    let model = zoo::lenet();
    let weights: Vec<Vec<u8>> = model
        .layers()
        .iter()
        .enumerate()
        .map(|(idx, layer)| synthetic_weights(idx as u32, layer.filter_bytes()))
        .collect();
    let lens: Vec<usize> = weights
        .iter()
        .map(|w| w.len().div_ceil(BLOCK) * BLOCK)
        .collect();
    let config = ProtectConfig::by_name("layer-mac").expect("matrix config");
    let mut image = ProtectedImage::new(config, &lens, [0x2b; 16], [0x7e; 16]).expect("ok");
    for (idx, w) in weights.iter().enumerate() {
        let mut region = w.clone();
        region.resize(lens[idx], 0);
        image.write_layer(idx, &region).expect("layer fits");
    }
    let unsealed = image.read_model().expect("an honest image verifies");
    for (idx, expected) in weights.iter().enumerate() {
        assert_eq!(
            &unsealed[idx][..expected.len()],
            &expected[..],
            "layer {idx} weights diverge"
        );
    }
}

#[test]
fn functional_inference_is_deterministic() {
    let model = zoo::lenet();
    let input: Vec<u8> = (0..32 * 32).map(|i| (i % 31) as u8).collect();
    let a = run_protected(&model, &input, |_| {}).expect("verifies");
    let b = run_protected(&model, &input, |_| {}).expect("verifies");
    assert_eq!(a, b);
    assert_eq!(a, run_reference(&model, &input));
}

#[test]
fn every_weight_region_is_tamper_sensitive() {
    // Flip a bit in each layer's weights in turn; each run must abort
    // with the violation localized to that layer.
    let model = zoo::lenet();
    let map = AddressMap::new(&model);
    let input: Vec<u8> = vec![3; 32 * 32];
    for (idx, _) in model.layers().iter().enumerate() {
        let addr = map.weights(idx) as usize;
        let err = run_protected(&model, &input, |mem| {
            mem.raw_mut()[addr] ^= 0x40;
        })
        .expect_err("tamper must be detected");
        let v = err.integrity().expect("tamper surfaces as Integrity");
        assert_eq!(v.layer, idx as u32, "violation localized to layer {idx}");
        assert_eq!(v.tensor, TensorKind::Filter);
    }
}

#[test]
fn secure_memory_rejects_wrong_layer_binding() {
    // Reading a region back with the wrong layer id (as a confused deputy
    // would) must fail even though address, VN, and data are untouched.
    let mut mem = SecureMemory::new(4096, [1; 16], [2; 16]);
    let data = vec![0x5a; 512];
    let mac = mem
        .write_region(0, 3, 7, TensorKind::Ofmap, &data)
        .expect("region fits");
    assert!(mem
        .read_region(0, 3, 7, TensorKind::Ofmap, 512, mac)
        .is_ok());
    assert!(
        mem.read_region(0, 3, 8, TensorKind::Ofmap, 512, mac)
            .is_err(),
        "layer id is bound into the MACs"
    );
    assert!(
        mem.read_region(0, 3, 7, TensorKind::Ifmap, 512, mac)
            .is_err(),
        "tensor kind is bound into the MACs"
    );
}
