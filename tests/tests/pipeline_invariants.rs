//! Cross-crate integration tests: invariants of the full
//! model → scalesim → protection → DRAM pipeline.

use seda::pipeline::run_model;
use seda::protect::{
    BlockMacKind, BlockMacScheme, LayerMacStore, ProtectionScheme, SedaScheme, Unprotected,
    PROTECTED_BYTES,
};
use seda::scalesim::NpuConfig;
use seda_models::zoo;

fn schemes() -> Vec<Box<dyn ProtectionScheme>> {
    seda::protect::paper_lineup()
}

#[test]
fn every_scheme_preserves_demand_traffic() {
    // Protection may add metadata and overfetch, but the demand bytes the
    // accelerator asked for must be identical across schemes.
    let npu = NpuConfig::edge();
    let model = zoo::lenet();
    let mut demands = Vec::new();
    for mut s in schemes() {
        let r = run_model(&npu, &model, s.as_mut());
        demands.push((r.scheme.clone(), r.traffic.demand()));
    }
    let (first_name, first) = &demands[0];
    for (name, d) in &demands {
        assert_eq!(d, first, "{name} demand differs from {first_name}");
    }
}

#[test]
fn traffic_ordering_holds_on_both_npus() {
    for npu in [NpuConfig::server(), NpuConfig::edge()] {
        for model in [zoo::lenet(), zoo::ncf()] {
            let mut totals = std::collections::HashMap::new();
            for mut s in schemes() {
                let r = run_model(&npu, &model, s.as_mut());
                totals.insert(r.scheme.clone(), r.traffic.total());
            }
            let t = |n: &str| totals[n];
            assert!(t("SGX-64B") > t("MGX-64B"), "{}/{}", npu.name, model.name());
            assert!(
                t("SGX-512B") > t("MGX-512B"),
                "{}/{}",
                npu.name,
                model.name()
            );
            assert!(t("MGX-64B") > t("SeDA"), "{}/{}", npu.name, model.name());
            assert!(t("SeDA") >= t("baseline"), "{}/{}", npu.name, model.name());
        }
    }
}

#[test]
fn dram_accesses_match_traffic_bytes() {
    // Every request is a 64 B line, so the DRAM access count must equal
    // the scheme's byte tally divided by 64 exactly.
    let npu = NpuConfig::edge();
    let model = zoo::dlrm();
    for mut s in schemes() {
        let r = run_model(&npu, &model, s.as_mut());
        assert_eq!(
            r.dram.accesses() * 64,
            r.traffic.total(),
            "{}: DRAM accesses disagree with the traffic tally",
            r.scheme
        );
    }
}

#[test]
fn runtime_is_bounded_by_compute_and_memory() {
    let npu = NpuConfig::server();
    let model = zoo::alexnet();
    let r = run_model(&npu, &model, &mut Unprotected::new());
    for l in &r.layers {
        assert_eq!(
            l.cycles,
            l.compute_cycles.max(l.memory_cycles),
            "{}",
            l.name
        );
    }
}

#[test]
fn seda_matches_baseline_request_count_plus_layer_macs() {
    let npu = NpuConfig::edge();
    let model = zoo::lenet();
    let base = run_model(&npu, &model, &mut Unprotected::new());
    let seda = run_model(
        &npu,
        &model,
        &mut SedaScheme::new(LayerMacStore::OffChip, PROTECTED_BYTES),
    );
    let layer_lines = 2 * model.layers().len() as u64;
    assert_eq!(
        seda.dram.accesses(),
        base.dram.accesses() + layer_lines,
        "SeDA must add exactly one layer-MAC line read + write per layer"
    );
}

#[test]
fn granularity_monotonically_reduces_mac_metadata() {
    let npu = NpuConfig::edge();
    let model = zoo::alexnet();
    let mut last = u64::MAX;
    for g in [64u64, 128, 256, 512] {
        let mut s = BlockMacScheme::new(BlockMacKind::Mgx, g, PROTECTED_BYTES);
        let r = run_model(&npu, &model, &mut s);
        let mac = r.traffic.mac_read + r.traffic.mac_write;
        assert!(
            mac < last,
            "MAC bytes must shrink with granularity at g={g}"
        );
        last = mac;
    }
}

#[test]
fn results_are_deterministic() {
    let npu = NpuConfig::edge();
    let model = zoo::ncf();
    let r1 = run_model(
        &npu,
        &model,
        &mut BlockMacScheme::new(BlockMacKind::Sgx, 64, PROTECTED_BYTES),
    );
    let r2 = run_model(
        &npu,
        &model,
        &mut BlockMacScheme::new(BlockMacKind::Sgx, 64, PROTECTED_BYTES),
    );
    assert_eq!(r1.total_cycles, r2.total_cycles);
    assert_eq!(r1.traffic, r2.traffic);
    assert_eq!(r1.dram, r2.dram);
}

#[test]
fn sixteen_gb_protected_region_layout_is_respected() {
    // Metadata addresses must land above the data region, below 2x the
    // protected size (the SeDA layer-MAC base).
    let npu = NpuConfig::edge();
    let model = zoo::lenet();
    let mut sgx = BlockMacScheme::new(BlockMacKind::Sgx, 64, PROTECTED_BYTES);
    let sim = seda::scalesim::simulate_model(&npu, &model);
    let lowered = seda::pipeline::LoweredTrace::lower(&sim, &mut sgx);
    let mut seen_meta = false;
    for req in lowered
        .requests()
        .iter()
        .map(|&p| seda::dram::Request::unpack(p))
    {
        if req.addr >= PROTECTED_BYTES {
            seen_meta = true;
            assert!(req.addr < 2 * PROTECTED_BYTES, "metadata beyond layout");
        }
    }
    assert!(seen_meta, "SGX must touch metadata addresses");
}
