//! Tests pinning the paper's headline claims on reduced workload sets
//! (the full 13-workload sweep lives in the fig5/fig6 binaries and
//! EXPERIMENTS.md; these tests keep the claims from regressing).

use seda::experiment::{evaluations_of, lineup};
use seda::hw::{baes_cost, taes_cost};
use seda::scalesim::NpuConfig;
use seda_models::zoo;

#[test]
fn seda_overhead_is_near_zero_on_real_workloads() {
    // Claim (abstract): SeDA has near-zero traffic overhead and <1%
    // performance impact. LeNet is excluded: at ~20k total cycles it is
    // degenerately small and a single metadata line is visible.
    let models = vec![zoo::alexnet(), zoo::ncf()];
    let npus = [NpuConfig::server(), NpuConfig::edge()];
    for eval in evaluations_of(&lineup(&npus, &models).run()) {
        for w in &eval.workloads {
            let seda = w
                .outcomes
                .iter()
                .find(|o| o.scheme == "SeDA")
                .expect("SeDA present");
            assert!(
                seda.traffic_norm < 1.01,
                "{}/{}: SeDA traffic {}",
                eval.npu,
                w.workload,
                seda.traffic_norm
            );
            assert!(
                seda.perf_norm < 1.02,
                "{}/{}: SeDA perf {}",
                eval.npu,
                w.workload,
                seda.perf_norm
            );
        }
    }
}

#[test]
fn sgx64_overhead_is_around_thirty_percent() {
    // Claim (Fig. 5): SGX-64B adds ~30% (server) / ~28% (edge) traffic.
    let models = vec![zoo::alexnet(), zoo::ncf()];
    let npus = [NpuConfig::server(), NpuConfig::edge()];
    for eval in evaluations_of(&lineup(&npus, &models).run()) {
        for (scheme, t) in eval.mean_traffic() {
            if scheme == "SGX-64B" {
                assert!(
                    (1.24..1.40).contains(&t),
                    "{}: SGX-64B traffic {t}",
                    eval.npu
                );
            }
        }
    }
}

#[test]
fn mgx64_overhead_is_around_one_eighth() {
    // Claim (Fig. 5): MGX-64B ≈ +12.5% — the 8 B-per-64 B MAC ratio.
    let models = vec![zoo::alexnet()];
    let eval = &evaluations_of(&lineup(&[NpuConfig::server()], &models).run())[0];
    for (scheme, t) in eval.mean_traffic() {
        if scheme == "MGX-64B" {
            assert!((1.10..1.16).contains(&t), "MGX-64B traffic {t}");
        }
    }
}

#[test]
fn scheme_ordering_matches_figure_5() {
    let models = vec![zoo::alexnet(), zoo::ncf()];
    let npus = [NpuConfig::server(), NpuConfig::edge()];
    for eval in evaluations_of(&lineup(&npus, &models).run()) {
        let means: std::collections::HashMap<String, f64> =
            eval.mean_traffic().into_iter().collect();
        assert!(means["SGX-64B"] > means["SGX-512B"], "{}", eval.npu);
        assert!(means["SGX-512B"] > means["MGX-512B"], "{}", eval.npu);
        assert!(means["MGX-64B"] > means["MGX-512B"], "{}", eval.npu);
        assert!(means["MGX-512B"] > means["SeDA"], "{}", eval.npu);
    }
}

#[test]
fn performance_overheads_follow_traffic() {
    // Claim (Fig. 6): the performance ranking mirrors the traffic ranking,
    // with SeDA nearly indistinguishable from the baseline.
    let models = vec![zoo::alexnet(), zoo::ncf()];
    let eval = &evaluations_of(&lineup(&[NpuConfig::edge()], &models).run())[0];
    let means: std::collections::HashMap<String, f64> = eval.mean_perf().into_iter().collect();
    assert!(means["SGX-64B"] > means["MGX-64B"]);
    assert!(means["MGX-64B"] > means["MGX-512B"]);
    assert!(means["MGX-512B"] > means["SeDA"]);
    assert!(means["SeDA"] < 1.02);
}

#[test]
fn fig4_scaling_claims() {
    // Claim (Fig. 4): B-AES shows "minimal increases in area and power"
    // while T-AES scales linearly with bandwidth.
    let t16 = taes_cost(16);
    let t1 = taes_cost(1);
    assert!((t16.area_mm2 / t1.area_mm2 - 16.0).abs() < 1e-9);
    let b16 = baes_cost(16);
    let b1 = baes_cost(1);
    assert!(
        b16.area_mm2 / b1.area_mm2 < 3.0,
        "B-AES area grew {}x from 1x to 16x bandwidth",
        b16.area_mm2 / b1.area_mm2
    );
    assert!(t16.power_mw / b16.power_mw > 5.0);
}

#[test]
fn every_paper_workload_is_available() {
    // §IV-A lists 13 benchmarks; regressions here would silently shrink
    // the figures.
    assert_eq!(zoo::all_models().len(), 13);
}
