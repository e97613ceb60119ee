//! Golden-figure regression suite.
//!
//! The paper's headline aggregates — the Table III feature matrix and the
//! Fig. 5 (normalized traffic) / Fig. 6 (normalized runtime) numbers — are
//! pinned as fixtures under `tests/fixtures/` and compared **bit-for-bit**
//! against a fresh evaluation. The simulator is deterministic, so any
//! diff, down to a single cycle, means the model changed and the figures
//! it produces drifted.
//!
//! The fixtures cover a two-workload subset (LeNet + DLRM: one conv, one
//! GEMM workload) on both NPUs so the suite stays fast in debug builds;
//! the full 13-workload sweep exercises the same code paths.
//!
//! To bless an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p seda-integration-tests --test golden_figures
//! ```

use seda::experiment::{evaluations_of, lineup, Evaluation};
use seda::models::zoo;
use seda::protect::paper_lineup;
use seda::report::table3;
use seda::scalesim::NpuConfig;
use seda_integration_tests::golden::{check_golden, fixture_path, golden_figure_of, GoldenFigure};
use std::sync::OnceLock;

fn evaluations() -> &'static Vec<Evaluation> {
    static EVALS: OnceLock<Vec<Evaluation>> = OnceLock::new();
    EVALS.get_or_init(|| {
        let npus = [NpuConfig::server(), NpuConfig::edge()];
        let models = [zoo::lenet(), zoo::dlrm()];
        evaluations_of(&lineup(&npus, &models).run())
    })
}

fn golden_figure(
    figure: &str,
    mean_of: impl Fn(&Evaluation) -> Vec<(String, f64)>,
) -> GoldenFigure {
    golden_figure_of(evaluations(), figure, mean_of)
}

#[test]
fn table3_feature_matrix_matches_golden() {
    let infos: Vec<_> = paper_lineup().iter().map(|s| s.info()).collect();
    check_golden("table3.golden.txt", &table3(&infos));
}

#[test]
fn fig5_normalized_traffic_matches_golden() {
    let fig = golden_figure("fig5_normalized_traffic", Evaluation::mean_traffic);
    let json = serde_json::to_string_pretty(&fig).expect("golden figure serializes");
    check_golden("fig5_traffic.golden.json", &json);
}

#[test]
fn fig6_normalized_runtime_matches_golden() {
    let fig = golden_figure("fig6_normalized_runtime", Evaluation::mean_perf);
    let json = serde_json::to_string_pretty(&fig).expect("golden figure serializes");
    check_golden("fig6_perf.golden.json", &json);
}

/// Renders the Fig. 6 snapshot the pinned shape would produce under a
/// perturbed per-NPU DRAM configuration.
fn fig6_with_dram_map(
    map: impl Fn(&NpuConfig) -> seda_dram::DramConfig + Send + Sync + 'static,
) -> String {
    let npus = [NpuConfig::server(), NpuConfig::edge()];
    let models = [zoo::lenet(), zoo::dlrm()];
    let evals = evaluations_of(&lineup(&npus, &models).dram_map(map).run());
    let fig = golden_figure_of(&evals, "fig6_normalized_runtime", Evaluation::mean_perf);
    serde_json::to_string_pretty(&fig).expect("golden figure serializes")
}

#[test]
fn one_cycle_burst_perturbation_flips_the_fig6_comparison() {
    // The fixtures must pin the DRAM timing path, not just the compute
    // model: lengthening every data burst by a single memory cycle has to
    // produce a different Fig. 6 snapshot than the pinned one.
    let perturbed = fig6_with_dram_map(|npu| {
        let mut cfg = seda::pipeline::dram_config_for(npu);
        cfg.t_bl += 1;
        cfg
    });
    let pinned = std::fs::read_to_string(fixture_path("fig6_perf.golden.json"))
        .expect("fixture exists (bless with UPDATE_GOLDEN=1)");
    assert_ne!(
        perturbed, pinned,
        "a one-cycle t_bl perturbation must change the golden snapshot"
    );
}

#[test]
fn one_cycle_refresh_window_perturbation_flips_the_fig6_comparison() {
    let perturbed = fig6_with_dram_map(|npu| {
        let mut cfg = seda::pipeline::dram_config_for(npu);
        cfg.t_rfc += 1;
        cfg
    });
    let pinned = std::fs::read_to_string(fixture_path("fig6_perf.golden.json"))
        .expect("fixture exists (bless with UPDATE_GOLDEN=1)");
    assert_ne!(
        perturbed, pinned,
        "a one-cycle refresh-window perturbation must change the golden snapshot"
    );
}

#[test]
fn unperturbed_dram_map_reproduces_the_pinned_fig6() {
    // Control for the two sensitivity tests above: the same override
    // path with the *unmodified* configuration must land exactly on the
    // fixture, so the flips can only come from the perturbations.
    let same = fig6_with_dram_map(seda::pipeline::dram_config_for);
    let pinned = std::fs::read_to_string(fixture_path("fig6_perf.golden.json"))
        .expect("fixture exists (bless with UPDATE_GOLDEN=1)");
    assert_eq!(
        same, pinned,
        "the dram_map override path must be bit-identical to the default path"
    );
}

#[test]
fn golden_compare_detects_a_one_cycle_perturbation() {
    // Sensitivity self-test: the fixture comparison must catch the
    // smallest possible drift — one cycle on one point.
    let mut fig = golden_figure("fig6_normalized_runtime", Evaluation::mean_perf);
    fig.points[0].total_cycles += 1;
    let perturbed = serde_json::to_string_pretty(&fig).expect("golden figure serializes");
    let pinned = std::fs::read_to_string(fixture_path("fig6_perf.golden.json"))
        .expect("fixture exists (bless with UPDATE_GOLDEN=1)");
    assert_ne!(
        perturbed, pinned,
        "a one-cycle perturbation must change the golden snapshot"
    );
}
