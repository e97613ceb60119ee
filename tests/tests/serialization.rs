//! JSON serialization round-trips for the result types written to disk:
//! `RunResult`s go into the `seda-checkpoint/v1` journal
//! (`seda_cli scenario run <name> --journal <path>`), and the other types
//! are the public serde surface of evaluations, models and traces.

use seda::experiment::{evaluations_of, lineup};
use seda::pipeline::run_model;
use seda_models::zoo;
use seda_protect::Unprotected;
use seda_scalesim::{simulate_model, NpuConfig, TilePlan};

#[test]
fn run_result_round_trips_through_json() {
    let npu = NpuConfig::edge();
    let r = run_model(&npu, &zoo::lenet(), &mut Unprotected::new());
    let json = serde_json::to_string(&r).expect("serializes");
    let back: seda::pipeline::RunResult = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(back.total_cycles, r.total_cycles);
    assert_eq!(back.traffic, r.traffic);
    assert_eq!(back.layers.len(), r.layers.len());
}

#[test]
fn evaluation_round_trips_through_json() {
    let eval = &evaluations_of(&lineup(&[NpuConfig::edge()], &[zoo::lenet()]).run())[0];
    let json = serde_json::to_string(eval).expect("serializes");
    let back: seda::experiment::Evaluation = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(back.npu, eval.npu);
    assert_eq!(back.workloads.len(), eval.workloads.len());
    // JSON prints floats with shortest-round-trip semantics; allow the
    // last-ulp wiggle serde_json's parser reintroduces.
    let a = back.workloads[0].outcomes[1].traffic_norm;
    let b = eval.workloads[0].outcomes[1].traffic_norm;
    assert!((a - b).abs() < 1e-12, "{a} vs {b}");
}

#[test]
fn model_and_plan_round_trip_through_json() {
    let model = zoo::mobilenet();
    let json = serde_json::to_string(&model).expect("model serializes");
    let back: seda_models::Model = serde_json::from_str(&json).expect("model deserializes");
    assert_eq!(back, model);

    let plan = seda_scalesim::plan_layer(&NpuConfig::edge(), &model.layers()[3]);
    let json = serde_json::to_string(&plan).expect("plan serializes");
    let back: TilePlan = serde_json::from_str(&json).expect("plan deserializes");
    assert_eq!(back, plan);
}

#[test]
fn npu_config_round_trips_through_json() {
    for cfg in [NpuConfig::server(), NpuConfig::edge()] {
        let json = serde_json::to_string(&cfg).expect("serializes");
        let back: NpuConfig = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, cfg);
    }
}

#[test]
fn model_sim_round_trips_without_address_map() {
    // The address map is runtime state and marked #[serde(skip)].
    let sim = simulate_model(&NpuConfig::edge(), &zoo::lenet());
    let json = serde_json::to_string(&sim).expect("serializes");
    let back: seda_scalesim::ModelSim = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(back.layers.len(), sim.layers.len());
    assert!(back.address_map.is_none());
}
