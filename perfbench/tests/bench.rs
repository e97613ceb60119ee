//! The benchmark's own tests: seeded inputs, small-size runs of every
//! workload, and the metric names against `BENCHMARK.json`.

use seda_perfbench::{provision, run, Options, Report, Size, END_TO_END, PER_LAYER, WORKLOADS};
use serde::Deserialize;

#[derive(Deserialize)]
struct Workload {
    name: String,
    why: String,
}

#[derive(Deserialize)]
struct Metric {
    name: String,
    unit: String,
    better: String,
}

#[derive(Deserialize)]
struct Benchmark {
    workloads: Vec<Workload>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

fn benchmark_json() -> Benchmark {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn small_run(workload: &str, seed: u64, trace: bool) -> Report {
    run(Options {
        workload: workload.to_owned(),
        seed,
        seconds: 0.0,
        trace,
        size: Size::Small,
    })
    .expect("the small run sets up")
}

fn assert_passes(report: &Report) {
    let o = &report.options;
    assert!(report.tally.attempted > 0, "{} ran no checks", o.workload);
    assert_eq!(
        report.tally.failed, 0,
        "{} (seed {}, trace {}) failed checks",
        o.workload, o.seed, o.trace
    );
}

#[test]
fn a_seed_always_produces_the_same_inputs() {
    let a = provision::setup(7, Size::Small).expect("setup");
    let b = provision::setup(7, Size::Small).expect("setup");
    assert_eq!(a.stream.bytes(), b.stream.bytes());
    assert_eq!(a.tampered.bytes(), b.tampered.bytes());
    assert_eq!(a.payloads, b.payloads);
    assert_eq!(a.scenario, b.scenario);
}

#[test]
fn another_seed_produces_other_inputs_of_the_same_size() {
    let a = provision::setup(7, Size::Small).expect("setup");
    let b = provision::setup(8, Size::Small).expect("setup");
    assert_ne!(a.stream.bytes(), b.stream.bytes());
    assert_ne!(a.payloads, b.payloads);
    assert_ne!(a.spec.stream_id, b.spec.stream_id);
    assert_ne!(a.scenario.serving, b.scenario.serving);
    // Same geometry and load: only the contents differ.
    assert_eq!(a.stream.len(), b.stream.len());
    assert_eq!(a.spec.lens, b.spec.lens);
}

#[test]
fn small_untraced_runs_pass_their_checks() {
    for workload in WORKLOADS {
        assert_passes(&small_run(workload, 1, false));
    }
}

#[test]
fn small_traced_runs_pass_their_checks() {
    for workload in WORKLOADS {
        let report = small_run(workload, 1, true);
        assert_passes(&report);
        assert!(report.metrics["trace.wall_s"] > 0.0);
    }
}

#[test]
fn an_unpinned_seed_still_passes_every_check() {
    // Seed 3 has no pinned outputs: the checks rely on the independent
    // at-rest sealing, the tamper refusal and the serving invariants.
    assert_passes(&small_run("provision-serve", 3, false));
    assert_passes(&small_run("provision-serve", 3, true));
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let bench = benchmark_json();
    let names = |m: &[Metric]| {
        m.iter()
            .map(|m| (m.name.clone(), m.unit.clone()))
            .collect::<Vec<_>>()
    };
    let table = |t: &[(&str, &str)]| {
        t.iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect::<Vec<_>>()
    };
    assert_eq!(names(&bench.end_to_end), table(&END_TO_END));
    assert_eq!(names(&bench.per_layer), table(&PER_LAYER));
    let workloads: Vec<&str> = bench.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(workloads, WORKLOADS);
    assert!(bench.workloads.iter().all(|w| !w.why.is_empty()));
    assert!(bench
        .end_to_end
        .iter()
        .chain(&bench.per_layer)
        .all(|m| m.better == "lower" || m.better == "higher"));

    // The result line carries exactly the declared metrics.
    for trace in [false, true] {
        let report = small_run("decode-steady", 1, trace);
        let line = report.json();
        let declared = if trace {
            &bench.per_layer
        } else {
            &bench.end_to_end
        };
        for m in declared {
            assert!(
                line.contains(&format!("\"{}\": {{\"value\": ", m.name)),
                "{} missing from {line}",
                m.name
            );
        }
        assert_eq!(line.matches("\"unit\"").count(), declared.len());
    }
}
