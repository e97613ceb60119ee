//! End-to-end telemetry: install the shared sink once, drive the crypto,
//! sweep and sealed-stream paths, and check that every instrumented
//! subsystem shows up in the snapshot (the flow `seda_cli --telemetry
//! out.json quickstart` ships) and every emitted name is documented.
//!
//! The global sink can be installed only once per process, so this file
//! holds a single test.

use seda::functional::{run_protected, run_reference};
use seda::models::zoo;
use seda::scalesim::NpuConfig;
use seda::sweep::Sweep;
use seda::telemetry;
use seda_adversary::ProtectConfig;
use seda_stream::{seal, unseal, StreamSpec};
use std::collections::BTreeSet;

/// Every metric named in the first column of DESIGN.md's "Metric
/// registry" table, with `prefix.{a,b}` expanded to `prefix.a`, `prefix.b`.
fn documented_metrics() -> BTreeSet<String> {
    let design = include_str!("../../DESIGN.md");
    let after = design.split("Metric registry").nth(1);
    let table = after
        .and_then(|t| t.split("\n\n").nth(1))
        .expect("a metric registry table");
    let mut names = BTreeSet::new();
    for row in table.lines() {
        let first = row.split('|').nth(1).unwrap_or("");
        for name in first.split('`').skip(1).step_by(2) {
            let braces = name
                .split_once('{')
                .and_then(|(p, r)| Some((p, r.split_once('}')?)));
            names.extend(match braces {
                Some((prefix, (alts, suffix))) => alts
                    .split(',')
                    .map(|a| format!("{prefix}{a}{suffix}"))
                    .collect(),
                None => vec![name.to_owned()],
            });
        }
    }
    names
}

#[test]
fn every_instrumented_subsystem_reports_through_the_shared_sink() {
    let sink = telemetry::install_shared().expect("first and only install in this process");

    // Functional path: AES/OTP/MAC counters.
    let model = zoo::lenet();
    let input: Vec<u8> = (0..32 * 32).map(|i| (i % 23) as u8).collect();
    let reference = run_reference(&model, &input);
    let protected = run_protected(&model, &input, |_| {}).expect("honest run verifies");
    assert_eq!(protected, reference);

    // Timing path: trace cache, DRAM flush, metadata caches, sweep span.
    let results = Sweep::new()
        .npu(NpuConfig::edge())
        .model(zoo::lenet())
        .schemes(["baseline", "SGX-64B", "SeDA"])
        .run();
    assert_eq!(results.stats.trace_misses, 1);

    // Provisioning path: seal and unseal a small two-layer stream.
    let spec = StreamSpec {
        stream_id: 0xFEED,
        key_epoch: 1,
        config: ProtectConfig::matrix()[2],
        lens: vec![128, 64],
        enc_key: [1; 16],
        mac_key: [2; 16],
        transport_key: [3; 16],
    };
    let sealed = seal(&spec, &[vec![0x11; 128], vec![0x22; 64]]).expect("seal");
    unseal(&spec, sealed.bytes()).expect("an honest stream unseals");

    let snap = sink.snapshot();
    for counter in [
        "crypto.aes.block_evals",
        "crypto.otp.baes.base_evals",
        "protect.mac_cache.hits",
        "protect.mac_cache.misses",
        "dram.reads",
        "dram.bus_busy_cycles",
        "scalesim.trace_cache.misses",
        "pipeline.inferences",
        "sweep.points.ok",
        "stream.blocks_sealed",
        "stream.unseals_completed",
    ] {
        assert!(
            snap.counter(counter).unwrap_or(0) > 0,
            "counter {counter} must be nonzero after the end-to-end run"
        );
    }
    for histogram in [
        "dram.bank_occupancy_cycles",
        "pipeline.layer_cycles",
        "sweep.point_ns",
    ] {
        assert!(
            snap.histogram(histogram).map(|h| h.count).unwrap_or(0) > 0,
            "histogram {histogram} must have samples after the end-to-end run"
        );
    }

    // Every emitted name is documented; the registry is kept by hand.
    let documented = documented_metrics();
    let counters = snap.counters.iter().map(|(name, _)| name);
    let emitted = counters.chain(snap.histograms.iter().map(|(name, _)| name));
    let missing: Vec<&String> = emitted.filter(|n| !documented.contains(*n)).collect();
    assert!(
        missing.is_empty(),
        "metrics missing from DESIGN.md's metric registry: {missing:?}"
    );

    // The JSON export carries the stable schema tag and the two
    // top-level maps of the seda-telemetry/v1 schema.
    let json = snap.to_json();
    assert!(json.starts_with("{\n"));
    assert!(json.contains("\"schema\": \"seda-telemetry/v1\""));
    assert!(json.contains("\"counters\": {"));
    assert!(json.contains("\"histograms\": {"));
}
