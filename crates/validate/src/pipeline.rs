//! Pipeline-level invariants: simulation results must not depend on *how*
//! they were computed.
//!
//! The sweep engine caches burst traces per (NPU, model) and runs points
//! on a thread pool; both are pure plumbing, so `run_trace` totals must be
//! bit-identical whether the trace was freshly simulated or cache-shared,
//! and whether the sweep ran serially or in parallel. A shared cache must
//! also actually share: a second sweep over the same points may not
//! re-simulate anything.

use crate::ensure;
use seda::pipeline::run_trace;
use seda::sweep::Sweep;
use seda_adversary::Rng;
use seda_models::{zoo, Model};
use seda_protect::{scheme_by_name, HashEngine};
use seda_scalesim::{NpuConfig, TraceCache};

/// The cheap end of the zoo — a case replays a full inference per scheme,
/// so the generator sticks to the two smallest workloads.
fn random_model(rng: &mut Rng) -> Model {
    if rng.coin(1, 2) {
        zoo::lenet()
    } else {
        zoo::dlrm()
    }
}

fn random_schemes(rng: &mut Rng) -> Vec<&'static str> {
    let pool = ["SGX-64B", "SGX-512B", "MGX-64B", "MGX-512B", "Securator"];
    let mut picked = vec!["baseline", "SeDA"];
    picked.push(pool[rng.below(pool.len() as u64) as usize]);
    picked
}

/// Digest of one run for exact comparison across execution strategies.
fn fingerprint(runs: &[seda::pipeline::RunResult]) -> Vec<(u64, u64, u64)> {
    runs.iter()
        .map(|r| (r.total_cycles, r.traffic.total(), r.dram.bytes()))
        .collect()
}

/// One randomized case over a (model, scheme set, repeats, verifier)
/// draw.
pub fn check_case(rng: &mut Rng) -> Result<(), String> {
    let npu = NpuConfig::edge();
    let model = random_model(rng);
    let schemes = random_schemes(rng);
    let repeats = rng.range(1, 2) as u32;
    let verifier = rng.coin(1, 2).then(|| HashEngine::new(32.0, 64));
    let ctx = format!(
        "model={} schemes={:?} repeats={repeats} verifier={}",
        model.name(),
        schemes,
        verifier.is_some()
    );

    // run_trace totals are invariant under TraceCache reuse: simulating
    // fresh and replaying the cached Arc must agree exactly.
    let cache = TraceCache::new();
    let sim_fresh = cache.get_or_simulate(&npu, &model);
    let sim_cached = cache.get_or_simulate(&npu, &model);
    ensure!(
        cache.misses() == 1 && cache.hits() == 1,
        "{ctx}: trace cache simulated {} times for two lookups",
        cache.misses()
    );
    for name in &schemes {
        let mut a = scheme_by_name(name).ok_or_else(|| format!("unknown scheme {name}"))?;
        let mut b = scheme_by_name(name).ok_or_else(|| format!("unknown scheme {name}"))?;
        let fresh = run_trace(&sim_fresh, &npu, a.as_mut(), verifier.as_ref(), repeats);
        let cached = run_trace(&sim_cached, &npu, b.as_mut(), verifier.as_ref(), repeats);
        ensure!(
            fingerprint(&fresh) == fingerprint(&cached),
            "{ctx}: {name} totals changed under trace-cache reuse"
        );
        ensure!(
            fresh.len() == repeats as usize,
            "{ctx}: {name} returned {} results for {repeats} repeats",
            fresh.len()
        );
    }

    // Sweep results are invariant under parallelism, point for point.
    // (Sweep holds boxed scheme builders, so rebuild it per execution.)
    let make_sweep = || {
        let mut sweep = Sweep::new()
            .npu(npu.clone())
            .model(model.clone())
            .schemes(schemes.iter().copied())
            .repeats(repeats);
        if let Some(v) = &verifier {
            sweep = sweep.verifier(*v);
        }
        sweep
    };
    let serial = make_sweep().serial().run();
    let parallel = make_sweep().threads(3).run();
    for (si, name) in schemes.iter().enumerate() {
        ensure!(
            fingerprint(serial.runs_at(0, 0, si)) == fingerprint(parallel.runs_at(0, 0, si)),
            "{ctx}: scheme {name} differs between serial and 3-thread sweeps"
        );
    }

    // A shared cache across sweeps must eliminate re-simulation entirely.
    let shared = TraceCache::new();
    let sweep = make_sweep();
    let first = sweep.run_with_cache(&shared);
    let second = sweep.run_with_cache(&shared);
    ensure!(
        first.stats.trace_misses == 1,
        "{ctx}: first sweep simulated {} traces for one (NPU, model) pair",
        first.stats.trace_misses
    );
    ensure!(
        second.stats.trace_misses == 0 && second.stats.trace_hits == schemes.len() as u64,
        "{ctx}: second sweep re-simulated ({} misses, {} hits)",
        second.stats.trace_misses,
        second.stats.trace_hits
    );
    for (si, name) in schemes.iter().enumerate() {
        ensure!(
            fingerprint(first.runs_at(0, 0, si)) == fingerprint(second.runs_at(0, 0, si)),
            "{ctx}: scheme {name} differs between first and second shared-cache sweeps"
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::{run_family, Family};

    #[test]
    fn pipeline_family_passes_fixed_seed() {
        let report = run_family(
            Family::Pipeline,
            0xD1FF_0005,
            Family::Pipeline.default_cases(),
        );
        assert!(report.passed(), "{report}");
    }
}
