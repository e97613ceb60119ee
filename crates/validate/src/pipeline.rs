//! Pipeline-level invariants: simulation results must not depend on *how*
//! they were computed.
//!
//! The sweep engine caches burst traces per (NPU, model) and runs points
//! on a thread pool; both are pure plumbing, so `run_trace` totals must be
//! bit-identical whether the trace was freshly simulated or cache-shared,
//! and whether the sweep ran serially or in parallel. A shared cache must
//! also actually share: a second sweep over the same points may not
//! re-simulate anything. The kernel replays each layer in bounded chunks,
//! which is plumbing too: its results must equal a replay of the whole
//! stored [`LoweredTrace`], one layer at a time.

use crate::ensure;
use seda::dram::{DramSim, RunBuf};
use seda::pipeline::{dram_config_for, run_trace, LayerTiming, LoweredTrace, RunResult};
use seda::sweep::Sweep;
use seda_adversary::Rng;
use seda_models::{zoo, Model};
use seda_protect::{scheme_by_name, HashEngine, ProtectionScheme};
use seda_scalesim::{ModelSim, NpuConfig, TraceCache};

/// The cheap end of the zoo — a case replays a full inference per scheme.
/// LeNet and DLRM never lower more than 3,123 runs per layer; AlexNet's
/// SGX layers reach 20,964, past the kernel's 4096-run chunk.
fn random_model(rng: &mut Rng) -> Model {
    match rng.below(3) {
        0 => zoo::lenet(),
        1 => zoo::dlrm(),
        _ => zoo::alexnet(),
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

/// `run_trace` rebuilt from the public API: each inference is lowered
/// whole into a [`LoweredTrace`], and each layer's runs replay at once
/// through one fresh `DramSim`.
fn replay_lowered(
    sim: &ModelSim,
    npu: &NpuConfig,
    scheme: &mut dyn ProtectionScheme,
    verifier: Option<&HashEngine>,
    repeats: u32,
) -> Vec<RunResult> {
    let mut dram = DramSim::new(dram_config_for(npu));
    let mem_clock = dram.config().clock_hz;
    let to_npu = |mem: u64| (mem as f64 / mem_clock * npu.clock_hz).ceil() as u64;
    let mut lowered = LoweredTrace::default();
    let mut results: Vec<RunResult> = Vec::new();
    for _ in 0..repeats {
        lowered.relower(sim, scheme);
        let mut layers = Vec::new();
        for (i, layer) in sim.layers.iter().enumerate() {
            let start = dram.elapsed_cycles();
            dram.run_runs(lowered.layer_runs(i));
            let memory_cycles = to_npu(dram.elapsed_cycles() - start);
            let mut cycles = layer.compute_cycles.max(memory_cycles);
            if let Some(engine) = verifier {
                let verify = engine.stream_cycles(lowered.layer_requests(i) * 64);
                cycles = cycles.max(verify) + engine.layer_check_exposure();
            }
            layers.push(LayerTiming {
                name: layer.name.clone(),
                compute_cycles: layer.compute_cycles,
                memory_cycles,
                cycles,
            });
        }
        results.push(RunResult {
            model: sim.model.clone(),
            npu: npu.name.clone(),
            clock_hz: npu.clock_hz,
            scheme: scheme.name().to_owned(),
            total_cycles: layers.iter().map(|l| l.cycles).sum(),
            layers,
            traffic: scheme.breakdown(),
            dram: *dram.stats(),
        });
    }
    let mut drain = RunBuf::new();
    scheme.finish(&mut |r| drain.push(r));
    let start = dram.elapsed_cycles();
    dram.run_runs(drain.runs());
    if let Some(last) = results.last_mut() {
        last.total_cycles += to_npu(dram.elapsed_cycles() - start);
        last.traffic = scheme.breakdown();
        last.dram = *dram.stats();
    }
    results
}

/// Names the first inference and layer where two runs differ.
fn first_difference(got: &[RunResult], want: &[RunResult]) -> String {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if let Some((l, (gl, wl))) = g
            .layers
            .iter()
            .zip(&w.layers)
            .enumerate()
            .find(|(_, (gl, wl))| gl != wl)
        {
            return format!("inference {i} layer {l}: {gl:?} vs {wl:?}");
        }
        if g != w {
            return format!(
                "inference {i}: total {} vs {}, dram {:?} vs {:?}",
                g.total_cycles, w.total_cycles, g.dram, w.dram
            );
        }
    }
    format!("{} vs {} inferences", got.len(), want.len())
}

/// One randomized case over a (model, scheme set, repeats, verifier)
/// draw. The verifier, when drawn, is either adequate or undersized; an
/// undersized one bounds every layer by its request count.
pub fn check_case(rng: &mut Rng) -> Result<(), String> {
    let npu = NpuConfig::edge();
    let model = random_model(rng);
    let schemes = random_schemes(rng);
    let repeats = rng.range(1, 2) as u32;
    let verifier = if rng.coin(1, 2) {
        let bytes_per_cycle = if rng.coin(1, 2) { 32.0 } else { 0.25 };
        Some(HashEngine::new(bytes_per_cycle, 64))
    } else {
        None
    };
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

        // The chunked kernel equals a whole-layer replay of the stored
        // trace: cycles, verifier bounds, traffic and DRAM stats.
        let mut c = scheme_by_name(name).ok_or_else(|| format!("unknown scheme {name}"))?;
        let lowered = replay_lowered(&sim_fresh, &npu, c.as_mut(), verifier.as_ref(), repeats);
        ensure!(
            fresh == lowered,
            "{ctx}: {name} run_trace differs from per-layer LoweredTrace replay at {}",
            first_difference(&fresh, &lowered)
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
