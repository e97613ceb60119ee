//! End-to-end secure-NPU pipeline: model → accelerator simulation →
//! protection-scheme trace transformation → DRAM timing.
//!
//! This is the evaluation flow of §IV-A: SCALE-Sim-style burst traces are
//! rewritten by a memory-protection scheme and replayed through the DRAM
//! simulator; per-layer runtime is the maximum of compute and memory time
//! under double buffering.
//!
//! There are three entry points and one kernel. [`try_run_trace`] is the
//! kernel: single runs, verifier-modelled runs, repeated steady-state
//! runs and DRAM-override runs are the same loop with different
//! arguments. [`run_trace`] is its infallible form with the NPU's default
//! DRAM configuration, and [`run_model`] simulates the trace itself for a
//! single cold inference. The kernel consumes a pre-simulated trace
//! (`&ModelSim`), so callers that evaluate many schemes over the same
//! (NPU, model) pair — the [`Sweep`] engine, notably — share one
//! simulation via [`seda_scalesim::TraceCache`].
//!
//! The kernel streams each layer in bounded chunks: it lowers the
//! layer's bursts one by one into one reused [`RunBuf`] and replays the
//! buffer with [`DramSim::run_runs`] whenever it holds 4096 runs, then
//! once more at the layer's end. [`LoweredTrace`] stores a whole
//! inference instead, one buffer per layer, for benchmarks and
//! differential checks.
//!
//! [`Sweep`]: crate::sweep::Sweep

use crate::error::SedaError;
use seda_dram::run::expand;
use seda_dram::{DramConfig, DramSim, DramStats, Run, RunBuf};
use seda_models::Model;
use seda_protect::{HashEngine, ProtectionScheme, TrafficBreakdown};
use seda_scalesim::{simulate_model, LayerSim, ModelSim, NpuConfig};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// The DRAM configuration the pipeline derives for an accelerator:
/// DDR4 timing with the NPU's channel count and aggregate bandwidth.
///
/// Exposed so callers that need a perturbed memory system — the
/// golden-figure sensitivity self-tests, ablation sweeps — can start from
/// the exact configuration the default pipeline would use and hand the
/// modified copy to [`try_run_trace`] or
/// [`Sweep::dram_map`](crate::sweep::Sweep::dram_map).
pub fn dram_config_for(npu: &NpuConfig) -> DramConfig {
    DramConfig::ddr4_with_bandwidth(npu.dram_channels, npu.dram_bandwidth)
}

/// A scheme-rewritten request stream, lowered once and stored run-encoded,
/// one [`RunBuf`] per layer — the stored form for benchmarks, differential
/// checks and tests; [`run_trace`] never holds even a whole layer.
///
/// Each layer's bursts go through the scheme in the order [`try_run_trace`]
/// lowers them, into the layer's own buffer, so no run crosses a layer
/// boundary. The kernel may also cut a run where it replays a chunk;
/// [`DramSim::run_runs`] replays any split of a stream identically, so
/// replaying each layer's runs here gives the kernel's result.
/// A DNN's tensor walks are long sequential runs, so the run list is far
/// smaller than the per-line stream (on the paper's sweep, 6.8 M runs
/// stand for 118 M lines) and [`DramSim::run_runs`] replays each layer's
/// runs straight into the streak kernel, without expanding them.
///
/// [`LoweredTrace::layer`] and [`LoweredTrace::requests`] give the same
/// stream as a per-line *packed* view ([`Request::pack`]:
/// `(block << 1) | is_write`), the form [`DramSim::run_batch_packed`]
/// replays. Lowering only stores runs; that view is expanded from them
/// on first use.
///
/// # Examples
///
/// ```
/// use seda::pipeline::LoweredTrace;
/// use seda_dram::Request;
/// use seda_models::zoo;
/// use seda_protect::Unprotected;
/// use seda_scalesim::{simulate_model, NpuConfig};
///
/// let npu = NpuConfig::edge();
/// let sim = simulate_model(&npu, &zoo::lenet());
/// let lowered = LoweredTrace::lower(&sim, &mut Unprotected::new());
/// assert_eq!(lowered.layers(), sim.layers.len());
/// assert!(!lowered.requests().is_empty());
/// // Runs stand for many lines each.
/// assert!((lowered.layer_runs(0).len() as u64) < lowered.layer_requests(0));
/// // Each packed word unpacks to the original (block-aligned) request.
/// let first = Request::unpack(lowered.requests()[0]);
/// assert_eq!(first.addr % 64, 0);
/// ```
///
/// [`Request::pack`]: seda_dram::Request::pack
#[derive(Debug, Clone, Default)]
pub struct LoweredTrace {
    /// The run-encoded stream of each layer, in execution order.
    layers: Vec<RunBuf>,
    /// The expanded per-line packed view, built on first use.
    packed: OnceLock<Vec<u64>>,
}

impl LoweredTrace {
    /// Lowers `sim`'s burst trace through `scheme` into a fresh buffer.
    pub fn lower(sim: &ModelSim, scheme: &mut dyn ProtectionScheme) -> Self {
        let mut lowered = Self::default();
        lowered.relower(sim, scheme);
        lowered
    }

    /// Re-lowers into the existing layer buffers, reusing their
    /// allocations: scheme state advances, so this is the next
    /// inference's stream, and the per-line view is dropped.
    pub fn relower(&mut self, sim: &ModelSim, scheme: &mut dyn ProtectionScheme) {
        self.packed.take();
        self.layers.resize_with(sim.layers.len(), RunBuf::default);
        for (layer, out) in sim.layers.iter().zip(&mut self.layers) {
            lower_layer(layer, scheme, out);
        }
    }

    /// Number of layers in the lowered trace.
    pub fn layers(&self) -> usize {
        self.layers.len()
    }

    /// The runs of layer `i`, in issue order — the slice
    /// [`DramSim::run_runs`] replays.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.layers()`.
    pub fn layer_runs(&self, i: usize) -> &[Run] {
        self.layers[i].runs()
    }

    /// Number of requests layer `i`'s runs stand for.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.layers()`.
    pub fn layer_requests(&self, i: usize) -> u64 {
        self.layers[i].requests()
    }

    /// The packed requests of layer `i`, in issue order — the per-line
    /// slice [`DramSim::run_batch_packed`] replays.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.layers()`.
    pub fn layer(&self, i: usize) -> &[u64] {
        let start: u64 = self.layers[..i].iter().map(RunBuf::requests).sum();
        let end = start + self.layers[i].requests();
        &self.requests()[start as usize..end as usize]
    }

    /// The whole flat packed request stream, in issue order. Decode
    /// individual elements with [`Request::unpack`].
    ///
    /// [`Request::unpack`]: seda_dram::Request::unpack
    pub fn requests(&self) -> &[u64] {
        self.packed.get_or_init(|| {
            let total: u64 = self.layers.iter().map(RunBuf::requests).sum();
            let mut packed = Vec::with_capacity(total as usize);
            for layer in &self.layers {
                packed.extend(expand(layer.runs()));
            }
            packed
        })
    }
}

/// Lowers one whole layer into `out`, cleared first.
fn lower_layer(layer: &LayerSim, scheme: &mut dyn ProtectionScheme, out: &mut RunBuf) {
    out.clear();
    for burst in &layer.bursts {
        scheme.transform(burst, out);
    }
}

/// Per-layer timing outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerTiming {
    /// Layer name.
    pub name: String,
    /// Systolic-array compute cycles (accelerator clock).
    pub compute_cycles: u64,
    /// Memory cycles converted into the accelerator clock domain.
    pub memory_cycles: u64,
    /// Layer runtime: `max(compute, memory)` under double buffering.
    pub cycles: u64,
}

/// Result of running one inference of a model under one protection scheme.
/// `PartialEq` is bit-exact (the `f64` clock compares by value, never by
/// tolerance) — the checkpoint journal relies on it to prove resumed runs
/// replay identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Model name.
    pub model: String,
    /// NPU configuration name.
    pub npu: String,
    /// Accelerator clock the run was timed at, in Hz.
    pub clock_hz: f64,
    /// Protection scheme name.
    pub scheme: String,
    /// Per-layer timing.
    pub layers: Vec<LayerTiming>,
    /// Total runtime in accelerator cycles.
    pub total_cycles: u64,
    /// Traffic tally per category, cumulative over the scheme's lifetime
    /// up to (and including) this inference.
    pub traffic: TrafficBreakdown,
    /// DRAM access statistics, cumulative up to this inference.
    pub dram: DramStats,
}

impl RunResult {
    /// Runtime in seconds on the accelerator clock the run was timed at.
    pub fn seconds(&self) -> f64 {
        self.total_cycles as f64 / self.clock_hz
    }
}

/// Runs one cold inference of `model` on `npu` under `scheme` and reports
/// traffic and runtime.
///
/// Convenience wrapper over [`run_trace`] for one-off runs: it simulates
/// the trace itself. Callers that evaluate many schemes over the same
/// (NPU, model) pair should simulate once (or use a
/// [`seda_scalesim::TraceCache`]) and call [`run_trace`] per scheme.
///
/// # Examples
///
/// ```
/// use seda::pipeline::run_model;
/// use seda_models::zoo;
/// use seda_protect::Unprotected;
/// use seda_scalesim::NpuConfig;
///
/// let r = run_model(&NpuConfig::edge(), &zoo::lenet(), &mut Unprotected::new());
/// assert!(r.total_cycles > 0);
/// ```
pub fn run_model(npu: &NpuConfig, model: &Model, scheme: &mut dyn ProtectionScheme) -> RunResult {
    let sim = simulate_model(npu, model);
    // Invariant: the kernel returns exactly `repeats` results, here one.
    #[allow(clippy::expect_used)]
    let result = run_trace(&sim, npu, scheme, None, 1)
        .pop()
        .expect("kernel returns one result per inference");
    result
}

/// Replays `repeats` back-to-back inferences of a pre-simulated burst
/// trace through `scheme` and the DRAM configuration [`dram_config_for`]
/// derives from `npu`, returning one [`RunResult`] per inference.
///
/// Infallible form of [`try_run_trace`], which documents the timing
/// model.
///
/// # Examples
///
/// ```
/// use seda::pipeline::run_trace;
/// use seda_models::zoo;
/// use seda_protect::Unprotected;
/// use seda_scalesim::{simulate_model, NpuConfig};
///
/// let npu = NpuConfig::edge();
/// let sim = simulate_model(&npu, &zoo::lenet());
/// // One simulation, many replays: each scheme reuses `sim`.
/// let runs = run_trace(&sim, &npu, &mut Unprotected::new(), None, 2);
/// assert_eq!(runs.len(), 2);
/// assert!(runs[0].total_cycles > 0);
/// ```
///
/// # Panics
///
/// Panics when `repeats == 0`; use [`try_run_trace`] for a typed error.
pub fn run_trace(
    sim: &ModelSim,
    npu: &NpuConfig,
    scheme: &mut dyn ProtectionScheme,
    verifier: Option<&HashEngine>,
    repeats: u32,
) -> Vec<RunResult> {
    // Invariant: the only failure mode of the kernel is `repeats == 0`,
    // asserted here so existing callers keep their panic contract.
    assert!(repeats > 0, "need at least one inference");
    #[allow(clippy::expect_used)]
    let results = try_run_trace(sim, npu, scheme, verifier, repeats, dram_config_for(npu))
        .expect("repeats > 0");
    results
}

/// The single simulation kernel behind every run entry point.
///
/// Replays `repeats` back-to-back inferences of a pre-simulated burst
/// trace through `scheme` and a fresh DRAM simulator built from `dram`,
/// returning one [`RunResult`] per inference. Per layer, runtime is
/// `max(compute, memory)` under double buffering; with a `verifier`,
/// every fetched byte additionally streams through the hash engine, so an
/// undersized verifier (throughput below memory bandwidth) becomes the
/// layer bottleneck and each layer pays the engine's drain latency once.
/// Scheme metadata caches and DRAM bank state persist across inferences
/// (steady-state behaviour); the final metadata flush is charged to the
/// last inference.
///
/// `dram` is normally [`dram_config_for`]`(npu)`; passing a modified copy
/// is the injection point for memory-system ablations (the golden-figure
/// suite's one-cycle burst-length perturbation, scenario DRAM overrides).
/// A malformed request surfaces as a typed error instead of a panic, so
/// the sweep engine can degrade a bad point into a captured failure.
///
/// Memory stays bounded by the chunk, not the layer: each layer is
/// lowered burst by burst into one reused run buffer, which is replayed
/// and cleared whenever it holds 4096 runs (64 KiB) and once more at the
/// layer's end. [`DramSim::run_runs`] replays any split of a stream into
/// runs identically, so the chunking changes no result.
///
/// # Errors
///
/// Returns [`SedaError::InvalidSpec`] when `repeats == 0`.
pub fn try_run_trace(
    sim: &ModelSim,
    npu: &NpuConfig,
    scheme: &mut dyn ProtectionScheme,
    verifier: Option<&HashEngine>,
    repeats: u32,
    dram: DramConfig,
) -> Result<Vec<RunResult>, SedaError> {
    run_chunked(sim, npu, scheme, verifier, repeats, dram, CHUNK_RUNS)
}

/// Runs the kernel's lowering buffer may hold before it is replayed.
/// 4096 runs of 16 B are 64 KiB, below glibc's default mmap threshold:
/// freeing a larger buffer raises that threshold, and later buffers of
/// its size then stay resident in each sweep worker's heap.
///
/// The buffer is checked between bursts, never inside one. A scheme
/// transforms a burst atomically (its alignment fill depends on the
/// burst's edges), so one burst can overshoot the cap: on the headline
/// matrix 95 of 693,654 bursts emit more than 4096 runs, the largest
/// 56,063 (server `fast` layer `fc6` under SGX-64B), and the buffer's
/// capacity peaks near 1 MiB.
const CHUNK_RUNS: usize = 4096;

/// Replays `buf`'s runs on `dram` and clears it, returning the number of
/// requests replayed.
fn replay_chunk(dram: &mut DramSim, buf: &mut RunBuf) -> u64 {
    dram.run_runs(buf.runs());
    let requests = buf.requests();
    buf.clear();
    requests
}

/// [`try_run_trace`] with the chunk cap as a parameter, so tests can
/// replay every burst on its own (`chunk_runs = 1`) or each layer at
/// once (`usize::MAX`).
fn run_chunked(
    sim: &ModelSim,
    npu: &NpuConfig,
    scheme: &mut dyn ProtectionScheme,
    verifier: Option<&HashEngine>,
    repeats: u32,
    dram: DramConfig,
    chunk_runs: usize,
) -> Result<Vec<RunResult>, SedaError> {
    if repeats == 0 {
        return Err(SedaError::InvalidSpec {
            reason: "need at least one inference (repeats == 0)".to_owned(),
        });
    }
    let mut dram = DramSim::new(dram);
    let mem_clock = dram.config().clock_hz;

    // One run buffer for the whole run, refilled chunk by chunk. Schemes
    // are stateful (metadata caches warm), so every inference lowers
    // afresh.
    let mut buf = RunBuf::new();
    let mut results = Vec::with_capacity(repeats as usize);
    for _ in 0..repeats {
        let mut layers = Vec::with_capacity(sim.layers.len());
        let mut total = 0u64;
        for layer in &sim.layers {
            let start = dram.elapsed_cycles();
            let mut requests = 0u64;
            for burst in &layer.bursts {
                scheme.transform(burst, &mut buf);
                if buf.runs().len() >= chunk_runs {
                    requests += replay_chunk(&mut dram, &mut buf);
                }
            }
            requests += replay_chunk(&mut dram, &mut buf);
            let mem_cycles_mem_domain = dram.elapsed_cycles() - start;
            let memory_cycles =
                (mem_cycles_mem_domain as f64 / mem_clock * npu.clock_hz).ceil() as u64;
            let mut cycles = layer.compute_cycles.max(memory_cycles);
            if let Some(engine) = verifier {
                let verify_stream = engine.stream_cycles(requests * 64);
                cycles = cycles.max(verify_stream) + engine.layer_check_exposure();
            }
            total += cycles;
            seda_telemetry::record("pipeline.layer_cycles", cycles);
            layers.push(LayerTiming {
                name: layer.name.clone(),
                compute_cycles: layer.compute_cycles,
                memory_cycles,
                cycles,
            });
        }
        seda_telemetry::counter_add("pipeline.inferences", 1);
        results.push(RunResult {
            model: sim.model.clone(),
            npu: npu.name.clone(),
            clock_hz: npu.clock_hz,
            scheme: scheme.name().to_owned(),
            layers,
            total_cycles: total,
            traffic: scheme.breakdown(),
            dram: *dram.stats(),
        });
    }

    // Flush dirty metadata at end of the run; the drain is exposed time,
    // charged to the last inference. It is one chunk: on the headline
    // matrix a drain lowers to at most 432 runs.
    let start = dram.elapsed_cycles();
    scheme.finish(&mut |r| buf.push(r));
    replay_chunk(&mut dram, &mut buf);
    let drain = dram.elapsed_cycles() - start;
    // Invariant: `repeats > 0` was checked at entry, so at least one
    // result exists.
    #[allow(clippy::expect_used)]
    let last = results.last_mut().expect("repeats > 0");
    last.total_cycles += (drain as f64 / mem_clock * npu.clock_hz).ceil() as u64;
    last.traffic = scheme.breakdown();
    last.dram = *dram.stats();
    // One flush per run keeps the per-access DRAM loop free of telemetry
    // dispatch; the counters still sum correctly across runs and sweeps.
    dram.emit_telemetry();

    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seda_models::zoo;
    use seda_protect::{BlockMacKind, BlockMacScheme, LayerMacStore, SedaScheme, Unprotected};

    #[test]
    fn protected_runs_are_never_faster() {
        let npu = NpuConfig::edge();
        let m = zoo::lenet();
        let base = run_model(&npu, &m, &mut Unprotected::new());
        let sgx = run_model(
            &npu,
            &m,
            &mut BlockMacScheme::new(BlockMacKind::Sgx, 64, 16 << 30),
        );
        assert!(sgx.total_cycles >= base.total_cycles);
        assert!(sgx.traffic.total() > base.traffic.total());
    }

    #[test]
    fn seda_overhead_is_tiny() {
        let npu = NpuConfig::edge();
        let m = zoo::alexnet();
        let base = run_model(&npu, &m, &mut Unprotected::new());
        let seda = run_model(
            &npu,
            &m,
            &mut SedaScheme::new(LayerMacStore::OffChip, 16 << 30),
        );
        let traffic_overhead = seda.traffic.total() as f64 / base.traffic.total() as f64 - 1.0;
        assert!(traffic_overhead < 0.005, "SeDA traffic +{traffic_overhead}");
        let perf_overhead = seda.total_cycles as f64 / base.total_cycles as f64 - 1.0;
        assert!(perf_overhead < 0.02, "SeDA perf +{perf_overhead}");
    }

    #[test]
    fn layer_count_matches_model() {
        let npu = NpuConfig::server();
        let m = zoo::lenet();
        let r = run_model(&npu, &m, &mut Unprotected::new());
        assert_eq!(r.layers.len(), m.layers().len());
        assert_eq!(
            r.total_cycles,
            r.layers.iter().map(|l| l.cycles).sum::<u64>()
        );
    }

    #[test]
    fn memory_and_compute_bound_layers_exist() {
        // AlexNet on edge: fc layers are memory-bound, convs compute-bound.
        let npu = NpuConfig::edge();
        let r = run_model(&npu, &zoo::alexnet(), &mut Unprotected::new());
        assert!(r.layers.iter().any(|l| l.memory_cycles > l.compute_cycles));
        assert!(r.layers.iter().any(|l| l.compute_cycles > l.memory_cycles));
    }

    #[test]
    fn seconds_uses_recorded_clock() {
        let npu = NpuConfig::edge();
        let r = run_model(&npu, &zoo::lenet(), &mut Unprotected::new());
        assert_eq!(r.clock_hz, npu.clock_hz);
        let expect = r.total_cycles as f64 / npu.clock_hz;
        assert!((r.seconds() - expect).abs() < 1e-15);
    }

    #[test]
    fn zero_repeats_is_a_typed_error() {
        let npu = NpuConfig::edge();
        let m = zoo::lenet();
        let sim = simulate_model(&npu, &m);
        let err = try_run_trace(
            &sim,
            &npu,
            &mut Unprotected::new(),
            None,
            0,
            dram_config_for(&npu),
        )
        .expect_err("zero repeats is malformed");
        assert!(matches!(err, SedaError::InvalidSpec { .. }));
        assert!(err.to_string().contains("repeats"));
    }

    #[test]
    fn lowered_trace_slices_partition_the_stream() {
        let npu = NpuConfig::edge();
        let sim = simulate_model(&npu, &zoo::lenet());
        let lowered = LoweredTrace::lower(&sim, &mut Unprotected::new());
        assert_eq!(lowered.layers(), sim.layers.len());
        let total: usize = (0..lowered.layers()).map(|i| lowered.layer(i).len()).sum();
        assert_eq!(total, lowered.requests().len());
        // Slices are contiguous and in issue order.
        let flat: Vec<_> = (0..lowered.layers())
            .flat_map(|i| lowered.layer(i).iter().copied())
            .collect();
        assert_eq!(flat, lowered.requests());
    }

    #[test]
    fn relowering_a_stateless_scheme_is_idempotent() {
        let npu = NpuConfig::edge();
        let sim = simulate_model(&npu, &zoo::lenet());
        let mut scheme = Unprotected::new();
        let mut lowered = LoweredTrace::lower(&sim, &mut scheme);
        let first = lowered.requests().to_vec();
        lowered.relower(&sim, &mut scheme);
        assert_eq!(lowered.requests(), first);
    }

    #[test]
    fn explicit_default_dram_config_matches_derived() {
        let npu = NpuConfig::edge();
        let m = zoo::lenet();
        let sim = simulate_model(&npu, &m);
        let implicit = run_trace(&sim, &npu, &mut Unprotected::new(), None, 2);
        let explicit = try_run_trace(
            &sim,
            &npu,
            &mut Unprotected::new(),
            None,
            2,
            dram_config_for(&npu),
        )
        .unwrap();
        let cycles = |rs: &[RunResult]| rs.iter().map(|r| r.total_cycles).collect::<Vec<_>>();
        assert_eq!(cycles(&implicit), cycles(&explicit));
        assert_eq!(implicit.last().unwrap().dram, explicit.last().unwrap().dram);
    }

    #[test]
    fn one_cycle_dram_perturbation_changes_the_run() {
        let npu = NpuConfig::edge();
        let m = zoo::lenet();
        let sim = simulate_model(&npu, &m);
        let base = run_trace(&sim, &npu, &mut Unprotected::new(), None, 1);
        let mut cfg = dram_config_for(&npu);
        cfg.t_bl += 1;
        let slower = try_run_trace(&sim, &npu, &mut Unprotected::new(), None, 1, cfg).unwrap();
        assert!(
            slower[0].total_cycles > base[0].total_cycles,
            "a longer burst must slow the memory-bound layers"
        );
    }

    #[test]
    fn run_trace_shares_a_simulation_across_schemes() {
        let npu = NpuConfig::edge();
        let m = zoo::lenet();
        let sim = simulate_model(&npu, &m);
        let direct = run_model(&npu, &m, &mut Unprotected::new());
        let traced = run_trace(&sim, &npu, &mut Unprotected::new(), None, 1)
            .pop()
            .unwrap();
        assert_eq!(direct.total_cycles, traced.total_cycles);
        assert_eq!(direct.traffic.total(), traced.traffic.total());
    }
}

/// Total cycles of each of `n` back-to-back inferences of `m` on the edge
/// NPU.
#[cfg(test)]
fn edge_totals(
    m: &Model,
    scheme: &mut dyn ProtectionScheme,
    verifier: Option<&HashEngine>,
    n: u32,
) -> Vec<u64> {
    let npu = NpuConfig::edge();
    let sim = simulate_model(&npu, m);
    run_trace(&sim, &npu, scheme, verifier, n)
        .iter()
        .map(|r| r.total_cycles)
        .collect()
}

#[cfg(test)]
mod verifier_tests {
    use super::*;
    use seda_models::zoo;
    use seda_protect::{BlockMacKind, BlockMacScheme, HashEngine, Unprotected};

    #[test]
    fn adequate_verifier_adds_only_drain_latency() {
        let m = zoo::lenet();
        let engine = HashEngine::default();
        let plain = edge_totals(&m, &mut Unprotected::new(), None, 1)[0];
        let verified = edge_totals(&m, &mut Unprotected::new(), Some(&engine), 1)[0];
        let max_extra = m.layers().len() as u64 * engine.layer_check_exposure();
        assert!(verified >= plain);
        assert!(
            verified <= plain + max_extra,
            "a well-sized verifier must stay off the critical path"
        );
    }

    #[test]
    fn undersized_verifier_becomes_the_bottleneck() {
        let m = zoo::alexnet();
        let fast = HashEngine::new(32.0, 80);
        let slow = HashEngine::new(0.25, 80);
        let quick = edge_totals(&m, &mut Unprotected::new(), Some(&fast), 1)[0];
        let choked = edge_totals(&m, &mut Unprotected::new(), Some(&slow), 1)[0];
        assert!(
            choked > 2 * quick,
            "0.25 B/cycle must choke a 10 GB/s stream: {choked} vs {quick}"
        );
    }

    #[test]
    fn repeated_runs_accept_a_verifier() {
        let m = zoo::lenet();
        let engine = HashEngine::new(0.25, 80);
        let mut sgx = BlockMacScheme::new(BlockMacKind::Sgx, 64, 16 << 30);
        let choked = edge_totals(&m, &mut sgx, Some(&engine), 3);
        let mut sgx2 = BlockMacScheme::new(BlockMacKind::Sgx, 64, 16 << 30);
        let plain = edge_totals(&m, &mut sgx2, None, 3);
        assert_eq!(choked.len(), 3);
        for (c, p) in choked.iter().zip(&plain) {
            assert!(c > p, "verifier must slow every inference: {c} vs {p}");
        }
    }
}

#[cfg(test)]
mod repeated_tests {
    use super::*;
    use seda_models::zoo;
    use seda_protect::{BlockMacKind, BlockMacScheme, Unprotected};

    #[test]
    fn steady_state_is_no_slower_than_cold_start() {
        let mut sgx = BlockMacScheme::new(BlockMacKind::Sgx, 64, 16 << 30);
        let totals = edge_totals(&zoo::ncf(), &mut sgx, None, 4);
        assert_eq!(totals.len(), 4);
        // The first inference runs with cold (empty) caches and defers its
        // dirty evictions; steady state pays those writebacks, so later
        // inferences are a few percent slower but must stabilize — not
        // grow without bound. (The last one also absorbs the final drain.)
        let growth = totals[2] as f64 / totals[1] as f64;
        assert!(
            (0.95..1.15).contains(&growth),
            "steady state must stabilize: {totals:?}"
        );
    }

    #[test]
    fn baseline_is_stable_across_inferences() {
        let totals = edge_totals(&zoo::lenet(), &mut Unprotected::new(), None, 3);
        assert_eq!(totals[1], totals[2], "no state to warm up: {totals:?}");
    }
}

#[cfg(test)]
mod chunk_tests {
    use super::*;
    use seda_models::zoo;
    use seda_protect::scheme_by_name;

    /// The kernel rebuilt from a [`LoweredTrace`]: each inference is
    /// lowered whole, and each layer's runs replay at once through one
    /// fresh `DramSim`.
    fn replay_lowered(
        sim: &ModelSim,
        npu: &NpuConfig,
        scheme: &mut dyn ProtectionScheme,
        verifier: &HashEngine,
        repeats: u32,
    ) -> Vec<RunResult> {
        let mut dram = DramSim::new(dram_config_for(npu));
        let mem_clock = dram.config().clock_hz;
        let to_npu = |mem: u64| (mem as f64 / mem_clock * npu.clock_hz).ceil() as u64;
        let mut lowered = LoweredTrace::default();
        let mut results = Vec::new();
        for _ in 0..repeats {
            lowered.relower(sim, scheme);
            let mut layers = Vec::new();
            for (i, layer) in sim.layers.iter().enumerate() {
                let start = dram.elapsed_cycles();
                dram.run_runs(lowered.layer_runs(i));
                let memory_cycles = to_npu(dram.elapsed_cycles() - start);
                let verify = verifier.stream_cycles(lowered.layer_requests(i) * 64);
                layers.push(LayerTiming {
                    name: layer.name.clone(),
                    compute_cycles: layer.compute_cycles,
                    memory_cycles,
                    cycles: layer.compute_cycles.max(memory_cycles).max(verify)
                        + verifier.layer_check_exposure(),
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
        let last = results.last_mut().unwrap();
        last.total_cycles += to_npu(dram.elapsed_cycles() - start);
        last.traffic = scheme.breakdown();
        last.dram = *dram.stats();
        results
    }

    /// Replaying every burst on its own, or each layer at once, gives the
    /// per-layer replay of the stored trace: per-layer memory and
    /// verifier-bound cycles, totals, traffic and the final `DramStats`.
    /// Edge AlexNet's SGX layers cross the production cap (up to 20,964
    /// runs), and an undersized verifier makes each layer's cycles count
    /// every chunk's requests.
    #[test]
    fn chunk_cap_does_not_change_a_run() {
        let npu = NpuConfig::edge();
        let sim = simulate_model(&npu, &zoo::alexnet());
        let slow = HashEngine::new(0.25, 80);
        for name in ["SGX-64B", "MGX-64B", "SeDA"] {
            let scheme = || scheme_by_name(name).unwrap();
            let want = replay_lowered(&sim, &npu, scheme().as_mut(), &slow, 2);
            for cap in [1, usize::MAX] {
                let dram = dram_config_for(&npu);
                let got = run_chunked(&sim, &npu, scheme().as_mut(), Some(&slow), 2, dram, cap);
                assert_eq!(got.unwrap(), want, "{name} with a {cap}-run cap");
            }
        }
    }
}
