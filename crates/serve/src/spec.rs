//! The serving simulation's input and output data model.
//!
//! [`SimSpec`] is the *low-level* contract both kernels (event-driven
//! and time-stepped) execute: everything is integer accelerator cycles,
//! every tenant's cost model is an explicit per-layer cycle list, and
//! the only nondeterminism source is the seed. [`build`] grounds a
//! scenario's `"serving"` block into a `SimSpec` by running each
//! tenant's model through the real [`pipeline`](seda::pipeline)
//! simulator (via the shared [`TraceCache`]) and sealing each tenant's
//! weights into an independent [`ProtectedImage`] key/version-number
//! space; the differential oracle instead constructs tiny synthetic
//! `SimSpec`s directly, so the brute-force reference stays tractable.

use seda::pipeline::{dram_config_for, try_run_trace};
use seda::scenario::{ArrivalSpec, Scenario, ScenarioError, ServingSpec};
use seda::SedaError;
use seda_adversary::{ProtectConfig, ProtectedImage, Rng};
use seda_protect::HashEngine;
use seda_scalesim::TraceCache;
use seda_telemetry::HistogramSnapshot;

/// RNG stream tag for open-loop arrival draws.
pub const STREAM_ARRIVALS: u64 = 1;
/// RNG stream tag base for per-client closed-loop draws (client `c`
/// uses `STREAM_CLIENTS + c`).
pub const STREAM_CLIENTS: u64 = 0x1_0000;
/// RNG stream tag base for per-tenant sealing keys.
pub const STREAM_KEYS: u64 = 0x2_0000;
/// RNG stream tag base for per-tenant key fingerprints.
pub const STREAM_KEY_IDS: u64 = 0x3_0000;
/// RNG stream tag base for per-tenant sealed weight payloads.
pub const STREAM_PAYLOADS: u64 = 0x4_0000;
/// RNG stream tag base for per-swap provisioning keys (encryption,
/// storage MAC, and transport MAC of the replacement image).
pub const STREAM_SWAP_KEYS: u64 = 0x5_0000;
/// RNG stream tag base for per-swap key fingerprints.
pub const STREAM_SWAP_KEY_IDS: u64 = 0x6_0000;
/// RNG stream tag base for per-swap replacement weight payloads.
pub const STREAM_SWAP_PAYLOADS: u64 = 0x7_0000;

/// Scheduling policy for the shared NPU queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// First-come-first-served across all tenants (by arrival order).
    Fcfs,
    /// Round-robin over tenants: a global cursor rotates past the tenant
    /// that last dispatched.
    Rr,
    /// Earliest-deadline-first (deadline = arrival + SLA). With
    /// `preempt`, a running batch can be preempted at a layer boundary
    /// by pending work with a strictly earlier deadline.
    Edf {
        /// Allow preemption at layer boundaries.
        preempt: bool,
    },
}

impl Scheduler {
    /// The lowercase scenario spelling.
    pub fn name(self) -> &'static str {
        match self {
            Scheduler::Fcfs => "fcfs",
            Scheduler::Rr => "rr",
            Scheduler::Edf { .. } => "edf",
        }
    }
}

/// Deterministic burst modulation in cycle units.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstSim {
    /// Square-wave period in cycles.
    pub period_cycles: f64,
    /// Percentage of each period spent bursting.
    pub duty_pct: f64,
    /// Rate multiplier while bursting.
    pub factor: f64,
}

/// Deterministic diurnal modulation in cycle units.
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalSim {
    /// Sinusoid period in cycles.
    pub period_cycles: f64,
    /// Peak fractional rate swing.
    pub amplitude: f64,
}

/// Arrival process in cycle units.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalSim {
    /// Open-loop Poisson arrivals.
    OpenLoop {
        /// Mean interarrival time in cycles (at modulation 1.0).
        mean_cycles: f64,
        /// Total requests to issue.
        requests: u64,
        /// Optional burst modulation.
        burst: Option<BurstSim>,
        /// Optional diurnal modulation.
        diurnal: Option<DiurnalSim>,
    },
    /// Closed-loop client population.
    ClosedLoop {
        /// Concurrent clients.
        clients: u32,
        /// Mean exponential think time in cycles.
        think_cycles: f64,
        /// Total requests issued across all clients.
        requests: u64,
    },
}

impl ArrivalSim {
    /// Total requests the process will issue.
    pub fn requests(&self) -> u64 {
        match self {
            ArrivalSim::OpenLoop { requests, .. } | ArrivalSim::ClosedLoop { requests, .. } => {
                *requests
            }
        }
    }
}

/// One tenant's cost model and scheduling parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSim {
    /// Tenant name (snapshot key).
    pub name: String,
    /// `profiles[i]` is the per-layer cycle list of the `(i+1)`-th
    /// back-to-back inference in a batch — `profiles[0]` is the cold
    /// first inference, later entries the steady state. A batch of `b`
    /// requests executes `profiles[0..b]` concatenated, and the tenant's
    /// effective batch limit is `min(max_batch, profiles.len())`. Every
    /// duration is at least 1 cycle.
    pub profiles: Vec<Vec<u64>>,
    /// SLA deadline offset in cycles; `None` means no deadline pressure
    /// (EDF treats it as far-future).
    pub sla_cycles: Option<u64>,
    /// Relative share of the arrival stream.
    pub weight: u64,
}

impl TenantSim {
    /// The EDF deadline of a request arriving at `arrival`.
    pub fn deadline(&self, arrival: u64) -> u64 {
        match self.sla_cycles {
            Some(sla) => arrival.saturating_add(sla),
            None => u64::MAX,
        }
    }
}

/// One scheduled hot model-swap in kernel units: at `at_cycle` the
/// tenant's replacement cost model becomes eligible, and the cutover
/// lands at the first processed cycle where the tenant has no batch in
/// flight (running or preempted) — batches formed before the cutover
/// keep their admission-time layers, so no work is ever re-costed
/// mid-batch.
#[derive(Debug, Clone, PartialEq)]
pub struct SwapSim {
    /// Tenant index into the lineup.
    pub tenant: usize,
    /// Cycle the swap request lands.
    pub at_cycle: u64,
    /// Replacement batch cost profiles (same shape as
    /// [`TenantSim::profiles`]).
    pub profiles: Vec<Vec<u64>>,
}

/// One applied swap as both kernels must report it — part of the
/// bit-compared [`SimOutcome`] surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapOutcome {
    /// Tenant index.
    pub tenant: usize,
    /// Cycle the swap was requested.
    pub requested: u64,
    /// Cycle the cutover actually landed.
    pub cutover: u64,
}

/// The complete, self-contained input of one serving simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSpec {
    /// Master seed.
    pub seed: u64,
    /// Scheduling policy.
    pub scheduler: Scheduler,
    /// Identical NPU replicas drained from one queue.
    pub replicas: u32,
    /// Largest same-tenant batch dispatched at once.
    pub max_batch: u32,
    /// Tenant lineup.
    pub tenants: Vec<TenantSim>,
    /// Arrival process.
    pub arrival: ArrivalSim,
    /// Scheduled hot model-swaps, in declaration order.
    pub swaps: Vec<SwapSim>,
}

impl SimSpec {
    /// Tenant weights in lineup order (the weighted-pick table).
    pub fn weights(&self) -> Vec<u64> {
        self.tenants.iter().map(|t| t.weight).collect()
    }
}

/// One completed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Issue-order request id.
    pub id: u64,
    /// Tenant index.
    pub tenant: usize,
    /// Arrival cycle.
    pub arrival: u64,
    /// Cycle the request's batch finished its last layer.
    pub completion: u64,
}

/// Everything a kernel reports — the surface the differential oracle
/// compares bit-for-bit between the event-driven and time-stepped
/// kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Completions in recording order (NPU index order within a cycle,
    /// request id order within a batch).
    pub completions: Vec<Completion>,
    /// `(cycle, queued requests)` after each active cycle — a cycle
    /// that processed at least one arrival or layer-done event.
    pub queue_trace: Vec<(u64, u64)>,
    /// Per-tenant latency histograms (cycles, arrival → completion).
    pub tenant_latency: Vec<HistogramSnapshot>,
    /// Per-tenant queue-depth histograms sampled at active cycles.
    pub tenant_queue_depth: Vec<HistogramSnapshot>,
    /// Busy cycles per replica.
    pub busy_cycles: Vec<u64>,
    /// Cycle of the last completion (0 when nothing completed).
    pub end_cycle: u64,
    /// Arrival, layer-done, and swap-due events processed.
    pub events: u64,
    /// Applied swaps in cutover order.
    pub swaps: Vec<SwapOutcome>,
}

/// One tenant's sealed weights: an independent key/version-number space
/// built over the [`ProtectedImage`] machinery, proving per-tenant
/// isolation (distinct keys, independent tamper blast radius).
#[derive(Debug, Clone)]
pub struct TenantSeal {
    /// Tenant name.
    pub name: String,
    /// Public key fingerprint (derived from its own stream, never from
    /// the key bytes).
    pub key_id: u64,
    /// The sealed off-chip image.
    pub image: ProtectedImage,
    /// The plaintext payloads written per layer region (for tests).
    pub payloads: Vec<Vec<u8>>,
}

/// One swap's replacement image, provisioned through the `seda-stream`
/// chunked encrypt-then-MAC pipeline rather than sealed at rest: the
/// grounding step seals the replacement weights into an authenticated
/// stream and unseals it frame-by-frame into the [`ProtectedImage`] —
/// the same path a line-rate provisioning NIC would drive. Index-aligned
/// with [`SimSpec::swaps`].
#[derive(Debug, Clone)]
pub struct SwapSeal {
    /// Tenant index into the lineup.
    pub tenant: usize,
    /// Fresh key fingerprint the tenant reports after cutover.
    pub key_id: u64,
    /// The streamed-in replacement image (fresh key, next key epoch).
    pub image: ProtectedImage,
    /// Protection blocks the stream carried.
    pub blocks: u64,
}

/// A scenario's serving block grounded into an executable simulation:
/// the [`SimSpec`], the clock that converts its cycles back to
/// milliseconds, and each tenant's sealed image.
#[derive(Debug, Clone)]
pub struct ServeSetup {
    /// Scenario name (snapshot key).
    pub scenario: String,
    /// The executable spec.
    pub spec: SimSpec,
    /// Accelerator clock in Hz (cycle → ms conversions).
    pub clock_hz: f64,
    /// NPU configuration name.
    pub npu: String,
    /// Per-tenant sealed images, in lineup order.
    pub seals: Vec<TenantSeal>,
    /// Streamed replacement images, index-aligned with `spec.swaps`.
    pub swaps: Vec<SwapSeal>,
}

impl ServeSetup {
    /// Converts a cycle count to simulated milliseconds.
    pub fn cycles_to_ms(&self, cycles: u64) -> f64 {
        cycles as f64 * 1000.0 / self.clock_hz
    }
}

fn bad(reason: String) -> SedaError {
    SedaError::Scenario(ScenarioError::BadSpec { reason })
}

/// A `len`-byte plaintext payload, filled 8 bytes per `rng` draw.
fn payload(rng: &mut Rng, len: usize) -> Vec<u8> {
    let mut data = vec![0u8; len];
    for chunk in data.chunks_mut(8) {
        let w = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&w[..chunk.len()]);
    }
    data
}

fn seal_tenant(
    seed: u64,
    index: usize,
    model: &seda_models::Model,
) -> Result<TenantSeal, SedaError> {
    let mut key_rng = Rng::for_stream(seed, STREAM_KEYS + index as u64);
    let enc_key = key_rng.block();
    let mac_key = key_rng.block();
    let key_id = Rng::for_stream(seed, STREAM_KEY_IDS + index as u64).next_u64();
    // Index 2 of the detection matrix is the full SeDA configuration:
    // layer-granularity MACs, position-bound binding, per-model pads,
    // and the on-chip model root.
    let config = ProtectConfig::matrix()[2];
    // Tenant seals and streamed swap images share the stream geometry,
    // so they agree on layout.
    let lens = seda_stream::model_lens(model);
    let mut image = ProtectedImage::new(config, &lens, enc_key, mac_key)?;
    let mut payload_rng = Rng::for_stream(seed, STREAM_PAYLOADS + index as u64);
    let mut payloads = Vec::with_capacity(lens.len());
    for (layer, &len) in lens.iter().enumerate() {
        let data = payload(&mut payload_rng, len);
        image.write_layer(layer, &data)?;
        payloads.push(data);
    }
    Ok(TenantSeal {
        name: model.name().to_owned(),
        key_id,
        image,
        payloads,
    })
}

/// Seals swap `index`'s replacement weights *through the provisioning
/// stream*: the plaintext is sealed into a chunked encrypt-then-MAC
/// stream under fresh keys at the next key epoch, then unsealed
/// frame-by-frame into the installed [`ProtectedImage`] — the exact
/// path a hot swap takes under serving traffic.
fn seal_swap(
    seed: u64,
    index: usize,
    tenant: usize,
    model: &seda_models::Model,
) -> Result<SwapSeal, SedaError> {
    let mut key_rng = Rng::for_stream(seed, STREAM_SWAP_KEYS + index as u64);
    let key_id = Rng::for_stream(seed, STREAM_SWAP_KEY_IDS + index as u64).next_u64();
    let stream_spec = seda_stream::StreamSpec {
        stream_id: key_id,
        // Tenants seal at epoch 1; a swap provisions at the next epoch,
        // so a replayed pre-swap stream is typed stale, not accepted.
        key_epoch: 2,
        config: ProtectConfig::matrix()[2],
        lens: seda_stream::model_lens(model),
        enc_key: key_rng.block(),
        mac_key: key_rng.block(),
        transport_key: key_rng.block(),
    };
    let mut payload_rng = Rng::for_stream(seed, STREAM_SWAP_PAYLOADS + index as u64);
    let payloads: Vec<Vec<u8>> = stream_spec
        .lens
        .iter()
        .map(|&len| payload(&mut payload_rng, len))
        .collect();
    let stream = seda_stream::seal(&stream_spec, &payloads)?;
    let image = seda_stream::unseal(&stream_spec, stream.bytes())?;
    seda_telemetry::counter_add("serve.swaps_streamed", 1);
    Ok(SwapSeal {
        tenant,
        key_id,
        image,
        blocks: stream_spec.total_blocks(),
    })
}

fn arrival_sim(serving: &ServingSpec, clock_hz: f64) -> ArrivalSim {
    let cycles_per_ms = clock_hz / 1000.0;
    match &serving.arrival {
        ArrivalSpec::OpenLoop {
            rate_rps,
            requests,
            burst,
            diurnal,
        } => ArrivalSim::OpenLoop {
            mean_cycles: clock_hz / rate_rps,
            requests: *requests,
            burst: burst.as_ref().map(|b| BurstSim {
                period_cycles: b.period_ms * cycles_per_ms,
                duty_pct: b.duty_pct,
                factor: b.factor,
            }),
            diurnal: diurnal.as_ref().map(|d| DiurnalSim {
                period_cycles: d.period_ms * cycles_per_ms,
                amplitude: d.amplitude,
            }),
        },
        ArrivalSpec::ClosedLoop {
            clients,
            think_ms,
            requests,
        } => ArrivalSim::ClosedLoop {
            clients: *clients,
            think_cycles: think_ms * cycles_per_ms,
            requests: *requests,
        },
    }
}

/// Grounds a scenario's `"serving"` block into a [`ServeSetup`].
///
/// Per-tenant service times come from the real pipeline: each tenant's
/// model runs `max_batch` back-to-back inferences under its own freshly
/// instantiated protection scheme (scenario DRAM override and verifier
/// model included), and the per-layer cycle lists become the tenant's
/// batch cost model. Tenant weights are sealed into independent
/// [`ProtectedImage`] key spaces as a side effect.
///
/// # Errors
///
/// Returns a scenario error when the scenario has no serving block or
/// fails validation, and propagates any pipeline failure.
pub fn build(scenario: &Scenario) -> Result<ServeSetup, SedaError> {
    scenario.validate()?;
    let serving = scenario
        .serving
        .as_ref()
        .ok_or_else(|| bad(format!("scenario {:?} has no serving block", scenario.name)))?;
    let npu = seda::scenario::npu_by_name(&scenario.npus[0])?;
    let max_batch = serving.max_batch.unwrap_or(1);
    let scheduler = match serving.scheduler_name().as_str() {
        "fcfs" => Scheduler::Fcfs,
        "rr" => Scheduler::Rr,
        _ => Scheduler::Edf {
            preempt: serving.preempt.unwrap_or(false),
        },
    };
    let verifier = scenario
        .verifier
        .as_ref()
        .map(|v| HashEngine::new(v.bytes_per_cycle, v.latency_cycles));
    let cycles_per_ms = npu.clock_hz / 1000.0;
    let cache = TraceCache::new();
    let dram_cfg = match &scenario.dram {
        Some(d) => d.apply(dram_config_for(&npu)),
        None => dram_config_for(&npu),
    };
    let profiles_for = |model: &seda_models::Model,
                        scheme_spec: &seda::scenario::SchemeSpec|
     -> Result<Vec<Vec<u64>>, SedaError> {
        let trace = cache.get_or_simulate(&npu, model);
        let mut scheme = scheme_spec.instantiate()?;
        let runs = try_run_trace(
            &trace,
            &npu,
            scheme.as_mut(),
            verifier.as_ref(),
            max_batch,
            dram_cfg.clone(),
        )?;
        Ok(runs
            .iter()
            .map(|r| r.layers.iter().map(|l| l.cycles.max(1)).collect())
            .collect())
    };
    let mut tenants = Vec::with_capacity(serving.tenants.len());
    let mut seals = Vec::with_capacity(serving.tenants.len());
    for (index, t) in serving.tenants.iter().enumerate() {
        let model = t.workload.resolve()?;
        let profiles = profiles_for(&model, &t.scheme)?;
        let mut seal = seal_tenant(serving.seed, index, &model)?;
        seal.name.clone_from(&t.name);
        seals.push(seal);
        tenants.push(TenantSim {
            name: t.name.clone(),
            profiles,
            sla_cycles: t
                .sla_ms
                .map(|ms| (ms * cycles_per_ms).round().max(1.0) as u64),
            weight: t.weight.unwrap_or(1),
        });
        seda_telemetry::counter_add("serve.tenants_built", 1);
    }
    let mut swaps = Vec::new();
    let mut swap_seals = Vec::new();
    for (index, s) in serving.swaps.as_deref().unwrap_or(&[]).iter().enumerate() {
        let tenant = serving
            .tenants
            .iter()
            .position(|t| t.name.eq_ignore_ascii_case(&s.tenant))
            .ok_or_else(|| bad(format!("swap tenant {:?} not in lineup", s.tenant)))?;
        let model = match &s.workload {
            Some(w) => w.resolve()?,
            None => serving.tenants[tenant].workload.resolve()?,
        };
        // The replacement runs under the tenant's own protection scheme.
        let profiles = profiles_for(&model, &serving.tenants[tenant].scheme)?;
        swap_seals.push(seal_swap(serving.seed, index, tenant, &model)?);
        swaps.push(SwapSim {
            tenant,
            at_cycle: (s.at_ms * cycles_per_ms).round().max(1.0) as u64,
            profiles,
        });
    }
    Ok(ServeSetup {
        scenario: scenario.name.clone(),
        spec: SimSpec {
            seed: serving.seed,
            scheduler,
            replicas: serving.replicas.unwrap_or(1),
            max_batch,
            tenants,
            arrival: arrival_sim(serving, npu.clock_hz),
            swaps,
        },
        clock_hz: npu.clock_hz,
        npu: npu.name.clone(),
        seals,
        swaps: swap_seals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use seda_models::zoo;

    #[test]
    fn tenant_seals_use_block_aligned_model_lens() {
        let model = zoo::lenet();
        let lens = seda_stream::model_lens(&model);
        let seal = seal_tenant(7, 0, &model).expect("seal");
        let sealed: Vec<usize> = seal.payloads.iter().map(Vec::len).collect();
        assert_eq!(sealed, lens);
        assert_eq!(lens.len(), model.layers().len());
        for len in lens {
            assert!((64..=4096 + 63).contains(&len), "{len}");
            assert_eq!(len % 64, 0);
        }
    }

    #[test]
    fn tenants_get_distinct_keys_and_isolated_images() {
        let model = zoo::lenet();
        let a = seal_tenant(7, 0, &model).expect("seal a");
        let b = seal_tenant(7, 1, &model).expect("seal b");
        assert_ne!(a.key_id, b.key_id, "key fingerprints must differ");
        // Same plaintext region lengths, different keys ⇒ different
        // ciphertext images.
        assert_eq!(a.image.total_len(), b.image.total_len());
        for layer in 0..a.image.layer_count() {
            assert_eq!(
                a.image.read_layer(layer).expect("a verifies"),
                a.payloads[layer]
            );
            assert_eq!(
                b.image.read_layer(layer).expect("b verifies"),
                b.payloads[layer]
            );
        }
    }

    #[test]
    fn sealed_payloads_differ_across_tenant_streams() {
        let model = zoo::lenet();
        let a = seal_tenant(7, 0, &model).expect("seal a");
        let b = seal_tenant(7, 1, &model).expect("seal b");
        assert_ne!(a.payloads[0], b.payloads[0]);
    }

    #[test]
    fn swap_seals_stream_in_under_fresh_keys() {
        let model = zoo::lenet();
        let tenant = seal_tenant(7, 0, &model).expect("tenant seal");
        let swap = seal_swap(7, 0, 0, &model).expect("swap seal");
        assert_ne!(
            swap.key_id, tenant.key_id,
            "the replacement must not reuse the tenant's key fingerprint"
        );
        // Same geometry, different keys: the streamed-in replacement is
        // a full image in its own key space and verifies end to end.
        assert_eq!(swap.image.total_len(), tenant.image.total_len());
        assert_eq!(swap.blocks as usize, swap.image.total_len() / 64);
        swap.image.read_model().expect("streamed image verifies");
        assert_ne!(
            swap.image.offchip_bytes(),
            tenant.image.offchip_bytes(),
            "fresh keys must change the ciphertext"
        );
    }
}
