//! Parallel model × scheme × NPU sweep engine.
//!
//! The paper's evaluation is a cross-product: every workload under every
//! protection scheme on every NPU (Figs. 5-6 alone are 13 × 6 × 2 = 156
//! pipeline runs). [`Sweep`] expands that cross-product once, shares one
//! accelerator simulation per distinct (NPU, model) pair through a
//! [`TraceCache`], and executes the points on a scoped thread pool.
//!
//! Three properties make the parallelism safe and the results exact:
//!
//! * **Traces are immutable.** `simulate_model` output never changes
//!   after construction, so points share it behind an `Arc`.
//! * **Scheme state is per-point.** A [`ProtectionScheme`] is stateful
//!   (metadata caches, traffic tallies), so each point constructs a fresh
//!   instance from its factory; nothing scheme-mutable crosses threads.
//! * **Results are slotted, not streamed.** Each point writes into its
//!   own pre-assigned slot, so the output order is the deterministic
//!   npu-major → model → scheme cross-product order regardless of thread
//!   interleaving, and parallel results are bit-identical to serial ones.
//!
//! # Examples
//!
//! ```
//! use seda::sweep::Sweep;
//! use seda_models::zoo;
//! use seda_scalesim::NpuConfig;
//!
//! let results = Sweep::new()
//!     .npu(NpuConfig::edge())
//!     .model(zoo::lenet())
//!     .schemes(["baseline", "SeDA"])
//!     .run();
//! let base = results.at(0, 0, 0);
//! let seda = results.at(0, 0, 1);
//! assert!(seda.traffic.total() >= base.traffic.total());
//! ```

use crate::error::SedaError;
use crate::pipeline::{dram_config_for, try_run_trace, RunResult};
use crate::resilience::{
    point_label, AttemptRecord, FailurePolicy, FailureReport, FaultHook, PointContext,
    PointFailure, PointReport, PointSink,
};
use seda_dram::DramConfig;
use seda_models::Model;
use seda_protect::{HashEngine, ProtectionScheme};
use seda_scalesim::{NpuConfig, TraceCache};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Factory producing a fresh scheme instance for one sweep point.
/// `Arc`, not `Box`: watchdog-budgeted attempts run on detached worker
/// threads that need their own handle to the factory.
type SchemeFactory = Arc<dyn Fn() -> Box<dyn ProtectionScheme> + Send + Sync>;

/// Per-NPU DRAM configuration override for memory-system ablations.
type DramMap = Box<dyn Fn(&NpuConfig) -> DramConfig + Send + Sync>;

struct SchemeSpec {
    label: String,
    build: SchemeFactory,
}

/// Converts a captured panic payload into the typed per-point error.
fn panic_to_error(point: String, payload: Box<dyn std::any::Any + Send>) -> SedaError {
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned());
    SedaError::PointPanicked { point, message }
}

/// Splits a flat point index into its `(npu, model, scheme)` indices in
/// the npu-major → model → scheme cross-product order.
fn split_index(idx: usize, models: usize, schemes: usize) -> (usize, usize, usize) {
    (
        idx / (models * schemes),
        (idx / schemes) % models,
        idx % schemes,
    )
}

/// Trace-cache statistics for one sweep execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepStats {
    /// Lookups served from the cache (no simulation ran).
    pub trace_hits: u64,
    /// Lookups that ran `simulate_model` — one per distinct (NPU, model).
    pub trace_misses: u64,
}

/// Results of a [`Sweep`] in deterministic cross-product order.
///
/// Each point carries either its per-inference runs or the [`SedaError`]
/// that poisoned it — a failing point (even one that *panicked* inside a
/// scheme) never takes down the other points. The panicking accessors
/// ([`at`](Self::at), [`runs_at`](Self::runs_at)) keep the ergonomic
/// all-green contract; fault-tolerant callers use
/// [`outcome`](Self::outcome) and [`failures`](Self::failures).
pub struct SweepResults {
    npus: Vec<String>,
    models: Vec<String>,
    schemes: Vec<String>,
    /// One entry per point (npu-major → model → scheme); each successful
    /// entry holds one [`RunResult`] per inference.
    points: Vec<Result<Vec<RunResult>, SedaError>>,
    /// Per-point execution accounting, index-aligned with `points`.
    reports: Vec<PointReport>,
    /// Trace-cache activity during this execution only.
    pub stats: SweepStats,
}

impl SweepResults {
    /// Sweep shape as `(npus, models, schemes)`.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.npus.len(), self.models.len(), self.schemes.len())
    }

    fn index(&self, npu: usize, model: usize, scheme: usize) -> usize {
        assert!(npu < self.npus.len(), "npu index {npu} out of range");
        assert!(
            model < self.models.len(),
            "model index {model} out of range"
        );
        assert!(
            scheme < self.schemes.len(),
            "scheme index {scheme} out of range"
        );
        (npu * self.models.len() + model) * self.schemes.len() + scheme
    }

    /// `(npu, model, scheme)` labels of the point at flat index `idx`.
    fn labels(&self, idx: usize) -> (&str, &str, &str) {
        let (n, m, s) = split_index(idx, self.models.len(), self.schemes.len());
        (&self.npus[n], &self.models[m], &self.schemes[s])
    }

    /// The completed run (including the final metadata drain) at a point.
    /// With `repeats = 1` — the default — this is the point's only run.
    ///
    /// # Panics
    ///
    /// Panics if the point failed; see [`outcome`](Self::outcome) for the
    /// fault-tolerant form.
    pub fn at(&self, npu: usize, model: usize, scheme: usize) -> &RunResult {
        // Invariant: the kernel returns one result per inference and
        // `repeats >= 1`, so a successful point is never empty.
        #[allow(clippy::expect_used)]
        let last = self
            .runs_at(npu, model, scheme)
            .last()
            .expect("every point has at least one inference");
        last
    }

    /// All per-inference runs at a point, in inference order.
    ///
    /// # Panics
    ///
    /// Panics if the point failed; see [`outcome`](Self::outcome) for the
    /// fault-tolerant form.
    pub fn runs_at(&self, npu: usize, model: usize, scheme: usize) -> &[RunResult] {
        match &self.points[self.index(npu, model, scheme)] {
            Ok(runs) => runs,
            Err(e) => panic!("sweep point failed: {e}"),
        }
    }

    /// The outcome of one point: its runs, or the error that poisoned it.
    pub fn outcome(
        &self,
        npu: usize,
        model: usize,
        scheme: usize,
    ) -> Result<&[RunResult], &SedaError> {
        match &self.points[self.index(npu, model, scheme)] {
            Ok(runs) => Ok(runs),
            Err(e) => Err(e),
        }
    }

    /// Labels and errors of every failed point, in deterministic order.
    /// Empty for an all-green sweep.
    pub fn failures(&self) -> impl Iterator<Item = (&str, &str, &str, &SedaError)> {
        self.points.iter().enumerate().filter_map(move |(i, p)| {
            p.as_ref().err().map(|e| {
                let (npu, model, scheme) = self.labels(i);
                (npu, model, scheme, e)
            })
        })
    }

    /// Iterates all points in deterministic order with their labels.
    ///
    /// # Panics
    ///
    /// Panics when reaching a failed point; fault-tolerant callers should
    /// use [`failures`](Self::failures) plus [`outcome`](Self::outcome).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, &str, &[RunResult])> {
        self.points.iter().enumerate().map(move |(i, point)| {
            let runs = match point {
                Ok(runs) => runs.as_slice(),
                Err(e) => panic!("sweep point failed: {e}"),
            };
            let (npu, model, scheme) = self.labels(i);
            (npu, model, scheme, runs)
        })
    }

    /// Per-point execution reports (attempts, retries, resume and
    /// cancellation flags), in deterministic cross-product order.
    pub fn reports(&self) -> &[PointReport] {
        &self.reports
    }

    /// The execution report of one point.
    pub fn report_at(&self, npu: usize, model: usize, scheme: usize) -> &PointReport {
        &self.reports[self.index(npu, model, scheme)]
    }

    /// Number of points replayed from a checkpoint journal instead of
    /// executed.
    pub fn resumed_count(&self) -> usize {
        self.reports.iter().filter(|r| r.resumed).count()
    }

    /// Structured digest of every failed point (labels, attempts, final
    /// error), in deterministic order. Empty for an all-green sweep.
    pub fn failure_report(&self) -> FailureReport {
        FailureReport {
            failures: self
                .points
                .iter()
                .enumerate()
                .filter_map(|(i, p)| {
                    p.as_ref().err().map(|e| {
                        let (npu, model, scheme) = self.labels(i);
                        PointFailure {
                            npu: npu.to_owned(),
                            model: model.to_owned(),
                            scheme: scheme.to_owned(),
                            attempts: self.reports[i].attempts_made(),
                            error: e.clone(),
                        }
                    })
                })
                .collect(),
        }
    }

    /// Scheme labels in sweep order.
    pub fn scheme_labels(&self) -> &[String] {
        &self.schemes
    }

    /// NPU labels in sweep order.
    pub fn npu_labels(&self) -> &[String] {
        &self.npus
    }

    /// Model labels in sweep order.
    pub fn model_labels(&self) -> &[String] {
        &self.models
    }
}

/// Builder for a parallel model × scheme × NPU evaluation.
///
/// Add axes with [`npu`](Self::npu)/[`model`](Self::model)/
/// [`scheme`](Self::scheme) (or their plural forms), optionally set a
/// verifier, repeat count, or thread count, then [`run`](Self::run).
/// Points execute in parallel via `std::thread::scope`; results come back
/// in the deterministic npu-major → model → scheme order and are
/// bit-identical to a serial execution.
///
/// # Examples
///
/// ```
/// use seda::sweep::Sweep;
/// use seda_models::zoo;
/// use seda_scalesim::NpuConfig;
///
/// let results = Sweep::new()
///     .npu(NpuConfig::edge())
///     .model(zoo::lenet())
///     .schemes(["baseline", "SGX-64B"])
///     .serial()
///     .run();
/// assert_eq!(results.shape(), (1, 1, 2));
/// assert!(results.at(0, 0, 1).total_cycles >= results.at(0, 0, 0).total_cycles);
/// ```
#[derive(Default)]
pub struct Sweep {
    npus: Vec<NpuConfig>,
    models: Vec<Model>,
    schemes: Vec<SchemeSpec>,
    verifier: Option<HashEngine>,
    repeats: u32,
    threads: Option<usize>,
    dram_map: Option<DramMap>,
    policy: FailurePolicy,
    point_budget_ms: Option<u64>,
    fault_hook: Option<FaultHook>,
    resume_from: Option<Vec<Option<Vec<RunResult>>>>,
    stream_to: Option<PointSink>,
}

impl Sweep {
    /// An empty sweep (one inference per point, auto thread count).
    pub fn new() -> Self {
        Self {
            repeats: 1,
            ..Self::default()
        }
    }

    /// Adds one NPU configuration.
    pub fn npu(mut self, npu: NpuConfig) -> Self {
        self.npus.push(npu);
        self
    }

    /// Adds several NPU configurations.
    pub fn npus(mut self, npus: impl IntoIterator<Item = NpuConfig>) -> Self {
        self.npus.extend(npus);
        self
    }

    /// Adds one workload.
    pub fn model(mut self, model: Model) -> Self {
        self.models.push(model);
        self
    }

    /// Adds several workloads.
    pub fn models(mut self, models: impl IntoIterator<Item = Model>) -> Self {
        self.models.extend(models);
        self
    }

    /// Adds a scheme from the [`seda_protect`] registry by name.
    ///
    /// The name is validated eagerly against
    /// [`seda_protect::scheme_by_name`]; each sweep point constructs its
    /// own fresh instance at execution time (schemes are stateful).
    ///
    /// # Panics
    ///
    /// Panics if the registry does not know `name`.
    pub fn scheme(mut self, name: &str) -> Self {
        assert!(
            seda_protect::scheme_by_name(name).is_some(),
            "unknown protection scheme {name:?}"
        );
        let owned = name.to_owned();
        self.schemes.push(SchemeSpec {
            label: owned.clone(),
            build: Arc::new(move || {
                seda_protect::scheme_by_name(&owned).expect("validated at build time")
            }),
        });
        self
    }

    /// Adds several registry schemes by name.
    pub fn schemes<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        for name in names {
            self = self.scheme(name.as_ref());
        }
        self
    }

    /// Adds a custom scheme under `label`, built per point by `factory`
    /// (for configurations outside the registry, e.g. granularity
    /// ablations).
    pub fn scheme_with(
        mut self,
        label: &str,
        factory: impl Fn() -> Box<dyn ProtectionScheme> + Send + Sync + 'static,
    ) -> Self {
        self.schemes.push(SchemeSpec {
            label: label.to_owned(),
            build: Arc::new(factory),
        });
        self
    }

    /// Models the integrity-verification engine at every point.
    pub fn verifier(mut self, engine: HashEngine) -> Self {
        self.verifier = Some(engine);
        self
    }

    /// Runs `n` back-to-back inferences per point (steady state).
    pub fn repeats(mut self, n: u32) -> Self {
        assert!(n > 0, "need at least one inference");
        self.repeats = n;
        self
    }

    /// Caps the worker thread count (`1` forces serial execution).
    /// Defaults to the machine's available parallelism.
    ///
    /// `0` is clamped to `1` (serial): a thread cap of zero can only mean
    /// "as serial as possible".
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n.max(1));
        self
    }

    /// Forces serial in-order execution on the calling thread.
    pub fn serial(self) -> Self {
        self.threads(1)
    }

    /// Sets what happens when a point fails. The default is
    /// [`FailurePolicy::Skip`]: record the failure, keep going.
    pub fn on_failure(mut self, policy: FailurePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Caps each point *attempt* to a wall-clock budget. A hung attempt
    /// is abandoned and surfaces as [`SedaError::PointTimedOut`]; under a
    /// retry policy the next attempt starts immediately.
    ///
    /// Budgeted attempts run on detached watchdog threads (a scoped pool
    /// would have to join the hung worker, re-introducing the hang), so
    /// an abandoned attempt's thread leaks until it finishes on its own.
    /// That is the deliberate trade: the sweep makes progress, the OS
    /// reclaims the stragglers at process exit. `0` is clamped to 1 ms.
    pub fn point_budget_ms(mut self, budget_ms: u64) -> Self {
        self.point_budget_ms = Some(budget_ms.max(1));
        self
    }

    /// Installs a fault-injection hook, called at the start of every
    /// attempt inside the point's panic isolation — the chaos harness's
    /// entry point (`seda-adversary`). Production sweeps leave this
    /// unset; it costs nothing when absent.
    pub fn fault_hook(mut self, hook: FaultHook) -> Self {
        self.fault_hook = Some(hook);
        self
    }

    /// Pre-fills points from a checkpoint journal: `Some(runs)` slots are
    /// replayed bit-identically without executing, `None` slots run
    /// normally. The vector must be index-aligned with this sweep's
    /// cross-product (see [`load_journal`](crate::resilience::load_journal)).
    ///
    /// # Panics
    ///
    /// `run` panics if the snapshot length differs from the sweep's
    /// point count — the journal describes a different sweep.
    pub fn resume_from(mut self, points: Vec<Option<Vec<RunResult>>>) -> Self {
        self.resume_from = Some(points);
        self
    }

    /// Streams every freshly-executed successful point (index + runs) to
    /// `sink` as it completes — the checkpoint journal's feed. Resumed
    /// points are not re-streamed (their journal entries already exist).
    /// The sink is called from worker threads and must not panic.
    pub fn stream_to(mut self, sink: impl Fn(usize, &[RunResult]) + Send + Sync + 'static) -> Self {
        self.stream_to = Some(Box::new(sink));
        self
    }

    /// Overrides the per-NPU DRAM configuration. By default every point
    /// uses [`dram_config_for`]; `map` receives each point's NPU and
    /// returns the memory system to simulate instead — the injection
    /// point for timing ablations (e.g. the golden-figure sensitivity
    /// tests, which perturb `t_bl` by one cycle).
    pub fn dram_map(
        mut self,
        map: impl Fn(&NpuConfig) -> DramConfig + Send + Sync + 'static,
    ) -> Self {
        self.dram_map = Some(Box::new(map));
        self
    }

    fn point_count(&self) -> usize {
        self.npus.len() * self.models.len() * self.schemes.len()
    }

    /// The NPU, model and scheme of the point at flat index `idx`.
    fn point(&self, idx: usize) -> (&NpuConfig, &Model, &SchemeSpec) {
        let (n, m, s) = split_index(idx, self.models.len(), self.schemes.len());
        (&self.npus[n], &self.models[m], &self.schemes[s])
    }

    /// Executes the sweep with a private trace cache.
    pub fn run(&self) -> SweepResults {
        self.run_with_cache(&TraceCache::new())
    }

    /// Executes one point end to end under the resilience machinery:
    /// checkpoint replay, fail-fast cancellation, up to `max_attempts`
    /// attempts under the active [`FailurePolicy`] (with the
    /// deterministic backoff account recorded between failed attempts),
    /// and journal streaming.
    ///
    /// Every attempt has one body in two steps. The trace and the DRAM
    /// configuration are fetched on the calling thread: simulation is
    /// deterministic and shared across schemes, so it is not what a
    /// watchdog is for. The fault hook, the scheme build and the kernel
    /// then run on the calling thread or, when a
    /// [`point_budget_ms`](Self::point_budget_ms) is set, on a detached
    /// watchdog thread the sweep abandons once the budget runs out.
    ///
    /// Fault isolation: a panic anywhere inside one attempt — a buggy
    /// scheme factory, a scheme transform, the kernel itself, an injected
    /// chaos fault — is contained to that attempt and surfaces as a typed
    /// error; every other point still completes. Both steps only touch
    /// the immutable trace cache and per-point scheme state, so resuming
    /// after an unwind cannot observe a broken invariant.
    fn execute_point(
        &self,
        idx: usize,
        cache: &TraceCache,
        aborted: &AtomicBool,
    ) -> (Result<Vec<RunResult>, SedaError>, PointReport) {
        if let Some(runs) = self.resume_from.as_ref().and_then(|r| r[idx].clone()) {
            seda_telemetry::counter_add("sweep.points.resumed", 1);
            return (
                Ok(runs),
                PointReport {
                    attempts: Vec::new(),
                    resumed: true,
                    cancelled: false,
                },
            );
        }
        let (npu, model, spec) = self.point(idx);
        let label = || point_label(&npu.name, model.name(), &spec.label);
        if self.policy == FailurePolicy::FailFast && aborted.load(Ordering::SeqCst) {
            seda_telemetry::counter_add("sweep.points.cancelled", 1);
            return (
                Err(SedaError::PointCancelled { point: label() }),
                PointReport {
                    attempts: Vec::new(),
                    resumed: false,
                    cancelled: true,
                },
            );
        }

        let attempt_once = |attempt: u32| -> Result<Vec<RunResult>, SedaError> {
            let (sim, dram_cfg) = catch_unwind(AssertUnwindSafe(|| {
                let sim = cache.get_or_simulate(npu, model);
                let dram_cfg = match &self.dram_map {
                    Some(map) => map(npu),
                    None => dram_config_for(npu),
                };
                (sim, dram_cfg)
            }))
            .map_err(|payload| panic_to_error(label(), payload))?;
            let ctx = PointContext {
                index: idx,
                attempt,
                npu: npu.name.clone(),
                model: model.name().to_owned(),
                scheme: spec.label.clone(),
            };
            let hook = self.fault_hook.clone();
            let build = Arc::clone(&spec.build);
            let (verifier, repeats, npu) = (self.verifier, self.repeats, npu.clone());
            let run = move || {
                catch_unwind(AssertUnwindSafe(|| {
                    if let Some(hook) = &hook {
                        hook(&ctx)?;
                    }
                    let mut scheme = build();
                    try_run_trace(
                        &sim,
                        &npu,
                        scheme.as_mut(),
                        verifier.as_ref(),
                        repeats,
                        dram_cfg,
                    )
                }))
                .unwrap_or_else(|payload| Err(panic_to_error(ctx.label(), payload)))
            };
            let Some(budget_ms) = self.point_budget_ms else {
                return run();
            };
            let (tx, rx) = mpsc::sync_channel(1);
            let spawned = std::thread::Builder::new()
                .name(format!("seda-watchdog-{idx}-a{attempt}"))
                .spawn(move || {
                    // The watchdog may have given up on us; a dead
                    // receiver is fine — the result is simply discarded.
                    let _ = tx.send(run());
                });
            match spawned {
                Err(e) => Err(SedaError::InvalidSpec {
                    reason: format!("cannot spawn watchdog worker for {}: {e}", label()),
                }),
                // Dropping the JoinHandle detaches the worker: on timeout it
                // keeps running (and leaks until it finishes on its own), but
                // the sweep moves on — that is the watchdog contract.
                Ok(_detached) => rx
                    .recv_timeout(Duration::from_millis(budget_ms))
                    .unwrap_or_else(|_| {
                        Err(SedaError::PointTimedOut {
                            point: label(),
                            budget_ms,
                        })
                    }),
            }
        };

        let max = self.policy.max_attempts();
        let mut report = PointReport::default();
        let mut attempt = 0;
        let outcome = loop {
            attempt += 1;
            let _span = seda_telemetry::Span::start("sweep.point_ns");
            let started = Instant::now();
            let outcome = attempt_once(attempt);
            seda_telemetry::record("sweep.attempt_ms", started.elapsed().as_millis() as u64);
            let error = outcome.as_ref().err();
            if matches!(error, Some(SedaError::PointTimedOut { .. })) {
                seda_telemetry::counter_add("sweep.points.timed_out", 1);
            }
            report.attempts.push(AttemptRecord {
                attempt,
                error: error.map(ToString::to_string),
                backoff_ms: error.map_or(0, |_| self.policy.backoff_ms(attempt)),
            });
            if outcome.is_ok() || attempt == max {
                break outcome;
            }
            seda_telemetry::counter_add("sweep.points.retried", 1);
        };
        match &outcome {
            Ok(runs) => {
                seda_telemetry::counter_add("sweep.points.ok", 1);
                if let Some(sink) = &self.stream_to {
                    sink(idx, runs);
                }
            }
            Err(_) => {
                seda_telemetry::counter_add("sweep.points.failed", 1);
                aborted.store(true, Ordering::SeqCst);
            }
        }
        (outcome, report)
    }

    /// Executes the sweep against a caller-owned [`TraceCache`], so
    /// several sweeps (or repeated invocations) share simulations.
    /// Reported [`SweepStats`] cover this execution only.
    ///
    /// # Panics
    ///
    /// Panics if a [`resume_from`](Self::resume_from) snapshot was set
    /// whose length differs from this sweep's point count.
    pub fn run_with_cache(&self, cache: &TraceCache) -> SweepResults {
        let total = self.point_count();
        if let Some(resume) = &self.resume_from {
            assert_eq!(
                resume.len(),
                total,
                "resume snapshot has {} slots but the sweep has {total} points \
                 — the journal describes a different sweep",
                resume.len()
            );
        }
        let (hits0, misses0) = (cache.hits(), cache.misses());
        let threads = self
            .threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .min(total.max(1));

        type Slot = Option<(Result<Vec<RunResult>, SedaError>, PointReport)>;
        let mut slots: Vec<Slot> = Vec::new();
        slots.resize_with(total, || None);
        // Fail-fast latch: once set, workers stop claiming fresh points.
        // Cancellation is cooperative — points already in flight finish —
        // so the exact cancelled set is deterministic only under serial
        // execution.
        let aborted = AtomicBool::new(false);

        {
            // The one worker loop: claim the next unexecuted index until
            // none is left. One worker runs on the calling thread, so a
            // serial sweep executes in index order; more are scoped threads.
            let next = AtomicUsize::new(0);
            let out = Mutex::new(&mut slots);
            let worker = || loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= total {
                    break;
                }
                let point = self.execute_point(idx, cache, &aborted);
                // Invariant: workers never panic while holding the lock
                // (execute_point catches unwinds), so the mutex cannot be
                // poisoned.
                #[allow(clippy::expect_used)]
                let mut guard = out.lock().expect("sweep results poisoned");
                guard[idx] = Some(point);
            };
            if threads == 1 {
                worker();
            } else {
                std::thread::scope(|scope| {
                    for _ in 0..threads {
                        scope.spawn(worker);
                    }
                });
            }
        }

        let mut points = Vec::with_capacity(total);
        let mut reports = Vec::with_capacity(total);
        for slot in slots {
            // Invariant: the work loop above assigns every index in
            // `0..total` exactly once before the scope joins.
            #[allow(clippy::expect_used)]
            let (outcome, report) = slot.expect("every point executed");
            points.push(outcome);
            reports.push(report);
        }

        SweepResults {
            npus: self.npus.iter().map(|n| n.name.clone()).collect(),
            models: self.models.iter().map(|m| m.name().to_owned()).collect(),
            schemes: self.schemes.iter().map(|s| s.label.clone()).collect(),
            points,
            reports,
            stats: SweepStats {
                trace_hits: cache.hits() - hits0,
                trace_misses: cache.misses() - misses0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seda_models::zoo;
    use seda_protect::{BlockMacKind, BlockMacScheme, PROTECTED_BYTES};

    fn headline_sweep() -> Sweep {
        Sweep::new()
            .npus([NpuConfig::edge(), NpuConfig::server()])
            .models([zoo::lenet(), zoo::dlrm()])
            .schemes(crate::experiment::scheme_names())
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        let par = headline_sweep().threads(4).run();
        let ser = headline_sweep().serial().run();
        assert_eq!(par.shape(), ser.shape());
        for (p, s) in par.iter().zip(ser.iter()) {
            assert_eq!(p.0, s.0, "npu order must match");
            assert_eq!(p.1, s.1, "model order must match");
            assert_eq!(p.2, s.2, "scheme order must match");
            for (pr, sr) in p.3.iter().zip(s.3.iter()) {
                assert_eq!(pr.total_cycles, sr.total_cycles);
                assert_eq!(pr.traffic, sr.traffic);
                assert_eq!(
                    pr.layers.iter().map(|l| l.cycles).collect::<Vec<_>>(),
                    sr.layers.iter().map(|l| l.cycles).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn one_simulation_per_distinct_npu_model_pair() {
        let results = headline_sweep().run();
        // 2 NPUs × 2 models = 4 distinct traces; 6 schemes each.
        assert_eq!(results.stats.trace_misses, 4);
        assert_eq!(results.stats.trace_hits, 4 * 6 - 4);
    }

    #[test]
    fn shared_cache_reuses_traces_across_sweeps() {
        let cache = seda_scalesim::TraceCache::new();
        let first = headline_sweep().run_with_cache(&cache);
        let second = headline_sweep().run_with_cache(&cache);
        assert_eq!(first.stats.trace_misses, 4);
        assert_eq!(second.stats.trace_misses, 0, "second sweep is all hits");
    }

    #[test]
    fn custom_scheme_factories_run_per_point() {
        let results = Sweep::new()
            .npu(NpuConfig::edge())
            .models([zoo::lenet(), zoo::dlrm()])
            .scheme("baseline")
            .scheme_with("MGX-128B", || {
                Box::new(BlockMacScheme::new(BlockMacKind::Mgx, 128, PROTECTED_BYTES))
            })
            .run();
        assert_eq!(results.shape(), (1, 2, 2));
        assert_eq!(results.scheme_labels()[1], "MGX-128B");
        for mi in 0..2 {
            let base = results.at(0, mi, 0);
            let mgx = results.at(0, mi, 1);
            assert!(
                mgx.traffic.total() > base.traffic.total(),
                "fresh per-point scheme state must accumulate traffic \
                 independently per workload"
            );
        }
    }

    #[test]
    #[should_panic(expected = "unknown protection scheme")]
    fn unknown_scheme_names_fail_eagerly() {
        let _ = Sweep::new().scheme("definitely-not-a-scheme");
    }

    #[test]
    fn poisoned_point_does_not_take_down_the_sweep() {
        use crate::error::SedaError;
        let results = Sweep::new()
            .npu(NpuConfig::edge())
            .models([zoo::lenet(), zoo::dlrm()])
            .scheme("baseline")
            .scheme_with("poison", || panic!("injected factory failure"))
            .run();
        assert_eq!(results.shape(), (1, 2, 2));
        for mi in 0..2 {
            let healthy = results.outcome(0, mi, 0).expect("baseline still runs");
            assert!(!healthy.is_empty());
            let err = results.outcome(0, mi, 1).expect_err("poisoned point fails");
            assert!(matches!(err, SedaError::PointPanicked { .. }));
            assert!(
                err.to_string().contains("injected factory failure"),
                "panic payload must be captured: {err}"
            );
        }
        let fails: Vec<_> = results.failures().collect();
        assert_eq!(fails.len(), 2, "exactly the poisoned scheme's points");
        assert!(fails.iter().all(|(_, _, scheme, _)| *scheme == "poison"));
    }

    #[test]
    #[should_panic(expected = "sweep point failed")]
    fn panicking_accessor_reports_poisoned_points() {
        let results = Sweep::new()
            .npu(NpuConfig::edge())
            .model(zoo::lenet())
            .scheme_with("poison", || panic!("injected factory failure"))
            .run();
        let _ = results.at(0, 0, 0);
    }

    #[test]
    fn zero_threads_clamps_to_serial() {
        // Regression: `threads(0)` used to hit a bare `assert!`. The
        // documented contract is a clamp to 1, so a zero cap must run and
        // produce results bit-identical to an explicit serial sweep.
        let base = Sweep::new()
            .npu(NpuConfig::edge())
            .model(zoo::lenet())
            .scheme("baseline");
        assert_eq!(base.threads, None);
        let clamped = Sweep::new()
            .npu(NpuConfig::edge())
            .model(zoo::lenet())
            .scheme("baseline")
            .threads(0);
        assert_eq!(clamped.threads, Some(1));
        let zero = clamped.run();
        let serial = Sweep::new()
            .npu(NpuConfig::edge())
            .model(zoo::lenet())
            .scheme("baseline")
            .serial()
            .run();
        assert_eq!(
            zero.at(0, 0, 0).total_cycles,
            serial.at(0, 0, 0).total_cycles
        );
    }

    #[test]
    fn failure_ordering_is_deterministic_under_parallel_execution() {
        let build = || {
            Sweep::new()
                .npus([NpuConfig::edge(), NpuConfig::server()])
                .models([zoo::lenet(), zoo::dlrm()])
                .scheme("baseline")
                .scheme_with("poison-a", || panic!("a down"))
                .scheme_with("poison-b", || panic!("b down"))
        };
        let order = |r: &SweepResults| {
            r.failures()
                .map(|(n, m, s, _)| (n.to_owned(), m.to_owned(), s.to_owned()))
                .collect::<Vec<_>>()
        };
        let serial = order(&build().serial().run());
        assert_eq!(serial.len(), 2 * 2 * 2, "both poisoned schemes, all pairs");
        for round in 0..3 {
            let parallel = order(&build().threads(4).run());
            assert_eq!(
                parallel, serial,
                "failure order must not depend on thread interleaving (round {round})"
            );
        }
    }

    #[test]
    fn outcome_surfaces_every_point_when_all_fail() {
        let results = Sweep::new()
            .npu(NpuConfig::edge())
            .models([zoo::lenet(), zoo::dlrm()])
            .scheme_with("poison-a", || panic!("a down"))
            .scheme_with("poison-b", || panic!("b down"))
            .run();
        let (n, m, s) = results.shape();
        for ni in 0..n {
            for mi in 0..m {
                for si in 0..s {
                    let err = results
                        .outcome(ni, mi, si)
                        .expect_err("every point must fail");
                    assert!(matches!(err, SedaError::PointPanicked { .. }), "{err}");
                }
            }
        }
        assert_eq!(results.failures().count(), n * m * s);
        let report = results.failure_report();
        assert_eq!(report.len(), n * m * s);
        let text = report.render();
        assert!(text.contains("a down") && text.contains("b down"), "{text}");
    }

    #[test]
    fn retry_policy_recovers_transient_faults_bit_identically() {
        use crate::resilience::PointContext;
        let clean = headline_sweep().serial().run();
        let flaky = headline_sweep()
            .serial()
            .fault_hook(Arc::new(|ctx: &PointContext| {
                // Deterministic transient fault on every third point,
                // first attempt only.
                if ctx.index.is_multiple_of(3) && ctx.attempt == 1 {
                    Err(SedaError::InvalidSpec {
                        reason: format!("transient fault at {}", ctx.label()),
                    })
                } else {
                    Ok(())
                }
            }))
            .on_failure(FailurePolicy::Retry {
                max_attempts: 3,
                base_backoff_ms: 5,
            })
            .run();
        assert!(
            flaky.failure_report().is_empty(),
            "all faults are transient"
        );
        for (c, f) in clean.iter().zip(flaky.iter()) {
            assert_eq!((c.0, c.1, c.2), (f.0, f.1, f.2));
            assert_eq!(c.3, f.3, "retried results must be bit-identical");
        }
        for (i, r) in flaky.reports().iter().enumerate() {
            let expected = if i.is_multiple_of(3) { 2 } else { 1 };
            assert_eq!(r.attempts_made(), expected, "point {i}");
            if i.is_multiple_of(3) {
                assert_eq!(r.attempts[0].backoff_ms, 5, "jitter-free base backoff");
                assert!(r.attempts[0]
                    .error
                    .as_deref()
                    .is_some_and(|e| e.contains("transient fault")));
            }
        }
    }

    #[test]
    fn watchdog_converts_stalls_into_typed_timeouts_and_retries_recover() {
        use crate::resilience::PointContext;
        let results = Sweep::new()
            .npu(NpuConfig::edge())
            .model(zoo::lenet())
            .scheme("baseline")
            .serial()
            .fault_hook(Arc::new(|ctx: &PointContext| {
                if ctx.attempt == 1 {
                    // Hang well past the budget; the second attempt is
                    // stall-free and must succeed within it.
                    std::thread::sleep(Duration::from_millis(4000));
                }
                Ok(())
            }))
            .point_budget_ms(500)
            .on_failure(FailurePolicy::Retry {
                max_attempts: 2,
                base_backoff_ms: 7,
            })
            .run();
        assert!(results.outcome(0, 0, 0).is_ok(), "retry recovers the stall");
        let report = results.report_at(0, 0, 0);
        assert_eq!(report.attempts_made(), 2);
        assert!(
            report.attempts[0]
                .error
                .as_deref()
                .is_some_and(|e| e.contains("watchdog")),
            "{report:?}"
        );
        assert_eq!(report.attempts[0].backoff_ms, 7);
        assert_eq!(report.total_backoff_ms(), 7);
    }

    #[test]
    fn fail_fast_cancels_the_remaining_points_serially() {
        let results = Sweep::new()
            .npu(NpuConfig::edge())
            .model(zoo::lenet())
            .scheme_with("poison", || panic!("down"))
            .scheme("baseline")
            .scheme("SeDA")
            .serial()
            .on_failure(FailurePolicy::FailFast)
            .run();
        assert!(matches!(
            results.outcome(0, 0, 0),
            Err(SedaError::PointPanicked { .. })
        ));
        for si in 1..3 {
            let err = results.outcome(0, 0, si).expect_err("cancelled");
            assert!(matches!(err, SedaError::PointCancelled { .. }), "{err}");
            assert!(results.report_at(0, 0, si).cancelled);
        }
        let report = results.failure_report();
        assert_eq!(report.len(), 3, "cancelled points appear in the report");
        assert_eq!(report.failures[0].attempts, 1);
        assert_eq!(report.failures[1].attempts, 0, "never started");
    }

    #[test]
    fn resume_prefill_replays_checkpointed_points_and_streams_the_rest() {
        let clean = headline_sweep().serial().run();
        let total = 2 * 2 * 6;
        // Checkpoint every even point; the resumed sweep must execute
        // only the odd ones, and the combined result must be
        // bit-identical to the clean run.
        let prefill: Vec<Option<Vec<RunResult>>> = (0..total)
            .map(|i: usize| {
                (i.is_multiple_of(2)).then(|| clean.points[i].as_ref().expect("clean run").clone())
            })
            .collect();
        let streamed = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&streamed);
        let resumed = headline_sweep()
            .serial()
            .resume_from(prefill)
            .stream_to(move |i, _runs| sink.lock().expect("sink lock").push(i))
            .run();
        assert_eq!(resumed.resumed_count(), total / 2);
        for i in 0..total {
            assert_eq!(
                resumed.points[i].as_ref().expect("all green"),
                clean.points[i].as_ref().expect("all green"),
                "point {i}"
            );
        }
        let mut got = streamed.lock().expect("sink lock").clone();
        got.sort_unstable();
        let expected: Vec<usize> = (0..total).filter(|i| i % 2 == 1).collect();
        assert_eq!(got, expected, "only freshly-executed points stream");
    }

    #[test]
    #[should_panic(expected = "different sweep")]
    fn mismatched_resume_snapshot_is_rejected() {
        let _ = Sweep::new()
            .npu(NpuConfig::edge())
            .model(zoo::lenet())
            .scheme("baseline")
            .resume_from(vec![None, None])
            .run();
    }
}
