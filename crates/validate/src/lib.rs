//! Randomized differential validation harness for the SeDA workspace.
//!
//! The repository carries two implementations of nearly every claim — an
//! analytical and a cycle-accurate compute model, a streamed and a
//! per-segment B-AES pad path, scheme-level traffic models and the
//! functional crypto path — and this crate cross-checks them with seeded
//! randomized oracles instead of hand-picked shapes. Twelve families:
//!
//! * [`gemm`] — `exact_gemm` vs `gemm_cycles` and MAC totals over random
//!   shapes for both dataflows, including fold/remainder edges.
//! * [`otp`] — `BandwidthAwareOtp::apply` vs the `segment_otp` reference
//!   across block sizes spanning multiple key-schedule groups, plus
//!   pairwise-distinctness, roundtrip, and evaluation-count properties
//!   for all three OTP strategies.
//! * [`schemes`] — traffic-conservation invariants for every
//!   [`seda_protect::ProtectionScheme`]: demand bytes preserved, every
//!   emitted request attributed in the [`seda_protect::TrafficBreakdown`],
//!   SeDA never overfetching, SGX/MGX metadata matching the `MetaCache`
//!   hit/miss accounting.
//! * [`meta_cache`] — the recency-ordered `MetaCache` against the
//!   map-based model it replaced: identical access results, stats and
//!   flushes over the lineup's VN and MAC geometries, a non-power-of-two
//!   geometry and random ones, with hot-set, thrash, sequential and
//!   random streams, and `access_run` equal to the repeated accesses it
//!   stands for.
//! * [`dram`] — DRAM timing invariants (monotone channel clocks, burst
//!   length from config, refresh-window exclusion, achieved bandwidth at
//!   or below peak) over randomized request streams.
//! * [`dram_batch`] — the batched replay kernels (`DramSim::run_batch`,
//!   `run_batch_packed` and `run_runs`) against the exact per-access
//!   kernel: bit-identical stats, elapsed clock, bank occupancy, and
//!   telemetry snapshots over streaming, row-thrash, refresh-straddling,
//!   channel-interleaved, and random streams.
//! * [`runs`] — run-encoded lowering and replay against the per-line
//!   view: random bursts through every scheme kind (random granularities
//!   and metadata-cache sizes) give canonical runs that expand to
//!   `LoweredTrace::layer`, and `DramSim::run_runs` ends every layer on
//!   the same clock and stats as `run_batch_packed`. Case 0 is a real
//!   trace (NCF on the server NPU).
//! * [`pipeline`] — `run_trace` totals invariant under `TraceCache` reuse
//!   and sweep parallelism, and equal to a whole-layer `LoweredTrace`
//!   replay however the kernel chunks a layer.
//! * [`adversary`] — random fault-injection cells from `seda-adversary`'s
//!   detection matrix must match their paper-claimed verdicts without
//!   panicking, and random byte flips against the functional
//!   `run_protected` path must either abort with a typed integrity error
//!   or finish bit-identical to the unprotected reference.
//! * [`resilience`] — chaos-injected sweeps (seeded panics, typed errors,
//!   stalls from `seda-adversary`'s [`seda_adversary::chaos::FaultPlan`])
//!   must recover bit-identically under `retry`, degrade to exactly the
//!   planned failures under `skip`, and resume from a
//!   `seda-checkpoint/v1` journal without re-executing finished points.
//!   Case 0 is the headline proof on the paper's full sweep.
//! * [`serving`] — `seda-serve`'s event-driven kernel against its
//!   brute-force 1-cycle time-stepped reference over small random
//!   multi-tenant specs (every scheduler, open- and closed-loop
//!   arrivals, batching, preemption): completion times, queue-depth
//!   traces, latency histograms, busy cycles, and event counts must be
//!   bit-identical.
//! * [`stream`] — `seda-stream`'s sealed provisioning path: streamed
//!   unsealing bit-identical to at-rest sealing over random geometries
//!   and protection configs, chunk-size invariance, and every tamper
//!   class (bit flip, MAC corruption, reorder, truncation, cross-stream
//!   splice, stale-epoch replay) rejected with a typed error under
//!   `catch_unwind`.
//!
//! Every family is a pure function of a `(seed, cases)` pair, so a CI
//! failure reproduces locally with the seeded CLI:
//!
//! ```text
//! cargo run --release -p seda-validate -- --family gemm --seed 42 --cases 64
//! ```
//!
//! Each case derives its own sub-seed from `(seed, case index)`; failure
//! messages carry both so one case can be replayed in isolation with
//! `--seed <seed> --case <index>`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod dram;
pub mod dram_batch;
pub mod gemm;
pub mod meta_cache;
pub mod otp;
pub mod pipeline;
pub mod resilience;
pub mod runs;
pub mod schemes;
pub mod serving;
pub mod stream;

use seda_adversary::Rng;
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

/// The twelve oracle/invariant families of the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Cycle-accurate vs analytical systolic-array model.
    Gemm,
    /// OTP strategies: streamed vs reference pads, distinctness, counts.
    Otp,
    /// Protection-scheme traffic conservation and attribution.
    Schemes,
    /// Flat vs map-based metadata cache, bit for bit.
    MetaCache,
    /// DRAM timing invariants over random request streams.
    Dram,
    /// Batched vs per-access DRAM replay kernels, bit for bit.
    DramBatch,
    /// Run-encoded vs per-line lowering and replay, bit for bit.
    Runs,
    /// Pipeline totals under trace caching and sweep parallelism.
    Pipeline,
    /// Fault-injection verdicts vs the paper-claimed detection matrix.
    Adversary,
    /// Chaos-injected sweeps: retry/skip/resume recovery, bit for bit.
    Resilience,
    /// Event-driven vs time-stepped serving kernels, bit for bit.
    Serving,
    /// Streamed vs at-rest model sealing, plus stream tamper rejection.
    Stream,
}

impl Family {
    /// All families in canonical order.
    pub fn all() -> [Family; 12] {
        [
            Family::Gemm,
            Family::Otp,
            Family::Schemes,
            Family::MetaCache,
            Family::Dram,
            Family::DramBatch,
            Family::Runs,
            Family::Pipeline,
            Family::Adversary,
            Family::Resilience,
            Family::Serving,
            Family::Stream,
        ]
    }

    /// The family's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Family::Gemm => "gemm",
            Family::Otp => "otp",
            Family::Schemes => "schemes",
            Family::MetaCache => "meta-cache",
            Family::Dram => "dram",
            Family::DramBatch => "dram-batch",
            Family::Runs => "runs",
            Family::Pipeline => "pipeline",
            Family::Adversary => "adversary",
            Family::Resilience => "resilience",
            Family::Serving => "serving",
            Family::Stream => "stream",
        }
    }

    /// Parses a CLI name (`gemm`, `otp`, `schemes`, `meta-cache`, `dram`,
    /// `dram-batch`, `runs`, `pipeline`, `adversary`, `resilience`, `serving`,
    /// `stream`).
    pub fn parse(s: &str) -> Option<Family> {
        Family::all().into_iter().find(|f| f.name() == s)
    }

    /// A sensible default case count: the heavier families (which replay
    /// full DRAM traces per case) run fewer cases for the same wall-clock.
    pub fn default_cases(self) -> u32 {
        match self {
            Family::Gemm => 48,
            Family::Otp => 48,
            Family::Schemes => 32,
            Family::MetaCache => 96,
            Family::Dram => 12,
            Family::DramBatch => 12,
            Family::Runs => 64,
            Family::Pipeline => 4,
            Family::Adversary => 16,
            // Case 0 alone runs three full headline sweeps.
            Family::Resilience => 4,
            // Each case brute-force steps a full serving run.
            Family::Serving => 24,
            Family::Stream => 24,
        }
    }
}

/// One failed case: which case, its sub-seed, and what went wrong.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Case index within the run (replay with `--case`).
    pub case: u32,
    /// The case's derived sub-seed.
    pub sub_seed: u64,
    /// Human-readable description of the violated invariant, including
    /// the generated inputs.
    pub message: String,
}

/// Outcome of running one family.
#[derive(Debug, Clone)]
pub struct Report {
    /// Family that ran.
    pub family: Family,
    /// Root seed of the run.
    pub seed: u64,
    /// Number of cases executed.
    pub cases: u32,
    /// Every violated invariant, in case order.
    pub failures: Vec<Failure>,
}

impl Report {
    /// Whether every case passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:8} seed={:#x} cases={:3} ... {}",
            self.family.name(),
            self.seed,
            self.cases,
            if self.passed() {
                "ok".to_owned()
            } else {
                format!("{} FAILED", self.failures.len())
            }
        )?;
        for fail in &self.failures {
            write!(
                f,
                "\n  case {} (sub-seed {:#x}): {}",
                fail.case, fail.sub_seed, fail.message
            )?;
        }
        Ok(())
    }
}

/// Runs `cases` cases of `family` under `seed`. A case that panics is
/// reported as a failure with its panic message; the run goes on.
pub fn run_family(family: Family, seed: u64, cases: u32) -> Report {
    Report {
        family,
        seed,
        cases,
        failures: collect_failures(seed, 0..cases, |case| run_case(family, seed, case)),
    }
}

/// Replays one case of `family` under `seed` — the CLI's `--case` flag —
/// through the same runner as [`run_family`], so a case that panics
/// comes back as a [`Failure`] with its panic message.
pub fn replay_case(family: Family, seed: u64, case: u32) -> Option<Failure> {
    collect_failures(seed, case..=case, |case| run_case(family, seed, case)).pop()
}

thread_local! {
    /// Whether this thread is running a case under [`collect_failures`].
    static IN_CASE: Cell<bool> = const { Cell::new(false) };
    /// The last panic of the running case, as `message at location`,
    /// stored by the hook [`quiet_case_panics`] installs.
    static CASE_PANIC: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Installs, once per process, a panic hook that stores a panic on a
/// thread running a case into [`CASE_PANIC`] and prints nothing: the
/// case's [`Failure`] carries it. Panics on every other thread go to
/// the previous hook.
fn quiet_case_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_CASE.with(Cell::get) {
                return previous(info);
            }
            let location = info
                .location()
                .map_or_else(|| "an unknown location".to_owned(), ToString::to_string);
            let text = format!("{} at {location}", panic_message(info.payload()));
            CASE_PANIC.with(|p| *p.borrow_mut() = Some(text));
        }));
    });
}

/// Runs `cases` through `run_case` under `catch_unwind` and collects
/// every failed or panicked case in case order. A case's panic reaches
/// its [`Failure`] with the panic's location, not stderr; a panic the
/// case caught itself is appended to the case's error, if it fails.
fn collect_failures(
    seed: u64,
    cases: impl Iterator<Item = u32>,
    run_case: impl Fn(u32) -> Result<(), String>,
) -> Vec<Failure> {
    quiet_case_panics();
    cases
        .filter_map(|case| {
            IN_CASE.with(|c| c.set(true));
            let outcome = catch_unwind(AssertUnwindSafe(|| run_case(case)));
            IN_CASE.with(|c| c.set(false));
            let caught = CASE_PANIC.with(|p| p.borrow_mut().take());
            let message = match (outcome, caught) {
                (Ok(Ok(())), _) => return None,
                (Ok(Err(message)), None) => message,
                (Ok(Err(message)), Some(text)) => format!("{message} (panicked: {text})"),
                (Err(_), Some(text)) => format!("panicked: {text}"),
                (Err(payload), None) => format!("panicked: {}", panic_message(&*payload)),
            };
            Some(Failure {
                case,
                sub_seed: Rng::sub_seed(seed, u64::from(case)),
                message,
            })
        })
        .collect()
}

/// The text of a panic payload (`panic!` yields a `&str` or a `String`).
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Runs a single case of `family` — the replay entry point behind the
/// CLI's `--case` flag.
pub fn run_case(family: Family, seed: u64, case: u32) -> Result<(), String> {
    // The resilience family pins its headline chaos-recovery proof to
    // case 0 (a fixed sweep, not a randomized draw) so CI always runs it.
    if family == Family::Resilience && case == 0 {
        return resilience::headline_proof(seed);
    }
    // Likewise the runs family checks a real model trace in case 0.
    if family == Family::Runs && case == 0 {
        return runs::real_trace(seed);
    }
    let mut rng = Rng::for_stream(seed, u64::from(case));
    // The meta-cache family's first cases use fixed cache geometries.
    if family == Family::MetaCache {
        return meta_cache::check_case_at(case, &mut rng);
    }
    checker(family)(&mut rng)
}

fn checker(family: Family) -> fn(&mut Rng) -> Result<(), String> {
    match family {
        Family::Gemm => gemm::check_case,
        Family::Otp => otp::check_case,
        Family::Schemes => schemes::check_case,
        Family::MetaCache => meta_cache::check_case,
        Family::Dram => dram::check_case,
        Family::DramBatch => dram_batch::check_case,
        Family::Runs => runs::check_case,
        Family::Pipeline => pipeline::check_case,
        Family::Adversary => adversary::check_case,
        Family::Resilience => resilience::check_case,
        Family::Serving => serving::check_case,
        Family::Stream => stream::check_case,
    }
}

/// Asserts an invariant inside a check, formatting the failure context.
#[macro_export]
macro_rules! ensure {
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return Err(format!($($fmt)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_names_round_trip() {
        for f in Family::all() {
            assert_eq!(Family::parse(f.name()), Some(f));
        }
        assert_eq!(Family::parse("nope"), None);
    }

    /// The English count word `DESIGN.md` and the crate doc use for the
    /// number of families, capitalized.
    fn count_word(n: usize) -> &'static str {
        "Zero One Two Three Four Five Six Seven Eight Nine Ten Eleven Twelve Thirteen \
         Fourteen Fifteen Sixteen Seventeen Eighteen Nineteen Twenty"
            .split(' ')
            .nth(n)
            .expect("a count word up to twenty")
    }

    #[test]
    fn documented_families_match_the_code() {
        let names: Vec<&str> = Family::all().iter().map(|f| f.name()).collect();
        let counted = format!("{} families:", count_word(names.len()));

        // DESIGN.md's `## Validation` section: one `* **name**` bullet
        // per family, in `Family::all()` order, under the count word.
        let design = include_str!("../../../DESIGN.md");
        let section = design
            .split("\n## Validation\n")
            .nth(1)
            .and_then(|rest| rest.split("\n## ").next())
            .expect("DESIGN.md has a `## Validation` section");
        let bullets: Vec<&str> = section
            .lines()
            .filter_map(|l| l.strip_prefix("* **")?.split("**").next())
            .collect();
        assert_eq!(bullets, names, "DESIGN.md `## Validation` bullets");
        assert!(section.contains(&counted), "DESIGN.md must say {counted:?}");

        // This crate's doc: one `* [`module`]` bullet per family.
        let crate_doc: String = include_str!("lib.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("//!"))
            .collect::<Vec<_>>()
            .join("\n");
        let modules: Vec<String> = crate_doc
            .lines()
            .filter_map(|l| l.strip_prefix(" * [`")?.split('`').next())
            .map(|m| m.replace('_', "-"))
            .collect();
        assert_eq!(modules, names, "crate doc family bullets");
        assert!(
            crate_doc.contains(&counted),
            "crate doc must say {counted:?}"
        );
    }

    #[test]
    fn a_panicking_case_is_reported_and_the_run_goes_on() {
        let failures = collect_failures(9, 0..4, |case| match case {
            1 => panic!("case one blew up"),
            2 => Err("case two failed".to_owned()),
            _ => Ok(()),
        });
        let got: Vec<(u32, u64, &str)> = failures
            .iter()
            .map(|f| (f.case, f.sub_seed, f.message.as_str()))
            .collect();
        assert_eq!(got.len(), 2, "{got:?}");
        assert_eq!((got[0].0, got[0].1), (1, Rng::sub_seed(9, 1)));
        // The hook's location, not a stderr trace, tells where it blew up.
        let at = format!("panicked: case one blew up at {}:", file!());
        assert!(got[0].2.starts_with(&at), "{:?} lacks {at:?}", got[0].2);
        assert_eq!(got[1], (2, Rng::sub_seed(9, 2), "case two failed"));
    }

    #[test]
    fn a_panic_the_case_caught_itself_joins_its_error() {
        let failures = collect_failures(9, 0..2, |case| {
            let inner = catch_unwind(|| panic!("inner {case}"));
            match case {
                0 => Ok(()),
                _ => inner.map_err(|_| "the inner call panicked".to_owned()),
            }
        });
        assert_eq!(failures.len(), 1);
        let message = &failures[0].message;
        assert!(
            message.starts_with("the inner call panicked (panicked: inner 1 at ")
                && message.contains(file!()),
            "{message}"
        );
    }

    #[test]
    fn a_panicking_replayed_case_is_a_failure() {
        // `replay_case` runs its one case exactly like this.
        let failed = collect_failures(9, 3..=3, |_| panic!("case three blew up")).pop();
        let failed = failed.expect("a panicking case is a failure");
        assert_eq!((failed.case, failed.sub_seed), (3, Rng::sub_seed(9, 3)));
        assert!(
            failed
                .message
                .starts_with("panicked: case three blew up at ")
                && failed.message.contains(file!()),
            "{}",
            failed.message
        );
    }

    #[test]
    fn reports_are_deterministic_per_seed() {
        let a = run_family(Family::Otp, 7, 4);
        let b = run_family(Family::Otp, 7, 4);
        assert_eq!(a.passed(), b.passed());
        assert_eq!(a.failures.len(), b.failures.len());
    }
}
