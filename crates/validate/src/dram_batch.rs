//! Differential conformance oracle for the batched DRAM replay kernel.
//!
//! [`DramSim::run_batch`] coalesces streaming streaks into closed-form
//! timing updates; this family replays every generated stream through
//! both the exact per-access kernel and the batched kernel from identical
//! cold starts and demands *bit-identical* outcomes: [`seda_dram::DramStats`], the
//! elapsed channel clock, per-bank occupancy, and the full telemetry
//! snapshot ([`DramSim::emit_telemetry_to`] into a private sink, so the
//! comparison never races the process-global one).
//!
//! Streams are chosen to hit every fast-path boundary: pure streaming
//! (maximum coalescing), row thrash (no coalescing), refresh-straddling
//! runs (the closed form's period walk), multi-channel interleave (the
//! per-channel decomposition), random scatter, singleton-heavy hot-line
//! revisits, short mixed streaks (the in-place short-streak step), and
//! read/write turnaround. Every stream is additionally replayed
//! pre-packed through [`DramSim::run_batch_packed`], and run-encoded
//! through [`DramSim::run_runs`] — the entry point the pipeline drives —
//! on a random split of its runs (maximal, non-maximal or
//! singleton-heavy), and held to the same bit-identity bar. The random
//! configs include the degenerate `t_rfc >= t_refi` case, where both
//! batched entry points must fall back to the exact kernel.

use crate::ensure;
use seda_adversary::Rng;
use seda_dram::{DramConfig, DramSim, Request, Run, RunBuf, ACCESS_BYTES};
use seda_telemetry::SharedSink;

/// A randomized organization biased toward fast-path boundaries:
/// multi-channel interleave, small rows (frequent row changes), short
/// refresh intervals (frequent window straddles), and the degenerate
/// `t_rfc >= t_refi` case the batched kernel must refuse to coalesce.
fn random_config(rng: &mut Rng) -> DramConfig {
    let channels = *rng.pick(&[1u32, 2, 4, 8]);
    let mut cfg = DramConfig::ddr4_with_bandwidth(channels, 1.0e9 * rng.range(4, 24) as f64);
    cfg.banks = *rng.pick(&[4u32, 8, 16]);
    cfg.ranks = *rng.pick(&[1u32, 2]);
    cfg.row_bytes = *rng.pick(&[1024u64, 2048, 8192]);
    cfg.t_bl = *rng.pick(&[1u64, 2, 4, 8]);
    cfg.t_wr = rng.range(0, 20);
    match rng.below(4) {
        0 => cfg.t_refi = 0, // refresh disabled
        1 => {
            // Aggressive refresh: streaks straddle many windows.
            cfg.t_refi = rng.range(100, 1200);
            cfg.t_rfc = rng.range(1, cfg.t_refi - 1);
        }
        2 => {
            // Pathological: the blocking window covers the whole interval,
            // which forces run_batch onto its exact per-access fallback.
            cfg.t_refi = rng.range(16, 64);
            cfg.t_rfc = cfg.t_refi + rng.range(0, 8);
        }
        _ => {} // DDR4 defaults
    }
    cfg
}

/// The generated stream shapes, one per oracle emphasis.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Long sequential runs — maximum coalescing.
    Streaming,
    /// Alternating far-apart rows on one bank — zero coalescing.
    RowThrash,
    /// Sequential runs long enough to straddle refresh windows.
    RefreshStraddle,
    /// Sequential runs, so every consecutive pair lands on a different
    /// channel — exercises the per-channel streak decomposition.
    Interleave,
    /// Uniform scatter with mixed directions.
    Random,
    /// A small pool of hot lines revisited in scattered order — every
    /// access is a one-request streak, but keys recur, so the short-streak
    /// step's same-key closed-form hits and read/write turnaround logic
    /// run on singleton-heavy traffic.
    Singleton,
    /// Runs of 2–4 sequential lines with frequent direction flips and
    /// jumps between runs — streaks too short for the closed form, so
    /// everything replays through the short-streak step.
    ShortMixed,
}

const SHAPES: [Shape; 7] = [
    Shape::Streaming,
    Shape::RowThrash,
    Shape::RefreshStraddle,
    Shape::Interleave,
    Shape::Random,
    Shape::Singleton,
    Shape::ShortMixed,
];

fn stream_of(shape: Shape, rng: &mut Rng, cfg: &DramConfig, len: usize) -> Vec<Request> {
    let mut stream = Vec::with_capacity(len);
    match shape {
        Shape::Streaming | Shape::Interleave => {
            // One long sequential walk with occasional direction flips and
            // rare jumps; under a multi-channel config this *is* the
            // interleave case, since consecutive lines alternate channels.
            let mut addr = rng.below(1 << 22) * ACCESS_BYTES;
            let mut write = false;
            while stream.len() < len {
                if rng.coin(1, 64) {
                    addr = rng.below(1 << 22) * ACCESS_BYTES;
                }
                if rng.coin(1, 24) {
                    write = !write;
                }
                stream.push(Request {
                    addr,
                    is_write: write,
                });
                addr += ACCESS_BYTES;
            }
        }
        Shape::RowThrash => {
            // Two rows of the same bank: every access conflicts, so the
            // batched path must degrade to the exact kernel per request.
            let row_span = cfg.row_bytes / ACCESS_BYTES * u64::from(cfg.channels) * ACCESS_BYTES;
            let bank_span = row_span * u64::from(cfg.banks) * u64::from(cfg.ranks);
            let base = rng.below(1 << 12) * bank_span;
            for i in 0..len {
                let row = (i as u64 % 2) * bank_span;
                stream.push(Request::read(base + row));
            }
        }
        Shape::RefreshStraddle => {
            // Long same-row bursts: with a short t_refi each burst crosses
            // several refresh windows, exercising the closed-form walk.
            let mut addr = rng.below(1 << 20) * ACCESS_BYTES;
            while stream.len() < len {
                for _ in 0..rng.range(64, 256) {
                    stream.push(Request::read(addr));
                    addr += ACCESS_BYTES;
                }
                addr += rng.below(1 << 16) * ACCESS_BYTES;
            }
            stream.truncate(len);
        }
        Shape::Random => {
            for _ in 0..len {
                let addr = rng.below(1 << 22) * ACCESS_BYTES;
                stream.push(if rng.coin(1, 3) {
                    Request::write(addr)
                } else {
                    Request::read(addr)
                });
            }
        }
        Shape::Singleton => {
            let pool: Vec<u64> = (0..32).map(|_| rng.below(1 << 22) * ACCESS_BYTES).collect();
            for _ in 0..len {
                let addr = *rng.pick(&pool);
                stream.push(if rng.coin(1, 2) {
                    Request::write(addr)
                } else {
                    Request::read(addr)
                });
            }
        }
        Shape::ShortMixed => {
            let mut write = false;
            while stream.len() < len {
                let mut addr = rng.below(1 << 22) * ACCESS_BYTES;
                if rng.coin(1, 2) {
                    write = !write;
                }
                for _ in 0..rng.range(2, 4) {
                    stream.push(Request {
                        addr,
                        is_write: write,
                    });
                    addr += ACCESS_BYTES;
                }
            }
            stream.truncate(len);
        }
    }
    stream
}

/// Replays `stream` through the exact per-access kernel.
fn replay_exact(cfg: &DramConfig, stream: &[Request]) -> DramSim {
    let mut sim = DramSim::new(cfg.clone());
    for req in stream {
        sim.access(*req);
    }
    sim
}

/// Replays `stream` through the batched kernel, split at a random point
/// so streaks also cross `run_batch` call boundaries.
fn replay_batched(cfg: &DramConfig, stream: &[Request], split: usize) -> DramSim {
    let mut sim = DramSim::new(cfg.clone());
    let (a, b) = stream.split_at(split.min(stream.len()));
    sim.run_batch(a);
    sim.run_batch(b);
    sim
}

/// Replays `stream` pre-packed through `run_batch_packed`, split at the
/// same point as [`replay_batched`], as a lowered trace's per-line view
/// drives the kernel.
fn replay_packed(cfg: &DramConfig, stream: &[Request], split: usize) -> DramSim {
    let packed: Vec<u64> = stream.iter().map(|r| r.pack()).collect();
    let mut sim = DramSim::new(cfg.clone());
    let (a, b) = packed.split_at(split.min(packed.len()));
    sim.run_batch_packed(a);
    sim.run_batch_packed(b);
    sim
}

/// Encodes `stream` as runs and cuts them at random points, so
/// `run_runs` sees every split a caller could hand it: maximal runs
/// (which straddle super-row region boundaries wherever the stream
/// does), runs cut at random lengths, and singleton-heavy splits. The
/// result is then replayed in two `run_runs` calls, split at a random
/// run index.
fn random_runs(rng: &mut Rng, stream: &[Request]) -> Vec<Run> {
    let mut buf = RunBuf::new();
    for &r in stream {
        buf.push(r);
    }
    let mode = rng.below(3);
    let mut runs = Vec::new();
    for run in buf.runs() {
        let (mut head, mut left) = (run.head, run.len);
        while left > 0 {
            let len = match mode {
                0 => left,
                1 => rng.range(1, left),
                _ if rng.coin(3, 4) => 1,
                _ => left,
            };
            runs.push(Run { head, len });
            head += 2 * len;
            left -= len;
        }
    }
    runs
}

/// Replays `runs` through `run_runs` in two calls split at run `split`.
fn replay_runs(cfg: &DramConfig, runs: &[Run], split: usize) -> DramSim {
    let mut sim = DramSim::new(cfg.clone());
    let (a, b) = runs.split_at(split.min(runs.len()));
    sim.run_runs(a);
    sim.run_runs(b);
    sim
}

fn telemetry_snapshot(sim: &DramSim) -> seda_telemetry::Snapshot {
    let sink = SharedSink::new();
    sim.emit_telemetry_to(&sink);
    sink.snapshot()
}

/// Holds `kernel`'s replay to the exact kernel's: stats, elapsed clock,
/// per-bank occupancy and telemetry snapshot, bit for bit.
fn ensure_identical(ctx: &str, kernel: &str, exact: &DramSim, sim: &DramSim) -> Result<(), String> {
    ensure!(
        exact.stats() == sim.stats(),
        "{ctx}: {kernel} stats diverge\n  exact: {:?}\n  {kernel}: {:?}",
        exact.stats(),
        sim.stats()
    );
    ensure!(
        exact.elapsed_cycles() == sim.elapsed_cycles(),
        "{ctx}: elapsed {} (exact) != {} ({kernel})",
        exact.elapsed_cycles(),
        sim.elapsed_cycles()
    );
    ensure!(
        exact.bank_occupancy_cycles() == sim.bank_occupancy_cycles(),
        "{ctx}: {kernel} per-bank occupancy diverges"
    );
    ensure!(
        telemetry_snapshot(exact) == telemetry_snapshot(sim),
        "{ctx}: {kernel} telemetry snapshots diverge\n  exact: {}\n  {kernel}: {}",
        telemetry_snapshot(exact).to_json(),
        telemetry_snapshot(sim).to_json()
    );
    Ok(())
}

/// One randomized case: one config, every stream shape, bit-identity
/// of the batched kernel (per-line and run-encoded) against the exact
/// kernel on each.
pub fn check_case(rng: &mut Rng) -> Result<(), String> {
    let cfg = random_config(rng);
    for shape in SHAPES {
        let stream = stream_of(shape, rng, &cfg, 1500);
        let split = rng.below(stream.len() as u64 + 1) as usize;
        let runs = random_runs(rng, &stream);
        let run_split = rng.below(runs.len() as u64 + 1) as usize;
        let ctx = format!(
            "{shape:?}: channels={} ranks={} banks={} row={} t_bl={} t_wr={} \
             t_refi={} t_rfc={} split={split} runs={} run_split={run_split}",
            cfg.channels,
            cfg.ranks,
            cfg.banks,
            cfg.row_bytes,
            cfg.t_bl,
            cfg.t_wr,
            cfg.t_refi,
            cfg.t_rfc,
            runs.len()
        );
        ensure!(
            seda_dram::run::expand(&runs).eq(stream.iter().map(|r| r.pack())),
            "{ctx}: the run split does not expand to the stream"
        );

        let exact = replay_exact(&cfg, &stream);
        ensure_identical(
            &ctx,
            "batched",
            &exact,
            &replay_batched(&cfg, &stream, split),
        )?;
        ensure_identical(&ctx, "packed", &exact, &replay_packed(&cfg, &stream, split))?;
        ensure_identical(&ctx, "runs", &exact, &replay_runs(&cfg, &runs, run_split))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::{run_family, Family};

    #[test]
    fn dram_batch_family_passes_fixed_seed() {
        let report = run_family(
            Family::DramBatch,
            0xD1FF_0005,
            Family::DramBatch.default_cases(),
        );
        assert!(report.passed(), "{report}");
    }
}
