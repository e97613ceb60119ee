//! DRAM timing invariants over randomized request streams.
//!
//! The controller model is approximate by design, but some properties are
//! not negotiable whatever the configuration: a 64 B transfer occupies a
//! channel's data bus for exactly `t_bl` cycles, transfers on one channel
//! never overlap, no burst starts inside a refresh window, channel clocks
//! only move forward, and the achieved bandwidth never exceeds what the
//! bus could physically carry.

use crate::ensure;
use seda_adversary::Rng;
use seda_dram::{DramConfig, DramSim, Request, ACCESS_BYTES};

/// A randomized but physically sensible configuration, including
/// refresh-disabled and non-default burst-length variants.
fn random_config(rng: &mut Rng) -> DramConfig {
    // Address decoding is bit-sliced, so organization dims must be powers
    // of two.
    let channels = *rng.pick(&[1u32, 2, 4]);
    let mut cfg = DramConfig::ddr4_with_bandwidth(channels, 1.0e9 * rng.range(4, 24) as f64);
    cfg.banks = *rng.pick(&[4u32, 8, 16]);
    cfg.row_bytes = *rng.pick(&[2048u64, 4096, 8192]);
    cfg.t_bl = *rng.pick(&[2u64, 4, 8]);
    match rng.below(3) {
        0 => cfg.t_refi = 0, // refresh disabled
        1 => {
            // Aggressive refresh: short interval, long blocking window,
            // so many transfers actually collide with it.
            cfg.t_refi = rng.range(200, 2000);
            cfg.t_rfc = rng.range(1, cfg.t_refi / 2);
        }
        _ => {} // DDR4 defaults from the constructor
    }
    cfg
}

/// A stream mixing streaming runs (row hits) with random scatter
/// (conflicts) and writes.
fn random_stream(rng: &mut Rng, len: usize) -> Vec<Request> {
    let mut stream = Vec::with_capacity(len);
    let mut addr = rng.below(1 << 24) * ACCESS_BYTES;
    while stream.len() < len {
        if rng.coin(2, 3) {
            // A streaming run of sequential lines.
            for _ in 0..rng.range(4, 32) {
                stream.push(if rng.coin(1, 8) {
                    Request::write(addr)
                } else {
                    Request::read(addr)
                });
                addr += ACCESS_BYTES;
            }
        } else {
            addr = rng.below(1 << 24) * ACCESS_BYTES;
            stream.push(if rng.coin(1, 3) {
                Request::write(addr)
            } else {
                Request::read(addr)
            });
        }
    }
    stream.truncate(len);
    stream
}

/// One randomized case: a config and a stream, with per-access checks.
pub fn check_case(rng: &mut Rng) -> Result<(), String> {
    let cfg = random_config(rng);
    let stream = random_stream(rng, 1500);
    let ctx = format!(
        "channels={} banks={} row={} t_bl={} t_refi={} t_rfc={}",
        cfg.channels, cfg.banks, cfg.row_bytes, cfg.t_bl, cfg.t_refi, cfg.t_rfc
    );

    let mut sim = DramSim::new(cfg.clone());
    let mut bus_free = vec![0u64; cfg.channels as usize];
    let mut last_elapsed = 0u64;
    for (i, req) in stream.iter().enumerate() {
        let t = sim.access_timed(*req);
        ensure!(
            t.channel < cfg.channels,
            "{ctx}: request {i} mapped to channel {} of {}",
            t.channel,
            cfg.channels
        );
        ensure!(
            t.data_end - t.data_start == cfg.t_bl,
            "{ctx}: request {i} occupied the bus {} cycles, burst is {}",
            t.data_end - t.data_start,
            cfg.t_bl
        );
        let free = &mut bus_free[t.channel as usize];
        ensure!(
            t.data_start >= *free,
            "{ctx}: request {i} starts at {} while channel {} bus is busy until {}",
            t.data_start,
            t.channel,
            *free
        );
        *free = t.data_end;
        if cfg.t_refi > 0 {
            ensure!(
                t.data_start % cfg.t_refi >= cfg.t_rfc,
                "{ctx}: request {i} bursts at {} — inside the {}-cycle refresh \
                 window of a {}-cycle interval",
                t.data_start,
                cfg.t_rfc,
                cfg.t_refi
            );
        }
        let elapsed = sim.elapsed_cycles();
        ensure!(
            elapsed >= last_elapsed,
            "{ctx}: elapsed clock ran backwards at request {i} ({last_elapsed} -> {elapsed})"
        );
        last_elapsed = elapsed;
    }

    ensure!(
        sim.stats().accesses() == stream.len() as u64,
        "{ctx}: {} accesses recorded for {} requests",
        sim.stats().accesses(),
        stream.len()
    );
    // The bus physically carries 64 B per t_bl cycles per channel; the
    // achieved rate can approach but never exceed that (the constructor's
    // nominal peak assumes t_bl = 4, so derive the bound from the config).
    let bus_limit = f64::from(cfg.channels) * ACCESS_BYTES as f64 / cfg.t_bl as f64 * cfg.clock_hz;
    let within_limit = sim.achieved_bandwidth() <= bus_limit * (1.0 + 1e-9);
    ensure!(
        within_limit,
        "{ctx}: achieved {:.3e} B/s exceeds the bus limit {:.3e} B/s",
        sim.achieved_bandwidth(),
        bus_limit
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::{run_family, Family};

    #[test]
    fn dram_family_passes_fixed_seed() {
        let report = run_family(Family::Dram, 0xD1FF_0004, Family::Dram.default_cases());
        assert!(report.passed(), "{report}");
    }
}
