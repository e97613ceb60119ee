//! Command-level DRAM simulation (the slow, high-fidelity path).
//!
//! Where [`crate::DramSim`] computes per-access timing with closed-form
//! bank state updates, this module schedules explicit DRAM commands —
//! ACT, PRE, RD, WR, and all-bank REF — over a reorder window with
//! FR-FCFS arbitration (row hits first, then oldest), the policy
//! Ramulator-class simulators implement. It exists to validate the fast
//! path (see the cross-check tests and `validate_sim` binary) and for
//! experiments that need command traces.

use crate::config::DramConfig;
use crate::mapping::AddressMapping;
use crate::request::Request;
use std::collections::VecDeque;

/// Scheduler reorder-window size (requests considered per decision).
pub const WINDOW: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BankState {
    Precharged,
    Activating { ready_at: u64, row: u64 },
    Active { row: u64 },
    Precharging { ready_at: u64 },
}

#[derive(Debug, Clone)]
struct CmdBank {
    state: BankState,
    /// Earliest cycle for the next column command (tCCD spacing).
    next_col: u64,
    /// Earliest cycle a precharge may begin (tRAS / write recovery).
    pre_ok_at: u64,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    req: Request,
    bank: usize,
    row: u64,
    seq: u64,
}

/// A per-channel command scheduler.
#[derive(Debug)]
struct ChannelSim {
    banks: Vec<CmdBank>,
    queue: VecDeque<Pending>,
    now: u64,
    bus_free: u64,
    issued_reads: u64,
    issued_writes: u64,
    activates: u64,
    precharges: u64,
}

impl ChannelSim {
    fn new(bank_count: usize) -> Self {
        Self {
            banks: vec![
                CmdBank {
                    state: BankState::Precharged,
                    next_col: 0,
                    pre_ok_at: 0,
                };
                bank_count
            ],
            queue: VecDeque::new(),
            now: 0,
            bus_free: 0,
            issued_reads: 0,
            issued_writes: 0,
            activates: 0,
            precharges: 0,
        }
    }

    fn in_refresh(cfg: &DramConfig, t: u64) -> bool {
        cfg.t_refi > 0 && t % cfg.t_refi < cfg.t_rfc
    }

    fn next_after_refresh(cfg: &DramConfig, t: u64) -> u64 {
        if Self::in_refresh(cfg, t) {
            t / cfg.t_refi * cfg.t_refi + cfg.t_rfc
        } else {
            t
        }
    }

    /// Advances until the queue drains.
    fn drain(&mut self, cfg: &DramConfig) {
        while !self.queue.is_empty() {
            if !self.step(cfg) {
                // Nothing issuable this cycle: jump to the next event.
                self.now = self.next_event(cfg);
            }
        }
    }

    /// Earliest future cycle at which any state changes.
    fn next_event(&self, cfg: &DramConfig) -> u64 {
        let mut t = u64::MAX;
        for b in &self.banks {
            match b.state {
                BankState::Activating { ready_at, .. } | BankState::Precharging { ready_at } => {
                    t = t.min(ready_at)
                }
                BankState::Active { .. } => t = t.min(b.next_col.max(b.pre_ok_at)),
                BankState::Precharged => {}
            }
        }
        let t_ref = Self::next_after_refresh(cfg, self.now);
        if t_ref > self.now {
            t = t.min(t_ref);
        }
        t.min(self.bus_free).max(self.now + 1)
    }

    /// Attempts to issue one command at `self.now`; returns whether
    /// anything was issued.
    fn step(&mut self, cfg: &DramConfig) -> bool {
        let now = self.now;
        if Self::in_refresh(cfg, now) {
            return false;
        }
        // Settle bank state transitions.
        for b in self.banks.iter_mut() {
            match b.state {
                BankState::Activating { ready_at, row } if now >= ready_at => {
                    b.state = BankState::Active { row };
                }
                BankState::Precharging { ready_at } if now >= ready_at => {
                    b.state = BankState::Precharged;
                }
                _ => {}
            }
        }

        let window = self.queue.len().min(WINDOW);
        // 1. FR: oldest row-hit column command that fits the bus.
        for i in 0..window {
            let p = self.queue[i];
            let bank = &self.banks[p.bank];
            let hit = matches!(bank.state, BankState::Active { row } if row == p.row);
            if hit && now >= bank.next_col {
                let cas = if p.req.is_write { cfg.t_cwl } else { cfg.t_cl };
                let data_start = (now + cas).max(self.bus_free);
                // Do not start a burst that would collide with refresh.
                if Self::in_refresh(cfg, data_start) {
                    continue;
                }
                self.bus_free = data_start + cfg.t_bl;
                let bank = &mut self.banks[p.bank];
                bank.next_col = now + cfg.t_bl.max(4);
                bank.pre_ok_at = bank.pre_ok_at.max(if p.req.is_write {
                    data_start + cfg.t_bl + cfg.t_wr
                } else {
                    data_start + cfg.t_bl
                });
                if p.req.is_write {
                    self.issued_writes += 1;
                } else {
                    self.issued_reads += 1;
                }
                self.queue.remove(i);
                return true;
            }
        }
        // 2. FCFS: oldest request needing an ACT on a precharged bank.
        for i in 0..window {
            let p = self.queue[i];
            if self.banks[p.bank].state == BankState::Precharged {
                self.banks[p.bank].state = BankState::Activating {
                    ready_at: now + cfg.t_rcd,
                    row: p.row,
                };
                self.banks[p.bank].pre_ok_at = now + cfg.t_ras;
                self.activates += 1;
                return true;
            }
        }
        // 3. Oldest request blocked by a wrong open row: precharge.
        for i in 0..window {
            let p = self.queue[i];
            let bank = &self.banks[p.bank];
            if let BankState::Active { row } = bank.state {
                if row != p.row && now >= bank.pre_ok_at {
                    self.banks[p.bank].state = BankState::Precharging {
                        ready_at: now + cfg.t_rp,
                    };
                    self.precharges += 1;
                    return true;
                }
            }
        }
        false
    }
}

/// Aggregate statistics of a command-level run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommandStats {
    /// Read bursts issued.
    pub reads: u64,
    /// Write bursts issued.
    pub writes: u64,
    /// Activate commands issued.
    pub activates: u64,
    /// Precharge commands issued.
    pub precharges: u64,
    /// Total cycles until the last channel drained.
    pub cycles: u64,
}

/// Runs a request stream through the command-level scheduler.
///
/// Requests arrive instantly (an open front-end); the result is the cycle
/// count to drain them all, per the slowest channel.
pub fn simulate_commands<I: IntoIterator<Item = Request>>(
    cfg: &DramConfig,
    requests: I,
) -> CommandStats {
    let mapping = AddressMapping::new(cfg);
    let mut channels: Vec<ChannelSim> = (0..cfg.channels)
        .map(|_| ChannelSim::new((cfg.banks * cfg.ranks) as usize))
        .collect();
    for (seq, req) in requests.into_iter().enumerate() {
        let coord = mapping.decode(req.addr);
        let bank = (coord.rank * cfg.banks + coord.bank) as usize;
        channels[coord.channel as usize].queue.push_back(Pending {
            req,
            bank,
            row: coord.row,
            seq: seq as u64,
        });
    }
    let mut stats = CommandStats::default();
    for ch in channels.iter_mut() {
        ch.drain(cfg);
        stats.reads += ch.issued_reads;
        stats.writes += ch.issued_writes;
        stats.activates += ch.activates;
        stats.precharges += ch.precharges;
        stats.cycles = stats.cycles.max(ch.bus_free);
    }
    // `seq` is carried for deterministic debugging; silence the lint.
    let _ = |p: Pending| p.seq;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ACCESS_BYTES;
    use crate::controller::DramSim;

    fn sequential(n: u64) -> Vec<Request> {
        (0..n).map(|i| Request::read(i * ACCESS_BYTES)).collect()
    }

    #[test]
    fn all_requests_are_served() {
        let cfg = DramConfig::server();
        let stats = simulate_commands(&cfg, sequential(5000));
        assert_eq!(stats.reads, 5000);
        assert_eq!(stats.writes, 0);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn streaming_needs_few_activates() {
        let cfg = DramConfig::server();
        let stats = simulate_commands(&cfg, sequential(10_000));
        // 10k accesses walk ~20 rows across 4 channels/16 banks.
        assert!(
            stats.activates < 100,
            "streaming should activate rarely: {}",
            stats.activates
        );
    }

    #[test]
    fn row_thrash_needs_many_activates() {
        let cfg = DramConfig::server();
        let row_span =
            cfg.columns_per_row() * u64::from(cfg.channels) * u64::from(cfg.banks) * ACCESS_BYTES;
        let reqs: Vec<Request> = (0..2000u64)
            .map(|i| Request::read((i % 7) * row_span + (i % 3) * 13 * row_span))
            .collect();
        let stats = simulate_commands(&cfg, reqs);
        assert!(
            stats.activates > 100,
            "thrash must activate: {}",
            stats.activates
        );
        assert!(stats.precharges > 100);
    }

    #[test]
    fn cross_validates_fast_model_on_streams() {
        let cfg = DramConfig::server();
        let reqs = sequential(20_000);
        let cmd = simulate_commands(&cfg, reqs.clone());
        let mut fast = DramSim::new(cfg);
        fast.run_batch(&reqs);
        let ratio = cmd.cycles as f64 / fast.elapsed_cycles() as f64;
        assert!(
            (0.8..1.25).contains(&ratio),
            "fast vs command-level divergence on streams: {ratio:.3}"
        );
    }

    #[test]
    fn cross_validates_fast_model_on_mixed_traffic() {
        let cfg = DramConfig::edge();
        // A protection-like mix: data stream + scattered metadata.
        let mut reqs = Vec::new();
        for i in 0..8_000u64 {
            reqs.push(Request::read(i * ACCESS_BYTES));
            if i % 8 == 0 {
                reqs.push(Request::read((1 << 30) + i / 8 * ACCESS_BYTES));
            }
            if i % 64 == 0 {
                reqs.push(Request::write((1 << 31) + i * ACCESS_BYTES));
            }
        }
        let cmd = simulate_commands(&cfg, reqs.clone());
        let mut fast = DramSim::new(cfg);
        fast.run_batch(&reqs);
        // The command scheduler sees the whole queue up front (an open
        // front-end with perfect lookahead), so on scatter-heavy mixes it
        // lower-bounds the in-order fast model — by up to ~2x — while
        // never beating it by more than the reorder window can explain.
        let ratio = cmd.cycles as f64 / fast.elapsed_cycles() as f64;
        assert!(
            (0.4..1.4).contains(&ratio),
            "fast vs command-level divergence on mixed: {ratio:.3}"
        );
    }

    #[test]
    fn writes_are_scheduled_too() {
        let cfg = DramConfig::edge();
        let reqs: Vec<Request> = (0..1000u64)
            .map(|i| Request::write(i * ACCESS_BYTES))
            .collect();
        let stats = simulate_commands(&cfg, reqs);
        assert_eq!(stats.writes, 1000);
    }

    #[test]
    fn refresh_windows_delay_but_do_not_drop() {
        let cfg = DramConfig::server();
        let no_ref = DramConfig {
            t_refi: 0,
            ..cfg.clone()
        };
        let with = simulate_commands(&cfg, sequential(200_000));
        let without = simulate_commands(&no_ref, sequential(200_000));
        assert_eq!(with.reads, without.reads);
        assert!(with.cycles > without.cycles);
        let overhead = with.cycles as f64 / without.cycles as f64;
        assert!(overhead < 1.10, "refresh overhead {overhead:.3}");
    }
}
