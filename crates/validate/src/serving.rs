//! Differential serving oracle: event-driven vs time-stepped kernel.
//!
//! `seda-serve` ships two simulation kernels built over the same shared
//! scheduling policy — [`seda_serve::simulate`] jumps from event to
//! event, [`seda_serve::simulate_stepped`] literally increments
//! the clock one cycle at a time. This family generates small random
//! [`SimSpec`]s (at most 4 tenants, hundreds of requests, tiny cycle
//! counts so the brute-force reference stays tractable) spanning every
//! scheduler, both arrival processes, burst/diurnal modulation,
//! batching, and preemption, replays each through both kernels, and
//! demands the full [`seda_serve::SimOutcome`] be bit-identical:
//! completion times in recording order, the queue-depth trace, per-tenant
//! latency and queue-depth histograms, per-replica busy cycles, and the
//! event count. Any divergence pins a bug in the fast kernel's event
//! ordering, quiet-run rule, boundary arithmetic, or closed-loop draw
//! points.

use crate::ensure;
use seda_adversary::Rng;
use seda_serve::{simulate, simulate_stepped, ArrivalSim, BurstSim, DiurnalSim};
use seda_serve::{Scheduler, SimSpec, SwapSim, TenantSim};

/// A random small batch cost model: depths up to 3, the cold first
/// inference the priciest, every duration strictly positive.
fn random_profiles(rng: &mut Rng) -> Vec<Vec<u64>> {
    let depth = rng.range(1, 3) as usize;
    let layer_count = rng.range(1, 4) as usize;
    (0..depth)
        .map(|d| {
            (0..layer_count)
                .map(|_| {
                    let base = rng.range(1, 40);
                    if d == 0 {
                        base + rng.range(0, 39)
                    } else {
                        base
                    }
                })
                .collect()
        })
        .collect()
}

/// One random tenant with a small, strictly positive cost model.
fn random_tenant(rng: &mut Rng, index: usize) -> TenantSim {
    let profiles = random_profiles(rng);
    TenantSim {
        name: format!("t{index}"),
        profiles,
        sla_cycles: rng.coin(1, 2).then(|| rng.range(20, 400)),
        weight: rng.range(1, 4),
    }
}

/// One random small spec the stepped reference can chew through.
fn random_spec(rng: &mut Rng) -> SimSpec {
    let tenant_count = rng.range(1, 4) as usize;
    let tenants = (0..tenant_count).map(|i| random_tenant(rng, i)).collect();
    let scheduler = match rng.below(4) {
        0 => Scheduler::Fcfs,
        1 => Scheduler::Rr,
        2 => Scheduler::Edf { preempt: false },
        _ => Scheduler::Edf { preempt: true },
    };
    let arrival = if rng.coin(1, 2) {
        ArrivalSim::OpenLoop {
            mean_cycles: rng.range(2, 60) as f64,
            requests: rng.range(50, 600),
            burst: rng.coin(1, 3).then(|| BurstSim {
                period_cycles: rng.range(50, 2000) as f64,
                duty_pct: rng.range(5, 95) as f64,
                factor: rng.range(2, 8) as f64,
            }),
            diurnal: rng.coin(1, 3).then(|| DiurnalSim {
                period_cycles: rng.range(100, 4000) as f64,
                amplitude: rng.range(1, 9) as f64 / 10.0,
            }),
        }
    } else {
        ArrivalSim::ClosedLoop {
            clients: rng.range(1, 8) as u32,
            think_cycles: rng.range(1, 100) as f64,
            requests: rng.range(50, 400),
        }
    };
    // A third of the cases schedule hot model-swaps mid-run, so the
    // oracle also pins the swap phase: due marking, the drained-tenant
    // cutover predicate, and replacement-profile batch formation.
    let swaps = if rng.coin(1, 3) {
        (0..rng.range(1, 2))
            .map(|_| SwapSim {
                tenant: rng.below(tenant_count as u64) as usize,
                at_cycle: rng.range(1, 3000),
                profiles: random_profiles(rng),
            })
            .collect()
    } else {
        Vec::new()
    };
    SimSpec {
        seed: rng.next_u64(),
        scheduler,
        replicas: rng.range(1, 3) as u32,
        max_batch: rng.range(1, 3) as u32,
        tenants,
        arrival,
        swaps,
    }
}

/// One differential case: both kernels over one random spec.
pub fn check_case(rng: &mut Rng) -> Result<(), String> {
    let spec = random_spec(rng);
    let fast = simulate(&spec);
    let slow = simulate_stepped(&spec);
    let label = format!(
        "scheduler={} tenants={} replicas={} max_batch={} arrival={:?} seed={:#x}",
        spec.scheduler.name(),
        spec.tenants.len(),
        spec.replicas,
        spec.max_batch,
        spec.arrival,
        spec.seed
    );
    ensure!(
        fast.completions.len() as u64 == spec.arrival.requests(),
        "kernel dropped requests: {} of {} completed ({label})",
        fast.completions.len(),
        spec.arrival.requests()
    );
    ensure!(
        fast.completions == slow.completions,
        "completion records diverge at index {:?} ({label})",
        fast.completions
            .iter()
            .zip(&slow.completions)
            .position(|(a, b)| a != b)
    );
    ensure!(
        fast.queue_trace == slow.queue_trace,
        "queue-depth traces diverge at index {:?} ({label})",
        fast.queue_trace
            .iter()
            .zip(&slow.queue_trace)
            .position(|(a, b)| a != b)
    );
    ensure!(
        fast.tenant_latency == slow.tenant_latency,
        "per-tenant latency histograms diverge ({label})"
    );
    ensure!(
        fast.tenant_queue_depth == slow.tenant_queue_depth,
        "per-tenant queue-depth histograms diverge ({label})"
    );
    ensure!(
        fast == slow,
        "outcomes diverge: busy {:?} vs {:?}, end {} vs {}, events {} vs {} ({label})",
        fast.busy_cycles,
        slow.busy_cycles,
        fast.end_cycle,
        slow.end_cycle,
        fast.events,
        slow.events
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_stay_within_the_oracle_envelope() {
        // The issue caps oracle cases at 4 tenants and a tractable event
        // count; the generator must respect that envelope.
        for case in 0..16 {
            let mut rng = Rng::for_stream(0xE5, case);
            let spec = random_spec(&mut rng);
            assert!((1..=4).contains(&spec.tenants.len()));
            assert!(spec.arrival.requests() <= 600);
            assert!((1..=3).contains(&spec.replicas));
        }
    }

    #[test]
    fn a_fixed_case_passes() {
        let mut rng = Rng::for_stream(0xE5, 0);
        check_case(&mut rng).expect("differential case");
    }
}
