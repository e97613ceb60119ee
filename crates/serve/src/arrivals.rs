//! Seeded arrival processes shared by both kernels.
//!
//! Open-loop arrivals are fully pre-generated as a trace — both kernels
//! replay the identical `(cycle, tenant, id)` list, so the differential
//! oracle compares pure scheduling behaviour. Closed-loop draws are
//! necessarily dynamic (a client's next request depends on its previous
//! completion), so both kernels share the *draw functions* here and the
//! determinism contract requires them to invoke the draws at identical
//! points: one think-time draw plus one tenant pick per issue, from the
//! issuing client's own stream.

use crate::spec::{ArrivalSim, BurstSim, DiurnalSim, SimSpec, STREAM_ARRIVALS, STREAM_CLIENTS};
use seda_adversary::Rng;

/// One issued request, before service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival cycle.
    pub cycle: u64,
    /// Tenant index the request targets.
    pub tenant: usize,
    /// Issue-order request id (also the heap tie-breaker seq).
    pub id: u64,
    /// Issuing client for closed-loop arrivals.
    pub client: Option<u32>,
}

/// The instantaneous rate multiplier at virtual time `t` (in cycles):
/// the product of the burst square wave and the diurnal sinusoid.
pub fn modulation(burst: Option<&BurstSim>, diurnal: Option<&DiurnalSim>, t: f64) -> f64 {
    let mut m = 1.0;
    if let Some(b) = burst {
        let phase = (t / b.period_cycles).fract();
        if phase < b.duty_pct / 100.0 {
            m *= b.factor;
        }
    }
    if let Some(d) = diurnal {
        let phase = (t / d.period_cycles).fract();
        m *= 1.0 + d.amplitude * (phase * std::f64::consts::TAU).sin();
    }
    m
}

/// Weighted tenant pick: one uniform draw over the weight total.
pub fn pick_tenant(rng: &mut Rng, weights: &[u64]) -> usize {
    let total: u64 = weights.iter().sum();
    let mut ticket = rng.below(total);
    for (i, w) in weights.iter().enumerate() {
        if ticket < *w {
            return i;
        }
        ticket -= w;
    }
    weights.len() - 1
}

/// One think-time draw in whole cycles, clamped to at least 1 so a
/// client can never re-enter the queue in its completion cycle.
pub fn think_draw(rng: &mut Rng, mean_cycles: f64) -> u64 {
    (rng.exp(mean_cycles).round() as u64).max(1)
}

/// The per-client RNG stream for closed-loop draws.
pub fn client_rng(seed: u64, client: u32) -> Rng {
    Rng::for_stream(seed, STREAM_CLIENTS + u64::from(client))
}

/// How many requests client `c` of `clients` issues out of `requests`
/// total: the even split, with the remainder going to the lowest
/// client indices.
pub fn client_quota(requests: u64, clients: u32, c: u32) -> u64 {
    let clients = u64::from(clients);
    requests / clients + u64::from(u64::from(c) < requests % clients)
}

/// Pre-generates the full open-loop arrival trace: seeded Poisson
/// interarrivals via inverse-CDF exponential draws, thinned against the
/// deterministic burst/diurnal modulation, each arrival assigned a
/// tenant by weighted pick from the same stream.
///
/// # Panics
///
/// Panics when `spec.arrival` is not open-loop.
pub fn open_loop_trace(spec: &SimSpec) -> Vec<Arrival> {
    let ArrivalSim::OpenLoop {
        mean_cycles,
        requests,
        ref burst,
        ref diurnal,
    } = spec.arrival
    else {
        panic!("open_loop_trace needs an open-loop arrival spec");
    };
    let weights = spec.weights();
    let mut rng = Rng::for_stream(spec.seed, STREAM_ARRIVALS);
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(requests as usize);
    for id in 0..requests {
        let m = modulation(burst.as_ref(), diurnal.as_ref(), t);
        t += rng.exp(mean_cycles / m);
        out.push(Arrival {
            cycle: t as u64,
            tenant: pick_tenant(&mut rng, &weights),
            id,
            client: None,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Scheduler, TenantSim};

    fn open_spec(requests: u64) -> SimSpec {
        SimSpec {
            seed: 11,
            scheduler: Scheduler::Fcfs,
            replicas: 1,
            max_batch: 1,
            tenants: vec![
                TenantSim {
                    name: "a".to_owned(),
                    profiles: vec![vec![5]],
                    sla_cycles: None,
                    weight: 3,
                },
                TenantSim {
                    name: "b".to_owned(),
                    profiles: vec![vec![5]],
                    sla_cycles: None,
                    weight: 1,
                },
            ],
            arrival: ArrivalSim::OpenLoop {
                mean_cycles: 40.0,
                requests,
                burst: None,
                diurnal: None,
            },
            swaps: vec![],
        }
    }

    #[test]
    fn trace_is_sorted_and_deterministic() {
        let spec = open_spec(2000);
        let a = open_loop_trace(&spec);
        let b = open_loop_trace(&spec);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2000);
        for w in a.windows(2) {
            assert!(w[0].cycle <= w[1].cycle);
            assert_eq!(w[0].id + 1, w[1].id);
        }
    }

    #[test]
    fn tenant_weights_shape_the_split() {
        let spec = open_spec(8000);
        let trace = open_loop_trace(&spec);
        let to_a = trace.iter().filter(|a| a.tenant == 0).count() as f64;
        let frac = to_a / trace.len() as f64;
        // Weight 3:1 ⇒ ~75% to tenant 0; a generous tolerance keeps the
        // test seed-robust.
        assert!((0.70..0.80).contains(&frac), "{frac}");
    }

    #[test]
    fn modulation_square_wave_and_sinusoid_compose() {
        let burst = BurstSim {
            period_cycles: 100.0,
            duty_pct: 20.0,
            factor: 4.0,
        };
        assert_eq!(modulation(Some(&burst), None, 10.0), 4.0);
        assert_eq!(modulation(Some(&burst), None, 50.0), 1.0);
        let diurnal = DiurnalSim {
            period_cycles: 100.0,
            amplitude: 0.5,
        };
        let quarter = modulation(None, Some(&diurnal), 25.0);
        assert!((quarter - 1.5).abs() < 1e-9, "{quarter}");
        let both = modulation(Some(&burst), Some(&diurnal), 25.0);
        assert!((both - 1.5).abs() < 1e-9, "burst off at phase 0.25: {both}");
    }

    #[test]
    fn client_quotas_cover_all_requests() {
        for (requests, clients) in [(10u64, 3u32), (7, 7), (5, 8), (100, 9)] {
            let total: u64 = (0..clients)
                .map(|c| client_quota(requests, clients, c))
                .sum();
            assert_eq!(total, requests);
        }
    }

    #[test]
    fn weighted_pick_never_leaves_range() {
        let mut rng = Rng::new(3);
        let weights = [1u64, 5, 2];
        for _ in 0..1000 {
            assert!(pick_tenant(&mut rng, &weights) < weights.len());
        }
    }
}
