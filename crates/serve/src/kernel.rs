//! The event-driven simulation kernel.
//!
//! A monotone virtual clock and two event sources. A binary heap holds
//! the events that are scheduled while the run goes on, ordered by
//! `(time, rank, tie, seq)`: rank 0 layer-done events tie-broken by NPU
//! index, rank 1 closed-loop arrivals tie-broken by issue id, rank 2
//! swap-due events tie-broken by declaration index. Open-loop arrivals
//! are known up front and already sorted by `(cycle, id)`, so they stay
//! in their trace and a cursor walks it. Each cycle takes the heap's
//! layer-dones, then the cursor's arrivals, then the heap's remaining
//! events, which yields exactly the shared phase order of
//! [`sched`](crate::sched) while the heap stays as small as the number
//! of replicas, swaps and clients. No wall clock appears anywhere;
//! identical specs produce identical outcomes on any machine, thread
//! count, or re-run.

use crate::arrivals::{open_loop_trace, Arrival};
use crate::sched::{Batch, Clients, Metrics, QueuedReq, SchedState};
use crate::spec::{ArrivalSim, Scheduler, SimOutcome, SimSpec};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One scheduled event. `Ord` is the heap contract: time, then rank
/// (layer-done before arrival), then tie (NPU index or issue id), then
/// seq — a total order, so heap pops are deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    time: u64,
    rank: u8,
    tie: u64,
    seq: u64,
    kind: EventKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// The running batch on this NPU finishes its current layer.
    LayerDone { npu: usize },
    /// A closed-loop request arrives.
    Arrival { tenant: usize, client: Option<u32> },
    /// A scheduled hot model-swap becomes due.
    SwapDue { swap: usize },
}

/// The simulation engine state.
struct Engine<'a> {
    spec: &'a SimSpec,
    heap: BinaryHeap<Reverse<Event>>,
    /// The open-loop arrival trace in `(cycle, id)` order (empty for a
    /// closed loop) and the index of its next undelivered arrival.
    trace: Vec<Arrival>,
    cursor: usize,
    npus: Vec<Option<Batch>>,
    state: SchedState,
    metrics: Metrics,
    clients: Option<Clients>,
    completed: u64,
    total: u64,
    /// Per-swap: the request has been processed and awaits cutover.
    swap_pending: Vec<bool>,
    /// Per-swap: the cutover has landed.
    swap_done: Vec<bool>,
}

impl Engine<'_> {
    fn push_arrival(&mut self, a: Arrival) {
        self.heap.push(Reverse(Event {
            time: a.cycle,
            rank: 1,
            tie: a.id,
            seq: a.id,
            kind: EventKind::Arrival {
                tenant: a.tenant,
                client: a.client,
            },
        }));
    }

    fn push_layer_done(&mut self, npu: usize, at: u64) {
        self.heap.push(Reverse(Event {
            time: at,
            rank: 0,
            tie: npu as u64,
            seq: 0,
            kind: EventKind::LayerDone { npu },
        }));
    }

    /// Phase-A handling of one layer boundary on `npu` at cycle `now`.
    fn layer_done(&mut self, npu: usize, now: u64) {
        self.metrics.event();
        let mut batch = self.npus[npu].take().expect("layer-done on an idle NPU");
        self.metrics.busy(npu, batch.current_layer());
        batch.next_layer += 1;
        if batch.done() {
            self.completed += batch.reqs.len() as u64;
            for req in &batch.reqs {
                self.metrics.complete(req, batch.tenant, now);
            }
            // Closed-loop re-issues happen in completion order; the
            // arrivals land strictly after `now`, so they cannot join
            // this cycle's already-popped arrival phase.
            if let Some(clients) = &mut self.clients {
                let next: Vec<Arrival> = batch
                    .reqs
                    .iter()
                    .filter_map(|req| clients.on_complete(req.client, now))
                    .collect();
                for a in next {
                    self.push_arrival(a);
                }
            }
        } else if matches!(self.spec.scheduler, Scheduler::Edf { preempt: true })
            && self.state.should_preempt(&batch)
        {
            self.state.park(batch);
        } else {
            let at = now + batch.current_layer();
            self.npus[npu] = Some(batch);
            self.push_layer_done(npu, at);
        }
    }

    /// Phase-B handling of one arrival at cycle `now`.
    fn arrive(&mut self, tenant: usize, id: u64, client: Option<u32>, now: u64) {
        self.metrics.event();
        let deadline = self.spec.tenants[tenant].deadline(now);
        self.state.enqueue(
            tenant,
            QueuedReq {
                id,
                arrival: now,
                deadline,
                client,
            },
        );
    }

    /// Whether the tenant has a batch in flight: running on any NPU or
    /// parked in the preemption pool.
    fn tenant_in_flight(&self, tenant: usize) -> bool {
        self.npus.iter().flatten().any(|b| b.tenant == tenant)
            || self.state.preempted.iter().any(|b| b.tenant == tenant)
    }

    /// Swap-phase cutover: every pending swap whose tenant has drained
    /// cuts over now, in declaration order — before this cycle's
    /// dispatch, so fresh batches already use the replacement profiles.
    fn cutover(&mut self, now: u64) {
        for i in 0..self.spec.swaps.len() {
            if !self.swap_pending[i] || self.swap_done[i] {
                continue;
            }
            let swap = &self.spec.swaps[i];
            if self.tenant_in_flight(swap.tenant) {
                continue;
            }
            self.state.swap_profiles(swap.tenant, swap.profiles.clone());
            self.metrics.swap(swap.tenant, swap.at_cycle, now);
            self.swap_done[i] = true;
        }
    }

    /// Phase-C dispatch over idle NPUs in index order.
    fn dispatch(&mut self, now: u64) {
        for npu in 0..self.npus.len() {
            if self.npus[npu].is_some() {
                continue;
            }
            let Some(batch) = self.state.dispatch(self.spec) else {
                break;
            };
            let at = now + batch.current_layer();
            self.npus[npu] = Some(batch);
            self.push_layer_done(npu, at);
        }
    }

    /// Pops the next heap event at cycle `now` of rank `rank` or less.
    fn pop_due(&mut self, now: u64, rank: u8) -> Option<Event> {
        let &Reverse(ev) = self.heap.peek()?;
        if ev.time != now || ev.rank > rank {
            return None;
        }
        self.heap.pop();
        Some(ev)
    }

    fn handle(&mut self, ev: Event, now: u64) {
        match ev.kind {
            EventKind::LayerDone { npu } => self.layer_done(npu, now),
            EventKind::Arrival { tenant, client } => self.arrive(tenant, ev.seq, client, now),
            EventKind::SwapDue { swap } => {
                self.metrics.event();
                self.swap_pending[swap] = true;
            }
        }
    }

    fn run(mut self) -> SimOutcome {
        while self.completed < self.total {
            let next_event = self.heap.peek().map(|Reverse(ev)| ev.time);
            let next_arrival = self.trace.get(self.cursor).map(|a| a.cycle);
            let Some(now) = next_event.into_iter().chain(next_arrival).min() else {
                // Nothing can make progress; only reachable through a
                // spec whose arrival process issues fewer requests than
                // `total`, which the generators rule out.
                break;
            };
            // Everything pushed while a cycle is processed lands strictly
            // later, so the three phases below see the whole cycle:
            // layer-dones by NPU index, then open-loop arrivals by issue
            // id, then closed-loop arrivals and swap-dues.
            while let Some(ev) = self.pop_due(now, 0) {
                self.handle(ev, now);
            }
            while let Some(&a) = self.trace.get(self.cursor).filter(|a| a.cycle == now) {
                self.cursor += 1;
                self.arrive(a.tenant, a.id, a.client, now);
            }
            while let Some(ev) = self.pop_due(now, 2) {
                self.handle(ev, now);
            }
            self.cutover(now);
            self.dispatch(now);
            self.metrics.sample(now, &self.state);
        }
        self.metrics.finish()
    }
}

/// Runs the event-driven kernel over a spec.
///
/// # Panics
///
/// Panics on structurally invalid specs (zero replicas or tenants, an
/// empty layer profile) — [`build`](crate::spec::build) and the oracle
/// generators never produce those.
pub fn simulate(spec: &SimSpec) -> SimOutcome {
    assert!(spec.replicas > 0, "need at least one replica");
    assert!(spec.max_batch > 0, "need a positive batch limit");
    assert!(!spec.tenants.is_empty(), "need at least one tenant");
    let mut engine = Engine {
        spec,
        heap: BinaryHeap::new(),
        trace: Vec::new(),
        cursor: 0,
        npus: (0..spec.replicas).map(|_| None).collect(),
        state: SchedState::new(spec),
        metrics: Metrics::new(spec.tenants.len(), spec.replicas as usize),
        clients: None,
        completed: 0,
        total: spec.arrival.requests(),
        swap_pending: vec![false; spec.swaps.len()],
        swap_done: vec![false; spec.swaps.len()],
    };
    for (i, s) in spec.swaps.iter().enumerate() {
        engine.heap.push(Reverse(Event {
            time: s.at_cycle,
            rank: 2,
            tie: i as u64,
            seq: i as u64,
            kind: EventKind::SwapDue { swap: i },
        }));
    }
    match spec.arrival {
        ArrivalSim::OpenLoop { .. } => engine.trace = open_loop_trace(spec),
        ArrivalSim::ClosedLoop { .. } => {
            let (clients, initial) = Clients::new(spec);
            engine.clients = Some(clients);
            for a in initial {
                engine.push_arrival(a);
            }
        }
    }
    let outcome = engine.run();
    seda_telemetry::counter_add("serve.simulations", 1);
    seda_telemetry::record("serve.events_per_run", outcome.events);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TenantSim;

    fn tenant(name: &str, layers: Vec<u64>, sla: Option<u64>, weight: u64) -> TenantSim {
        TenantSim {
            name: name.to_owned(),
            profiles: vec![layers],
            sla_cycles: sla,
            weight,
        }
    }

    #[test]
    fn single_tenant_fcfs_completes_everything() {
        let spec = SimSpec {
            seed: 1,
            scheduler: Scheduler::Fcfs,
            replicas: 1,
            max_batch: 1,
            tenants: vec![tenant("a", vec![10, 10], None, 1)],
            arrival: ArrivalSim::OpenLoop {
                mean_cycles: 30.0,
                requests: 200,
                burst: None,
                diurnal: None,
            },
            swaps: vec![],
        };
        let out = simulate(&spec);
        assert_eq!(out.completions.len(), 200);
        assert_eq!(out.tenant_latency[0].count, 200);
        assert!(out.end_cycle > 0);
        // One replica serving 20-cycle jobs: busy time is exactly 20
        // cycles per request.
        assert_eq!(out.busy_cycles[0], 200 * 20);
        for w in out.completions.windows(2) {
            assert!(w[0].completion <= w[1].completion);
        }
    }

    #[test]
    fn closed_loop_caps_in_flight_at_clients() {
        let spec = SimSpec {
            seed: 5,
            scheduler: Scheduler::Fcfs,
            replicas: 2,
            max_batch: 1,
            tenants: vec![tenant("a", vec![50], None, 1)],
            arrival: ArrivalSim::ClosedLoop {
                clients: 3,
                think_cycles: 10.0,
                requests: 120,
            },
            swaps: vec![],
        };
        let out = simulate(&spec);
        assert_eq!(out.completions.len(), 120);
        // With 3 clients, the queue can never hold more than 3 requests.
        for &(_, depth) in &out.queue_trace {
            assert!(depth <= 3, "queue depth {depth} exceeds client count");
        }
    }

    #[test]
    fn edf_prefers_the_tight_sla_tenant() {
        // Both tenants flood the queue; tenant 0 has a tight SLA, so its
        // latency distribution must dominate tenant 1's.
        let spec = SimSpec {
            seed: 9,
            scheduler: Scheduler::Edf { preempt: false },
            replicas: 1,
            max_batch: 1,
            tenants: vec![
                tenant("tight", vec![40], Some(100), 1),
                tenant("loose", vec![40], None, 1),
            ],
            arrival: ArrivalSim::OpenLoop {
                mean_cycles: 30.0,
                requests: 400,
                burst: None,
                diurnal: None,
            },
            swaps: vec![],
        };
        let out = simulate(&spec);
        let tight = &out.tenant_latency[0];
        let loose = &out.tenant_latency[1];
        assert!(tight.count > 0 && loose.count > 0);
        assert!(
            tight.mean() < loose.mean(),
            "EDF must favour the SLA tenant: tight {} vs loose {}",
            tight.mean(),
            loose.mean()
        );
    }

    #[test]
    fn batching_reduces_total_busy_time() {
        let mk = |max_batch| SimSpec {
            seed: 3,
            scheduler: Scheduler::Fcfs,
            replicas: 1,
            max_batch,
            tenants: vec![TenantSim {
                name: "a".to_owned(),
                // Cold inference costs 100, steady-state repeats cost 10.
                profiles: vec![vec![100], vec![10], vec![10], vec![10]],
                sla_cycles: None,
                weight: 1,
            }],
            arrival: ArrivalSim::OpenLoop {
                mean_cycles: 5.0,
                requests: 300,
                burst: None,
                diurnal: None,
            },
            swaps: vec![],
        };
        let solo = simulate(&mk(1));
        let batched = simulate(&mk(4));
        assert_eq!(solo.completions.len(), 300);
        assert_eq!(batched.completions.len(), 300);
        assert!(
            batched.busy_cycles[0] < solo.busy_cycles[0],
            "batching amortizes the cold cost: {} vs {}",
            batched.busy_cycles[0],
            solo.busy_cycles[0]
        );
        assert!(
            batched.end_cycle < solo.end_cycle,
            "an overloaded queue drains faster with batching"
        );
    }

    #[test]
    fn swap_cuts_over_at_a_drained_boundary_and_reshapes_costs() {
        use crate::spec::SwapSim;
        // One tenant, 20-cycle jobs arriving sparsely; at cycle 1000 a
        // swap to 5-cycle jobs is requested. Every post-cutover batch
        // must run the replacement profile, in-flight work keeps its
        // admission-time cost, and the outcome records the cutover.
        let mk = |swaps: Vec<SwapSim>| SimSpec {
            seed: 11,
            scheduler: Scheduler::Fcfs,
            replicas: 1,
            max_batch: 1,
            tenants: vec![tenant("a", vec![20], None, 1)],
            arrival: ArrivalSim::OpenLoop {
                mean_cycles: 60.0,
                requests: 100,
                burst: None,
                diurnal: None,
            },
            swaps,
        };
        let plain = simulate(&mk(vec![]));
        let swapped = simulate(&mk(vec![SwapSim {
            tenant: 0,
            at_cycle: 1000,
            profiles: vec![vec![5]],
        }]));
        assert!(plain.swaps.is_empty());
        assert_eq!(swapped.swaps.len(), 1, "the swap must land");
        let cut = swapped.swaps[0];
        assert_eq!(cut.tenant, 0);
        assert_eq!(cut.requested, 1000);
        assert!(cut.cutover >= 1000, "cutover cannot precede the request");
        assert_eq!(swapped.completions.len(), 100);
        // Busy time shrinks: post-cutover requests cost 5, not 20.
        assert!(
            swapped.busy_cycles[0] < plain.busy_cycles[0],
            "replacement profile must be cheaper: {} vs {}",
            swapped.busy_cycles[0],
            plain.busy_cycles[0]
        );
        assert_eq!(swapped.events, plain.events + 1, "one swap-due event");
    }

    #[test]
    fn swap_waits_for_the_tenants_batches_to_drain() {
        use crate::spec::SwapSim;
        // Saturating arrivals: the single tenant always has a batch in
        // flight when the swap lands, so the cutover must wait for a
        // completion boundary — strictly after the request cycle.
        let spec = SimSpec {
            seed: 3,
            scheduler: Scheduler::Fcfs,
            replicas: 1,
            max_batch: 1,
            tenants: vec![tenant("a", vec![50], None, 1)],
            arrival: ArrivalSim::OpenLoop {
                mean_cycles: 10.0,
                requests: 200,
                burst: None,
                diurnal: None,
            },
            swaps: vec![SwapSim {
                tenant: 0,
                at_cycle: 999,
                profiles: vec![vec![10]],
            }],
        };
        let out = simulate(&spec);
        assert_eq!(out.swaps.len(), 1);
        assert!(
            out.swaps[0].cutover > 999,
            "a busy tenant defers the cutover, got {}",
            out.swaps[0].cutover
        );
    }

    #[test]
    fn layer_done_arrival_and_swap_in_one_cycle_match_the_reference() {
        use crate::reference::simulate_stepped;
        use crate::spec::SwapSim;
        let mk = |seed, first_layer| SimSpec {
            seed,
            scheduler: Scheduler::Edf { preempt: true },
            replicas: 1,
            max_batch: 1,
            tenants: vec![
                tenant("bulk", vec![first_layer, 40], None, 1),
                tenant("tight", vec![30], Some(50), 1),
            ],
            arrival: ArrivalSim::OpenLoop {
                mean_cycles: 200.0,
                requests: 40,
                burst: None,
                diurnal: None,
            },
            swaps: vec![],
        };
        // The trace does not depend on the profiles: find a seed whose
        // first arrival is for "bulk" and whose second, strictly later,
        // is for "tight".
        let (seed, a0, a1) = (1..)
            .find_map(|seed| {
                let t = open_loop_trace(&mk(seed, 1));
                (t[0].tenant == 0 && t[1].tenant == 1 && t[1].cycle > t[0].cycle)
                    .then_some((seed, t[0].cycle, t[1].cycle))
            })
            .expect("a seed with that arrival order");
        // Request 0 starts at `a0` on the idle replica, so its first
        // layer ends at `a1`: the cycle of request 1's arrival and of
        // the swap of request 1's tenant.
        let mut spec = mk(seed, a1 - a0);
        spec.swaps = vec![SwapSim {
            tenant: 1,
            at_cycle: a1,
            profiles: vec![vec![20]],
        }];
        let out = simulate(&spec);
        assert_eq!(out, simulate_stepped(&spec));
        // The layer-done judged preemption against the queue before the
        // arrival, so request 0 ran on; the idle tenant cut over at once.
        assert_eq!(
            (out.completions[0].id, out.completions[0].completion),
            (0, a1 + 40)
        );
        assert_eq!(out.swaps[0].cutover, a1);
    }

    #[test]
    fn preemption_only_changes_edf_runs_with_slack() {
        let mk = |preempt| SimSpec {
            seed: 21,
            scheduler: Scheduler::Edf { preempt },
            replicas: 1,
            max_batch: 2,
            tenants: vec![
                tenant("slow", vec![60, 60, 60], None, 2),
                tenant("fast", vec![15], Some(120), 1),
            ],
            arrival: ArrivalSim::OpenLoop {
                mean_cycles: 45.0,
                requests: 300,
                burst: None,
                diurnal: None,
            },
            swaps: vec![],
        };
        let plain = simulate(&mk(false));
        let preemptive = simulate(&mk(true));
        assert_eq!(plain.completions.len(), 300);
        assert_eq!(preemptive.completions.len(), 300);
        // Preemption lets the SLA tenant cut in at layer boundaries, so
        // its mean latency must not get worse.
        assert!(
            preemptive.tenant_latency[1].mean() <= plain.tenant_latency[1].mean(),
            "preemption must help the deadline tenant: {} vs {}",
            preemptive.tenant_latency[1].mean(),
            plain.tenant_latency[1].mean()
        );
    }
}
