//! The event-driven simulation kernel.
//!
//! A monotone virtual clock and three event sources. Each NPU holds the
//! cycle its running batch finishes the current layer (`due`,
//! `u64::MAX` when idle). Open-loop arrivals are known up front and
//! already sorted by `(cycle, id)`, so they stay in their trace and a
//! cursor walks it. A binary heap holds only closed-loop arrivals and
//! swap-dues, ordered by `(time, rank, tie, seq)`: rank 1 arrivals
//! tie-broken by issue id, rank 2 swap-dues by declaration index. Each
//! cycle scans the NPUs for boundaries in index order, then takes the
//! cursor's arrivals, then the heap's events, which yields exactly the
//! shared phase order of [`sched`](crate::sched) while the heap stays as
//! small as the number of clients and swaps.
//!
//! **Quiet runs.** A layer boundary at cycle `t` is *quiet* when `t` is
//! strictly before every other NPU's boundary, the next open-loop
//! arrival and the heap top; its batch continues past the layer; and,
//! under preemptive EDF, [`should_preempt`](SchedState::should_preempt)
//! is false. The queues, the preempted pool and the in-flight set cannot
//! change between quiet boundaries, so cutover and dispatch would be
//! no-ops there. A run of quiet boundaries is applied in one loop: each
//! still counts its event, charges its busy time, steps its batch and
//! samples the queues, and the loop stops before the first boundary that
//! is not quiet. Queue depths are sampled run-length
//! ([`Metrics::sample_runs`]).
//!
//! No wall clock appears anywhere; identical specs produce identical
//! outcomes on any machine, thread count, or re-run.

use crate::arrivals::{open_loop_trace, Arrival};
use crate::sched::{Batch, Clients, Metrics, QueuedReq, SchedState};
use crate::spec::{ArrivalSim, Scheduler, SimOutcome, SimSpec};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One scheduled heap event. `Ord` is the heap contract: time, then
/// rank (arrival before swap-due), then tie (issue id or swap index),
/// then seq — a total order, so heap pops are deterministic.
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
    /// Per NPU: the cycle its batch finishes the current layer, or
    /// `u64::MAX` when idle.
    due: Vec<u64>,
    /// Whether the scheduler is preemptive EDF.
    preempt: bool,
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

    /// Puts `batch` on `npu`, finishing its current layer at `now` plus
    /// the layer's duration.
    fn run_on(&mut self, npu: usize, batch: Batch, now: u64) {
        self.due[npu] = now + batch.current_layer();
        self.npus[npu] = Some(batch);
    }

    /// Phase-A handling of one layer boundary on `npu` at cycle `now`.
    fn layer_done(&mut self, npu: usize, now: u64) {
        self.metrics.event();
        self.due[npu] = u64::MAX;
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
        } else if self.preempt && self.state.should_preempt(&batch) {
            self.state.park(batch);
        } else {
            self.run_on(npu, batch, now);
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
            self.run_on(npu, batch, now);
        }
    }

    /// Pops the next heap event at cycle `now`.
    fn pop_due(&mut self, now: u64) -> Option<Event> {
        let &Reverse(ev) = self.heap.peek()?;
        if ev.time != now {
            return None;
        }
        self.heap.pop();
        Some(ev)
    }

    /// The earliest open-loop arrival or heap event, `u64::MAX` when
    /// neither source holds one.
    fn next_non_boundary(&self) -> u64 {
        let next_event = self.heap.peek().map_or(u64::MAX, |Reverse(ev)| ev.time);
        let next_arrival = self.trace.get(self.cursor).map_or(u64::MAX, |a| a.cycle);
        next_event.min(next_arrival)
    }

    /// Applies the run of quiet layer boundaries (module docs) that
    /// starts at the next event, if any. Arrivals and heap events cannot
    /// appear during the run, so their next cycle is read once.
    fn quiet_run(&mut self) {
        let limit = self.next_non_boundary();
        loop {
            // The earliest boundary, on the lowest NPU index, and
            // whether another NPU's boundary falls in the same cycle.
            let mut npu = 0;
            let mut tied = false;
            for (i, &due) in self.due.iter().enumerate().skip(1) {
                if due < self.due[npu] {
                    (npu, tied) = (i, false);
                } else if due == self.due[npu] {
                    tied = true;
                }
            }
            let now = self.due[npu];
            if tied || now >= limit {
                return;
            }
            let batch = self.npus[npu].as_mut().expect("a due boundary has a batch");
            if batch.next_layer + 1 == batch.layers.len()
                || (self.preempt && self.state.should_preempt(batch))
            {
                return;
            }
            self.metrics.event();
            self.metrics.busy(npu, batch.current_layer());
            batch.next_layer += 1;
            self.due[npu] = now + batch.current_layer();
            self.metrics.resample(now);
        }
    }

    fn run(mut self) -> SimOutcome {
        while self.completed < self.total {
            self.quiet_run();
            let next_boundary = self.due.iter().copied().min().unwrap_or(u64::MAX);
            let now = next_boundary.min(self.next_non_boundary());
            if now == u64::MAX {
                // Nothing can make progress; only reachable through a
                // spec whose arrival process issues fewer requests than
                // `total`, which the generators rule out.
                break;
            }
            // Everything scheduled while a cycle is processed lands
            // strictly later, so the three phases below see the whole
            // cycle: layer boundaries by NPU index, then open-loop
            // arrivals by issue id, then closed-loop arrivals and
            // swap-dues.
            for npu in 0..self.due.len() {
                if self.due[npu] == now {
                    self.layer_done(npu, now);
                }
            }
            while let Some(&a) = self.trace.get(self.cursor).filter(|a| a.cycle == now) {
                self.cursor += 1;
                self.arrive(a.tenant, a.id, a.client, now);
            }
            while let Some(ev) = self.pop_due(now) {
                match ev.kind {
                    EventKind::Arrival { tenant, client } => {
                        self.arrive(tenant, ev.seq, client, now);
                    }
                    EventKind::SwapDue { swap } => {
                        self.metrics.event();
                        self.swap_pending[swap] = true;
                    }
                }
            }
            self.cutover(now);
            self.dispatch(now);
            self.metrics.sample_runs(now, &self.state);
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
/// generators never produce those. Both also keep every layer at one
/// cycle or more, which the boundary arithmetic relies on.
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
        due: vec![u64::MAX; spec.replicas as usize],
        preempt: matches!(spec.scheduler, Scheduler::Edf { preempt: true }),
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
    fn two_boundaries_and_an_arrival_in_one_cycle_match_the_reference() {
        use crate::reference::simulate_stepped;
        let mk = |seed, first: [u64; 2]| SimSpec {
            seed,
            scheduler: Scheduler::Edf { preempt: true },
            replicas: 2,
            max_batch: 1,
            tenants: vec![
                tenant("a", vec![first[0], 30, 30], Some(400), 1),
                tenant("b", vec![first[1], 30], Some(300), 1),
            ],
            arrival: ArrivalSim::OpenLoop {
                mean_cycles: 200.0,
                requests: 30,
                burst: None,
                diurnal: None,
            },
            swaps: vec![],
        };
        // A seed whose first three arrivals are for "a", then "b", then
        // anyone, at strictly increasing cycles.
        let (seed, t) = (1..)
            .find_map(|seed| {
                let t = open_loop_trace(&mk(seed, [1, 1]));
                let ordered = t[0].cycle < t[1].cycle && t[1].cycle < t[2].cycle;
                (ordered && t[0].tenant == 0 && t[1].tenant == 1).then_some((seed, t))
            })
            .expect("a seed with that arrival order");
        // Requests 0 and 1 start on idle replicas 0 and 1 at their
        // arrivals, so both first layers end at request 2's arrival.
        let at = t[2].cycle;
        let spec = mk(seed, [at - t[0].cycle, at - t[1].cycle]);
        let out = simulate(&spec);
        assert_eq!(out, simulate_stepped(&spec));
        let sampled = |cycle| out.queue_trace.iter().filter(|&&(c, _)| c == cycle).count();
        assert_eq!(sampled(at), 1, "one active cycle holds all three events");
        let done = |id| out.completions.iter().find(|c| c.id == id).expect("done");
        assert_eq!(done(0).completion, at + 60, "request 0 ran on");
        assert_eq!(done(1).completion, at + 30, "request 1 ran on");
    }

    #[test]
    fn a_swap_due_cuts_a_quiet_run_short_and_matches_the_reference() {
        use crate::reference::simulate_stepped;
        use crate::spec::SwapSim;
        let mk = |swaps| SimSpec {
            seed: 4,
            scheduler: Scheduler::Edf { preempt: true },
            replicas: 1,
            max_batch: 1,
            tenants: vec![tenant("a", vec![10; 10], Some(500), 1)],
            arrival: ArrivalSim::OpenLoop {
                mean_cycles: 5000.0,
                requests: 4,
                burst: None,
                diurnal: None,
            },
            swaps,
        };
        let a0 = open_loop_trace(&mk(vec![]))[0].cycle;
        // Request 0 runs ten 10-cycle layers from `a0` with nothing else
        // due: its inner boundaries form one quiet run. A swap-due
        // between two boundaries, or on one, ends that run there.
        for offset in [25, 30] {
            let spec = mk(vec![SwapSim {
                tenant: 0,
                at_cycle: a0 + offset,
                profiles: vec![vec![5]],
            }]);
            let out = simulate(&spec);
            assert_eq!(out, simulate_stepped(&spec), "swap at a0 + {offset}");
            let cycles: Vec<u64> = out
                .queue_trace
                .iter()
                .map(|&(c, _)| c)
                .filter(|c| (a0..=a0 + 100).contains(c))
                .collect();
            let mut want: Vec<u64> = (0..=10).map(|k| a0 + 10 * k).collect();
            if offset % 10 != 0 {
                want.insert(3, a0 + offset);
            }
            assert_eq!(cycles, want, "swap at a0 + {offset}");
            // The tenant drains when request 0 completes.
            assert_eq!(out.swaps[0].cutover, a0 + 100);
        }
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
