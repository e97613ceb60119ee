//! Scheduling mechanics shared by both kernels.
//!
//! The event-driven kernel and the brute-force time-stepped reference
//! must agree bit-for-bit, so the *policy* — queue discipline, batch
//! formation, preemption predicate, metric recording — lives here once,
//! and each kernel supplies only its own notion of time. The event
//! kernel keeps each NPU's next layer boundary in a per-NPU slot, walks
//! the open-loop arrival trace with a cursor, and heaps only closed-loop
//! arrivals and swap-dues in `(time, rank, tie, seq)` order; the
//! reference steps one cycle at a time. The shared per-cycle contract
//! both uphold:
//!
//! 1. **Layer-done phase** — boundaries reaching cycle `t` are handled
//!    in NPU index order. A finished batch records completions in
//!    request order (and schedules closed-loop re-issues); an unfinished
//!    one under preemptive EDF yields if pending work has a strictly
//!    earlier deadline, *judged against the queue state before this
//!    cycle's arrivals*.
//! 2. **Arrival phase** — arrivals at `t` enqueue in issue-id order.
//! 3. **Swap phase** — swap requests due at `t` become pending in
//!    declaration order; every pending swap whose tenant has no batch
//!    in flight (running or preempted) cuts over *now*, installing the
//!    replacement profiles before this cycle's dispatch.
//! 4. **Dispatch phase** — idle NPUs in index order each take the
//!    scheduler's best candidate (a preempted batch or a fresh batch of
//!    up to `max_batch` queue-head requests from one tenant).
//!
//! Metrics are sampled only after *active* cycles (at least one
//! arrival, layer-done, or swap-due event), which both kernels can
//! detect identically. The in-flight predicate the swap phase reads
//! only changes on active cycles, so checking it there loses nothing.
//!
//! A cycle whose only event is a layer boundary after which the batch
//! runs on changes no queue, pool or in-flight set: its swap and
//! dispatch phases are no-ops. The event kernel applies runs of such
//! *quiet* boundaries without the phase machinery (see
//! [`kernel`](crate::kernel)), and it records queue depths run-length
//! ([`Metrics::sample_runs`], [`Metrics::resample`]); the reference
//! records one sample per tenant per active cycle
//! ([`Metrics::sample`]), so the `serving` family checks one against
//! the other.

use crate::spec::{Completion, Scheduler, SimOutcome, SimSpec, SwapOutcome};
use seda_telemetry::Histogram;
use std::collections::VecDeque;

/// One queued request awaiting dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedReq {
    /// Issue-order id.
    pub id: u64,
    /// Arrival cycle.
    pub arrival: u64,
    /// EDF deadline (`u64::MAX` without an SLA).
    pub deadline: u64,
    /// Issuing client for closed-loop requests.
    pub client: Option<u32>,
}

/// A dispatched (or preempted) unit of work: consecutive same-tenant
/// requests served as one batch of concatenated inference layers.
/// Preemption re-enqueues the whole batch with its progress intact —
/// batches are indivisible once formed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// Tenant index.
    pub tenant: usize,
    /// Member requests in arrival order.
    pub reqs: Vec<QueuedReq>,
    /// Concatenated per-layer durations for the whole batch.
    pub layers: Vec<u64>,
    /// Index of the next layer to execute.
    pub next_layer: usize,
    /// Earliest member deadline (the EDF key).
    pub deadline: u64,
    /// Earliest member arrival (the FCFS key).
    pub arrival: u64,
    /// Smallest member id (the final tie-breaker).
    pub id: u64,
}

impl Batch {
    /// Duration of the layer about to execute (or executing).
    pub fn current_layer(&self) -> u64 {
        self.layers[self.next_layer]
    }

    /// Whether every layer has executed.
    pub fn done(&self) -> bool {
        self.next_layer == self.layers.len()
    }
}

/// The queue discipline state shared by both kernels.
#[derive(Debug)]
pub struct SchedState {
    /// Per-tenant FIFO queues.
    pub queues: Vec<VecDeque<QueuedReq>>,
    /// Preempted batches awaiting resumption (EDF-preempt only).
    pub preempted: Vec<Batch>,
    /// Round-robin cursor: the tenant index to consider first.
    pub rr_cursor: usize,
    /// The *active* per-tenant batch cost profiles — the spec's lineup
    /// profiles until a hot swap cuts over, the replacement's after.
    /// Batch formation reads these; batches already formed keep their
    /// admission-time layers.
    pub profiles: Vec<Vec<Vec<u64>>>,
}

impl SchedState {
    /// Empty state for the spec's tenant lineup.
    pub fn new(spec: &SimSpec) -> Self {
        Self {
            queues: vec![VecDeque::new(); spec.tenants.len()],
            preempted: Vec::new(),
            rr_cursor: 0,
            profiles: spec.tenants.iter().map(|t| t.profiles.clone()).collect(),
        }
    }

    /// Installs a tenant's replacement cost profiles at swap cutover.
    /// In-flight batches are unaffected — they own their layers.
    pub fn swap_profiles(&mut self, tenant: usize, profiles: Vec<Vec<u64>>) {
        self.profiles[tenant] = profiles;
    }

    /// Enqueues one arrival on its tenant queue.
    pub fn enqueue(&mut self, tenant: usize, req: QueuedReq) {
        self.queues[tenant].push_back(req);
    }

    /// Total requests queued (preempted batches are in service, not
    /// queued, and are excluded — both kernels must agree on this).
    pub fn queued_total(&self) -> u64 {
        self.queues.iter().map(|q| q.len() as u64).sum()
    }

    /// The earliest deadline among all pending work: queue heads and
    /// preempted batches.
    fn min_pending_deadline(&self) -> Option<u64> {
        let heads = self
            .queues
            .iter()
            .filter_map(|q| q.front().map(|r| r.deadline));
        let pool = self.preempted.iter().map(|b| b.deadline);
        heads.chain(pool).min()
    }

    /// The preemption predicate: pending work strictly beats the
    /// running batch's deadline. Evaluated at layer boundaries only,
    /// against pre-arrival queue state.
    pub fn should_preempt(&self, batch: &Batch) -> bool {
        self.min_pending_deadline()
            .is_some_and(|d| d < batch.deadline)
    }

    /// Parks a preempted batch for later resumption.
    pub fn park(&mut self, batch: Batch) {
        self.preempted.push(batch);
    }

    /// Takes the scheduler's best candidate for one idle NPU, or `None`
    /// when nothing is pending. Forms a fresh batch of up to
    /// `spec.max_batch` head requests when a tenant queue wins;
    /// resumes a preempted batch when the pool wins.
    pub fn dispatch(&mut self, spec: &SimSpec) -> Option<Batch> {
        match spec.scheduler {
            Scheduler::Rr => self.dispatch_rr(spec),
            Scheduler::Fcfs => {
                self.dispatch_keyed(spec, |r| (r.arrival, r.id), |b| (b.arrival, b.id))
            }
            Scheduler::Edf { .. } => self.dispatch_keyed(
                spec,
                |r| (r.deadline, r.arrival),
                |b| (b.deadline, b.arrival),
            ),
        }
    }

    fn dispatch_rr(&mut self, spec: &SimSpec) -> Option<Batch> {
        let tenants = self.queues.len();
        for step in 0..tenants {
            let tenant = (self.rr_cursor + step) % tenants;
            if !self.queues[tenant].is_empty() {
                self.rr_cursor = (tenant + 1) % tenants;
                return Some(self.form_batch(spec, tenant));
            }
        }
        None
    }

    /// Generic keyed dispatch: the best queue head competes with the
    /// best preempted batch under the same key, ties broken by the
    /// smallest member id (globally unique).
    fn dispatch_keyed(
        &mut self,
        spec: &SimSpec,
        req_key: fn(&QueuedReq) -> (u64, u64),
        batch_key: fn(&Batch) -> (u64, u64),
    ) -> Option<Batch> {
        let best_head = self
            .queues
            .iter()
            .enumerate()
            .filter_map(|(tenant, q)| q.front().map(|r| ((req_key(r), r.id), tenant)))
            .min();
        let best_parked = self
            .preempted
            .iter()
            .enumerate()
            .map(|(i, b)| ((batch_key(b), b.id), i))
            .min();
        match (best_head, best_parked) {
            (None, None) => None,
            (Some((_, tenant)), None) => Some(self.form_batch(spec, tenant)),
            (None, Some((_, i))) => Some(self.preempted.remove(i)),
            (Some((hk, tenant)), Some((pk, i))) => {
                if hk <= pk {
                    Some(self.form_batch(spec, tenant))
                } else {
                    Some(self.preempted.remove(i))
                }
            }
        }
    }

    fn form_batch(&mut self, spec: &SimSpec, tenant: usize) -> Batch {
        // A tenant can only batch as deep as it has cost profiles for —
        // judged against the *active* (possibly swapped-in) profiles.
        let b = (spec.max_batch as usize)
            .min(self.profiles[tenant].len())
            .min(self.queues[tenant].len());
        let reqs: Vec<QueuedReq> = self.queues[tenant].drain(..b).collect();
        let layers = self.profiles[tenant][..b].concat();
        // FIFO queues and a per-tenant SLA make the head the minimum on
        // every key, but take the fold anyway — it is the contract.
        let deadline = reqs.iter().map(|r| r.deadline).min().unwrap_or(u64::MAX);
        let arrival = reqs.iter().map(|r| r.arrival).min().unwrap_or(0);
        let id = reqs.iter().map(|r| r.id).min().unwrap_or(0);
        Batch {
            tenant,
            reqs,
            layers,
            next_layer: 0,
            deadline,
            arrival,
            id,
        }
    }
}

/// Metric accumulation shared by both kernels.
#[derive(Debug)]
pub struct Metrics {
    completions: Vec<Completion>,
    queue_trace: Vec<(u64, u64)>,
    latency: Vec<Histogram>,
    queue_depth: Vec<Histogram>,
    /// Per-tenant `(depth, samples)` run not yet recorded into
    /// `queue_depth`: the event kernel samples run-length.
    depth_runs: Vec<(u64, u64)>,
    busy: Vec<u64>,
    events: u64,
    end_cycle: u64,
    swaps: Vec<SwapOutcome>,
}

impl Metrics {
    /// Empty accumulators for `tenants` tenants and `replicas` NPUs.
    pub fn new(tenants: usize, replicas: usize) -> Self {
        Self {
            completions: Vec::new(),
            queue_trace: Vec::new(),
            latency: vec![Histogram::new(); tenants],
            queue_depth: vec![Histogram::new(); tenants],
            depth_runs: vec![(0, 0); tenants],
            busy: vec![0; replicas],
            events: 0,
            end_cycle: 0,
            swaps: Vec::new(),
        }
    }

    /// Records one applied hot swap at its cutover cycle.
    pub fn swap(&mut self, tenant: usize, requested: u64, cutover: u64) {
        self.swaps.push(SwapOutcome {
            tenant,
            requested,
            cutover,
        });
    }

    /// Counts one processed event (layer-done, arrival or swap-due).
    pub fn event(&mut self) {
        self.events += 1;
    }

    /// Charges `cycles` of busy time to replica `npu`.
    pub fn busy(&mut self, npu: usize, cycles: u64) {
        self.busy[npu] += cycles;
    }

    /// Records one completed request.
    pub fn complete(&mut self, req: &QueuedReq, tenant: usize, now: u64) {
        self.completions.push(Completion {
            id: req.id,
            tenant,
            arrival: req.arrival,
            completion: now,
        });
        self.latency[tenant].record(now - req.arrival);
        self.end_cycle = self.end_cycle.max(now);
    }

    /// Samples queue depths after an active cycle, one histogram record
    /// per tenant: the stepped reference's form.
    pub fn sample(&mut self, now: u64, state: &SchedState) {
        self.queue_trace.push((now, state.queued_total()));
        for (tenant, q) in state.queues.iter().enumerate() {
            self.queue_depth[tenant].record(q.len() as u64);
        }
    }

    /// Samples queue depths after an active cycle, run-length: a
    /// tenant's run of equal depths reaches its histogram in one
    /// [`Histogram::record_n`] when the depth changes, or at
    /// [`finish`](Self::finish). The same outcome as [`sample`](Self::sample).
    pub fn sample_runs(&mut self, now: u64, state: &SchedState) {
        self.queue_trace.push((now, state.queued_total()));
        for (tenant, q) in state.queues.iter().enumerate() {
            let depth = q.len() as u64;
            let run = &mut self.depth_runs[tenant];
            if run.0 == depth {
                run.1 += 1;
            } else {
                self.queue_depth[tenant].record_n(run.0, run.1);
                *run = (depth, 1);
            }
        }
    }

    /// Repeats the last [`sample_runs`](Self::sample_runs) at cycle
    /// `now`, for an active cycle that changed no queue.
    pub fn resample(&mut self, now: u64) {
        let total = self.queue_trace.last().map_or(0, |&(_, total)| total);
        self.queue_trace.push((now, total));
        for run in &mut self.depth_runs {
            run.1 += 1;
        }
    }

    /// Finalizes into the comparable outcome.
    pub fn finish(mut self) -> SimOutcome {
        for (hist, &(depth, n)) in self.queue_depth.iter_mut().zip(&self.depth_runs) {
            hist.record_n(depth, n);
        }
        SimOutcome {
            completions: self.completions,
            queue_trace: self.queue_trace,
            tenant_latency: self.latency.iter().map(Histogram::snapshot).collect(),
            tenant_queue_depth: self.queue_depth.iter().map(Histogram::snapshot).collect(),
            busy_cycles: self.busy,
            end_cycle: self.end_cycle,
            events: self.events,
            swaps: self.swaps,
        }
    }
}

/// Closed-loop client bookkeeping shared by both kernels: per-client
/// RNG streams, issue quotas, and globally ordered issue ids. Both
/// kernels must call [`on_complete`](Clients::on_complete) at identical
/// points (completion processing order) for the draws to line up.
#[derive(Debug)]
pub struct Clients {
    rngs: Vec<seda_adversary::Rng>,
    issued: Vec<u64>,
    quota: Vec<u64>,
    next_id: u64,
    think_cycles: f64,
    weights: Vec<u64>,
}

impl Clients {
    /// Initializes client state and returns the initial arrivals, one
    /// per client with a nonzero quota, ids assigned in client order.
    /// Each initial arrival lands at the client's first think draw.
    pub fn new(spec: &SimSpec) -> (Self, Vec<crate::arrivals::Arrival>) {
        let crate::spec::ArrivalSim::ClosedLoop {
            clients,
            think_cycles,
            requests,
        } = spec.arrival
        else {
            panic!("Clients::new needs a closed-loop arrival spec");
        };
        let weights = spec.weights();
        let mut me = Self {
            rngs: (0..clients)
                .map(|c| crate::arrivals::client_rng(spec.seed, c))
                .collect(),
            issued: vec![0; clients as usize],
            quota: (0..clients)
                .map(|c| crate::arrivals::client_quota(requests, clients, c))
                .collect(),
            next_id: 0,
            think_cycles,
            weights,
        };
        let mut initial = Vec::new();
        for c in 0..clients {
            if me.quota[c as usize] > 0 {
                if let Some(a) = me.issue(c, 0) {
                    initial.push(a);
                }
            }
        }
        (me, initial)
    }

    /// Issues client `c`'s next request after `now` if quota remains:
    /// one think draw plus one tenant pick from the client's stream.
    fn issue(&mut self, c: u32, now: u64) -> Option<crate::arrivals::Arrival> {
        let ci = c as usize;
        if self.issued[ci] >= self.quota[ci] {
            return None;
        }
        self.issued[ci] += 1;
        let think = crate::arrivals::think_draw(&mut self.rngs[ci], self.think_cycles);
        let tenant = crate::arrivals::pick_tenant(&mut self.rngs[ci], &self.weights);
        let id = self.next_id;
        self.next_id += 1;
        Some(crate::arrivals::Arrival {
            cycle: now + think,
            tenant,
            id,
            client: Some(c),
        })
    }

    /// Handles one request completion: schedules the issuing client's
    /// next request (arriving strictly after `now`) when quota remains.
    pub fn on_complete(
        &mut self,
        client: Option<u32>,
        now: u64,
    ) -> Option<crate::arrivals::Arrival> {
        client.and_then(|c| self.issue(c, now))
    }
}
