//! Per-channel memory controller with bank state tracking.
//!
//! The model is an open-page policy with in-order issue per channel and
//! bank-level parallelism: a request's column command waits for its bank
//! (activate/precharge latency on a row miss) while other banks' transfers
//! keep the data bus busy. This captures the first-order behaviour that
//! differentiates protection schemes — metadata accesses break row locality
//! and add serialized activates — without a full command-level replay.
//!
//! Three kernels replay a request stream:
//!
//! * [`DramSim::access`]/[`DramSim::access_timed`] — the exact per-access
//!   kernel, one full front-end evaluation per request.
//! * The **long-streak kernel**: runs of consecutive 64 B slots longer
//!   than the channel count advance every channel by a closed-form
//!   amount (telescoped row hits plus an O(periods-crossed) refresh
//!   walk).
//! * The **short-streak step**: everything too short for the long-streak
//!   kernel — singletons, short runs, read/write turnarounds — replays in
//!   place, one packed request at a time. A request continuing its
//!   channel's steady streak (same bank, row, and direction) takes a
//!   one-access closed-form row hit; anything else runs the exact kernel
//!   on pre-cracked bank/row fields.
//!
//! The last two form one per-streak body with two entry points:
//! [`DramSim::run_batch_packed`] (and its [`DramSim::run_batch`] shim)
//! scans a per-line packed stream for streaks, and [`DramSim::run_runs`]
//! takes them ready-made from a run-encoded stream ([`Run`]).
//!
//! All three are bit-identical, access for access — the `dram-batch`
//! family of `seda-validate` and the conformance tests in this crate
//! enforce that, stat for stat.

use crate::config::DramConfig;
use crate::mapping::AddressMapping;
use crate::request::{Request, RowOutcome};
use crate::run::Run;
use crate::stats::DramStats;

#[derive(Debug, Clone, Copy)]
struct BankState {
    open_row: Option<u64>,
    /// Earliest cycle the bank can accept its next column command
    /// (enforces column-to-column spacing, tCCD).
    next_col: u64,
    /// Cycle after which the bank may be precharged (in-flight data plus
    /// write recovery must drain first).
    busy_until: u64,
    /// Cycle of the last activate (for tRAS enforcement on precharge).
    activated: u64,
    /// Cumulative cycles this bank spent occupied by an access (column
    /// command through data drain and write recovery).
    occupied: u64,
}

impl BankState {
    fn new() -> Self {
        Self {
            open_row: None,
            next_col: 0,
            busy_until: 0,
            activated: 0,
            occupied: 0,
        }
    }
}

/// Per-channel clocks, kept apart from the bank array so the hot path
/// touches one small struct per request.
#[derive(Debug, Clone, Copy)]
struct ChannelClock {
    /// Cycle after which the data bus is free.
    bus_free: u64,
    /// Clock of the most recent command issue (monotonic per channel).
    now: u64,
    /// Largest multiple of `t_refi` at or below the channel's last
    /// checked burst start. Caches the refresh-phase floor so the hot
    /// path computes `data_start % t_refi` by subtraction instead of a
    /// 64-bit division: burst starts are monotone per channel and rarely
    /// advance more than one refresh period between checks.
    refi_epoch: u64,
}

impl ChannelClock {
    fn new() -> Self {
        Self {
            bus_free: 0,
            now: 0,
            refi_epoch: 0,
        }
    }

    /// `ds % t_refi`, computed incrementally from the cached epoch.
    ///
    /// Precondition: `ds` is monotone per channel (every burst start is),
    /// so the epoch never has to move backward. The common case advances
    /// the epoch zero or one period; a large jump (idle channel, row
    /// conflict penalty far exceeding a pathological tiny `t_refi`) takes
    /// one division to resynchronize.
    #[inline]
    fn refresh_phase(&mut self, ds: u64, t_refi: u64) -> u64 {
        let mut gap = ds - self.refi_epoch;
        if gap >= t_refi {
            if gap >= t_refi.saturating_mul(64) {
                self.refi_epoch = ds - ds % t_refi;
                return ds - self.refi_epoch;
            }
            while gap >= t_refi {
                self.refi_epoch += t_refi;
                gap -= t_refi;
            }
        }
        gap
    }
}

/// Timing of one access: its row-buffer outcome plus the half-open
/// `[data_start, data_end)` window its data occupied the channel bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessTiming {
    /// Row-buffer outcome of the access.
    pub outcome: RowOutcome,
    /// Channel the access mapped to.
    pub channel: u32,
    /// Memory-controller cycle the data burst started on the bus.
    pub data_start: u64,
    /// Cycle the data burst left the bus (`data_start + t_bl`).
    pub data_end: u64,
}

/// Precomputed shift/mask geometry the batched kernels use to crack a
/// packed request (`(block << 1) | is_write`) into channel, bank, and row
/// fields without going through a full [`AddressMapping::decode`].
#[derive(Debug, Clone, Copy)]
struct LaneGeometry {
    /// Mask selecting the bits of a packed request that determine its
    /// steady-streak key `(bank, rank, row, direction)`: everything above
    /// the channel and column fields, plus the direction bit.
    key_mask: u64,
    /// `log2(channels × columns)` — bits below the bank field.
    region_bits: u32,
    /// All-ones mask over the `(rank, bank)` fields.
    bank_rank_mask: u64,
    /// Shift from a block to its row index.
    row_shift: u32,
    /// `channels - 1`: selects a block's channel (the count is a power
    /// of two).
    ch_mask: u64,
}

impl LaneGeometry {
    /// Requests left in packed request `p`'s super-row region, `p`'s own
    /// included. The room comes from the block's low bits alone, so the
    /// computation cannot wrap even for blocks in the top region of the
    /// address space (the former `(region + 1) << region_bits`
    /// end-pointer form could).
    #[inline]
    fn region_room(self, p: u64) -> u64 {
        let region_mask = (1u64 << self.region_bits) - 1;
        region_mask - ((p >> 1) & region_mask) + 1
    }
}

/// One channel's mutable slice of the simulator: its clock, its banks,
/// and the shared statistics accumulator.
struct Lane<'a> {
    cfg: &'a DramConfig,
    clock: &'a mut ChannelClock,
    banks: &'a mut [BankState],
    stats: &'a mut DramStats,
}

impl Lane<'_> {
    /// The exact per-access kernel: one full front-end evaluation.
    ///
    /// `bank_idx` is the flat `(rank, bank)` index within this channel and
    /// `row` the access's row; both are pre-cracked by the caller so the
    /// batched paths never re-decode an address.
    #[inline]
    fn access(&mut self, bank_idx: usize, row: u64, is_write: bool) -> (RowOutcome, u64, u64) {
        let cfg = self.cfg;
        let clock = &mut *self.clock;
        let bank = &mut self.banks[bank_idx];

        // FR-FCFS-style front end: a request to a ready bank may issue
        // while another bank resolves a row conflict; only the data bus
        // and per-bank state serialize. `now` advances with the stream so
        // requests cannot issue before they arrive.
        let arrival = clock.now;
        let outcome;
        // Cycle at which the column command can be issued to this bank.
        let col_ready = match bank.open_row {
            Some(open) if open == row => {
                outcome = RowOutcome::Hit;
                arrival.max(bank.next_col)
            }
            Some(_) => {
                outcome = RowOutcome::Conflict;
                // Precharge (after in-flight data drains and tRAS elapses),
                // then activate, then the column command after tRCD.
                let pre_at = arrival.max(bank.busy_until).max(bank.activated + cfg.t_ras);
                let act_at = pre_at + cfg.t_rp;
                bank.activated = act_at;
                act_at + cfg.t_rcd
            }
            None => {
                outcome = RowOutcome::Empty;
                let act_at = arrival.max(bank.next_col);
                bank.activated = act_at;
                act_at + cfg.t_rcd
            }
        };
        bank.open_row = Some(row);

        let cas = if is_write { cfg.t_cwl } else { cfg.t_cl };
        // Data occupies the bus for t_bl cycles after CAS latency; column
        // commands to the same bank pipeline at tCCD (= burst) spacing.
        // All-bank refresh blocks the channel for tRFC every tREFI: a
        // transfer landing inside a refresh window slips past it.
        let mut data_start = (col_ready + cas).max(clock.bus_free);
        if cfg.t_refi > 0 {
            let phase = clock.refresh_phase(data_start, cfg.t_refi);
            if phase < cfg.t_rfc {
                self.stats.refresh_stall_cycles += cfg.t_rfc - phase;
                data_start += cfg.t_rfc - phase;
            }
        }
        let data_end = data_start + cfg.t_bl;
        self.stats.bus_busy_cycles += cfg.t_bl;
        self.stats.record_kind(is_write, outcome);
        clock.bus_free = data_end;
        // Arrival time advances with the bus, not with stalled banks: a
        // conflicted request does not block younger requests to other banks.
        clock.now = clock.now.max(data_start.saturating_sub(cas + cfg.t_rcd));
        bank.next_col = data_start - cas + cfg.t_bl;
        bank.busy_until = if is_write {
            data_end + cfg.t_wr
        } else {
            data_end
        };
        bank.occupied += bank.busy_until - col_ready;
        (outcome, data_start, data_end)
    }

    /// Applies `n` steady row hits on this channel's most recent bank in
    /// closed form.
    ///
    /// Precondition (the steady-streak invariant): the channel's last
    /// access touched the same bank, row, and direction. The exact kernel
    /// then gives, for each of the `n` accesses,
    /// `col_ready = next_col` (the channel's arrival clock always trails
    /// `next_col`) and `col_ready + cas = bus_free`, so each burst starts
    /// at `bus_free` — advanced only by refresh slips. Every statistic
    /// the exact kernel would accumulate telescopes:
    ///
    /// * `data_start` advances by `t_bl` per access plus refresh slips,
    ///   walked period-by-period (O(windows crossed), not O(n));
    /// * each access's bank occupancy is `(Δdata_start) + cas + t_wr?`,
    ///   so the sum is `n (t_bl + cas + t_wr?) + slips`;
    /// * the channel arrival clock's running max is its final value.
    #[inline]
    fn streak(&mut self, bank_idx: usize, n: u64, is_write: bool) {
        let cfg = self.cfg;
        let cas = if is_write { cfg.t_cwl } else { cfg.t_cl };
        let write_rec = if is_write { cfg.t_wr } else { 0 };
        let clock = &mut *self.clock;
        // The previous access's burst start: its data_end is bus_free.
        let ds0 = clock.bus_free - cfg.t_bl;

        // Walk data_start forward n steps of t_bl, slipping past refresh
        // windows exactly as the per-access check would: one phase test
        // per access, telescoped over whole tREFI periods.
        let (mut ds, mut slip) = (ds0, 0u64);
        let mut left = n;
        if cfg.t_refi == 0 || cfg.t_bl == 0 {
            // No refresh, or a zero-length burst whose phase never moves:
            // post-check phases equal the (checked) previous phase, so no
            // further slips are possible.
            ds += left * cfg.t_bl;
        } else {
            let mut phase = clock.refresh_phase(ds, cfg.t_refi);
            loop {
                // Steps whose tentative phase stays inside the current
                // period need no check outcome change: every issued
                // data_start has phase >= t_rfc, and phases only grow
                // until the period wraps. Short streaks usually fit the
                // remaining room outright, which the multiply test
                // detects without dividing.
                let room = cfg.t_refi - 1 - phase;
                match left.checked_mul(cfg.t_bl) {
                    Some(adv) if adv <= room => {
                        ds += adv;
                        phase += adv;
                        left = 0;
                    }
                    _ => {
                        let safe = (room / cfg.t_bl).min(left);
                        let adv = safe * cfg.t_bl;
                        ds += adv;
                        phase += adv;
                        left -= safe;
                    }
                }
                if left == 0 {
                    break;
                }
                // This access wraps into the next period: apply the exact
                // kernel's single refresh check at its burst start.
                let mut next = ds + cfg.t_bl;
                let mut ph = phase + cfg.t_bl;
                if ph >= cfg.t_refi {
                    clock.refi_epoch += cfg.t_refi;
                    ph -= cfg.t_refi;
                    if ph >= cfg.t_refi {
                        // Degenerate t_bl >= t_refi: resynchronize in O(1).
                        let periods = ph / cfg.t_refi;
                        clock.refi_epoch += periods * cfg.t_refi;
                        ph -= periods * cfg.t_refi;
                    }
                }
                if ph < cfg.t_rfc {
                    slip += cfg.t_rfc - ph;
                    next += cfg.t_rfc - ph;
                    ph = cfg.t_rfc;
                }
                ds = next;
                phase = ph;
                left -= 1;
            }
        }

        // Telescoped state updates — each line is the exact kernel's
        // per-access update summed over the n accesses.
        self.stats.refresh_stall_cycles += slip;
        self.stats.bus_busy_cycles += n * cfg.t_bl;
        self.stats.row_hits += n;
        if is_write {
            self.stats.writes += n;
        } else {
            self.stats.reads += n;
        }
        clock.bus_free = ds + cfg.t_bl;
        clock.now = clock.now.max(ds.saturating_sub(cas + cfg.t_rcd));
        let bank = &mut self.banks[bank_idx];
        bank.occupied += n * (cfg.t_bl + cas + write_rec) + slip;
        bank.next_col = ds - cas + cfg.t_bl;
        bank.busy_until = ds + cfg.t_bl + write_rec;
    }
}

/// Reusable state for the batched kernel, kept on the simulator so
/// repeated `run_batch` calls allocate nothing in steady state. The
/// `last` keys are meaningful only within one `run_batch` call — they
/// reset at entry so interleaved `access()` calls can never leave a stale
/// key behind.
#[derive(Debug, Clone)]
struct BatchScratch {
    /// Per-channel steady-streak key of the most recent access this
    /// batch: the packed request with its column bits ignored via
    /// `key_mask`. `u64::MAX` is an impossible packed value (blocks have
    /// at least [`super::config::ACCESS_BYTES`] zero high bits), so it
    /// doubles as the "no key yet" sentinel.
    last: Vec<u64>,
    /// Packed image of the caller's [`Request`] slice, reused across
    /// [`DramSim::run_batch`] calls so the compatibility shim allocates
    /// nothing in steady state.
    packed: Vec<u64>,
}

/// A multi-channel DRAM timing simulator.
///
/// Feed it a request stream with [`DramSim::access`] (or in bulk with
/// [`DramSim::run_batch`] or [`DramSim::run_runs`]) and read aggregate
/// timing from [`DramSim::stats`]. Bank and bus state persist across
/// calls, so a whole inference can be simulated layer by layer.
///
/// # Examples
///
/// ```
/// use seda_dram::{DramConfig, DramSim, Request};
///
/// let mut sim = DramSim::new(DramConfig::edge());
/// for i in 0..1024u64 {
///     sim.access(Request::read(i * 64));
/// }
/// let stats = sim.stats();
/// assert_eq!(stats.reads, 1024);
/// assert!(stats.row_hits > stats.row_conflicts, "streaming should hit rows");
/// ```
#[derive(Debug, Clone)]
pub struct DramSim {
    config: DramConfig,
    mapping: AddressMapping,
    /// Per-channel bus/arrival clocks.
    clocks: Vec<ChannelClock>,
    /// All banks of all channels in one flat array, channel-major:
    /// `channel * banks_per_channel + rank * banks + bank`.
    banks: Vec<BankState>,
    banks_per_channel: usize,
    stats: DramStats,
    scratch: BatchScratch,
}

impl DramSim {
    /// Creates a simulator with all banks precharged at cycle zero.
    pub fn new(config: DramConfig) -> Self {
        let mapping = AddressMapping::new(&config);
        let banks_per_channel = (config.banks * config.ranks) as usize;
        let channels = config.channels as usize;
        Self {
            config,
            mapping,
            clocks: vec![ChannelClock::new(); channels],
            banks: vec![BankState::new(); channels * banks_per_channel],
            banks_per_channel,
            stats: DramStats::default(),
            scratch: BatchScratch {
                last: vec![u64::MAX; channels],
                packed: Vec::new(),
            },
        }
    }

    /// The simulator's configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Simulates one 64 B access and returns its row-buffer outcome.
    pub fn access(&mut self, req: Request) -> RowOutcome {
        self.access_timed(req).outcome
    }

    /// Like [`DramSim::access`], additionally exposing the transfer's
    /// data-bus occupancy window — the observability hook the validation
    /// harness uses to check refresh exclusion, bus serialization, and
    /// per-channel clock monotonicity without reconstructing timings from
    /// aggregate counters.
    pub fn access_timed(&mut self, req: Request) -> AccessTiming {
        let coord = self.mapping.decode(req.addr);
        let bank_idx = (coord.rank * self.config.banks + coord.bank) as usize;
        let channel = coord.channel;
        let mut lane = self.lane(channel as usize);
        let (outcome, data_start, data_end) = lane.access(bank_idx, coord.row, req.is_write);
        AccessTiming {
            outcome,
            channel,
            data_start,
            data_end,
        }
    }

    /// Borrows channel `ch`'s clock, banks, and the shared statistics as
    /// one lane.
    #[inline]
    fn lane(&mut self, ch: usize) -> Lane<'_> {
        let lo = ch * self.banks_per_channel;
        let hi = lo + self.banks_per_channel;
        Lane {
            cfg: &self.config,
            clock: &mut self.clocks[ch],
            banks: &mut self.banks[lo..hi],
            stats: &mut self.stats,
        }
    }

    /// Streak-batched replay of a request slice, bit-identical to calling
    /// [`DramSim::access`] on every element in order.
    ///
    /// Compatibility shim over [`DramSim::run_batch_packed`]: the slice is
    /// packed once into a reused scratch buffer, then replayed in packed
    /// form. Callers that already hold packed streams — a lowered trace's
    /// per-line view — call the packed entry point directly and skip the
    /// conversion pass.
    pub fn run_batch(&mut self, requests: &[Request]) {
        let mut packed = std::mem::take(&mut self.scratch.packed);
        packed.clear();
        packed.extend(requests.iter().map(|r| r.pack()));
        self.run_batch_packed(&packed);
        self.scratch.packed = packed;
    }

    /// Streak-batched replay of a packed request stream
    /// (`(block << 1) | is_write` per element — see [`Request::pack`]),
    /// bit-identical to calling [`DramSim::access`] on every element in
    /// order.
    ///
    /// This is the native form of the fast path: the simulator is
    /// block-granular throughout, so a packed word carries everything a
    /// [`Request`] does at half the width, and the streak scan below reads
    /// half the bytes per request — which matters, because on long streaks
    /// the scan is memory-bound.
    ///
    /// The kernel exploits two structural facts:
    ///
    /// * **Channels are independent.** No state is shared between
    ///   channels, and every aggregate statistic is a commutative sum, so
    ///   a streak's per-channel runs can be timed channel by channel.
    /// * **Steady row hits are bus-rate.** After any access, the bank's
    ///   next column command plus CAS latency lands exactly when the bus
    ///   frees (`next_col + cas == bus_free`), so a following access to
    ///   the same bank, row, and direction starts its burst at
    ///   `bus_free` — no front-end arbitration can change that.
    ///
    /// Sequential streaks (64 B slots at consecutive addresses, the shape
    /// SCALE-Sim traces and scheme-rewritten tensor walks take) longer
    /// than the channel count are applied per channel in closed form: `n`
    /// row hits advance the bus by `n × t_bl` plus any refresh slips,
    /// accounted in O(refresh windows crossed) rather than O(n).
    /// Everything shorter — singleton streaks, short runs, read/write
    /// turnarounds, region-boundary stragglers — replays in place, in
    /// program order: each request's bank and row are cracked from the
    /// packed word by shift and mask, and a request continuing its
    /// channel's steady streak takes a one-access closed-form row hit
    /// instead of the exact kernel.
    pub fn run_batch_packed(&mut self, requests: &[u64]) {
        let Some(geom) = self.begin_batch() else {
            for &p in requests {
                self.access(Request::unpack(p));
            }
            return;
        };
        let mut i = 0;
        while i < requests.len() {
            let head_p = requests[i];

            // Detect a sequential streak: consecutive requests walking
            // consecutive 64 B slots in one direction, within one
            // super-row region (same (bank, rank, row) on every channel).
            let room = geom.region_room(head_p);
            let max_len = room.min((requests.len() - i) as u64) as usize;
            let window = &requests[i..i + max_len];
            let mut len = 1;
            // In packed form a streak is an arithmetic progression of
            // stride 2 (block advances by one, direction bit unchanged),
            // so one XOR per element checks block and direction together.
            // Verify four requests per iteration with one well-predicted
            // branch: long streaks spend almost all scan time here, and
            // the scan is memory-bound, which is why the stream is packed
            // to 8 B/request in the first place. The scalar tail finishes
            // partial quads and pinpoints the break.
            while len + 4 <= max_len {
                let q = &window[len..len + 4];
                let expect = head_p + 2 * len as u64;
                let mismatch = (q[0] ^ expect)
                    | (q[1] ^ (expect + 2))
                    | (q[2] ^ (expect + 4))
                    | (q[3] ^ (expect + 6));
                if mismatch != 0 {
                    break;
                }
                len += 4;
            }
            while len < max_len && window[len] == head_p + 2 * len as u64 {
                len += 1;
            }
            self.apply_streak(head_p, len as u64, geom);
            i += len;
        }
    }

    /// Replays a run-encoded stream (see [`Run`]), bit-identical to
    /// calling [`DramSim::access`] on every request the runs expand to,
    /// in order — and so to [`DramSim::run_batch_packed`] on the expanded
    /// stream.
    ///
    /// This is the same kernel as [`DramSim::run_batch_packed`] minus its
    /// scan: the runs already say where each streak starts and how long
    /// it is, so each run is only split at super-row region boundaries
    /// and applied. Runs need not be maximal; any split of a stream into
    /// runs replays identically, because every piece goes through the
    /// same per-streak step that is itself exact access for access.
    pub fn run_runs(&mut self, runs: &[Run]) {
        let Some(geom) = self.begin_batch() else {
            for p in crate::run::expand(runs) {
                self.access(Request::unpack(p));
            }
            return;
        };
        for run in runs {
            let (mut head_p, mut left) = (run.head, run.len);
            while left > 0 {
                let len = geom.region_room(head_p).min(left);
                self.apply_streak(head_p, len, geom);
                head_p += 2 * len;
                left -= len;
            }
        }
    }

    /// Prepares one batched replay call: resets the per-call steady-streak
    /// keys and returns the cracking geometry, or `None` when the config
    /// is degenerate and the call must replay per access instead.
    fn begin_batch(&mut self) -> Option<LaneGeometry> {
        // The closed-form refresh walk assumes every issued burst leaves
        // its channel with phase >= tRFC, which the per-access check only
        // guarantees when the refresh window fits its interval. A
        // degenerate config (tRFC >= tREFI) replays per access instead.
        if self.config.t_refi > 0 && self.config.t_rfc >= self.config.t_refi {
            return None;
        }
        // Steady-streak keys are local to a call: reset so interleaved
        // `access()` calls can never leave a stale key behind.
        for last in &mut self.scratch.last {
            *last = u64::MAX;
        }
        let region_bits = self.mapping.region_bits();
        Some(LaneGeometry {
            key_mask: (!0u64 << (region_bits + 1)) | 1,
            region_bits,
            bank_rank_mask: self.mapping.bank_rank_mask(),
            row_shift: self.mapping.row_shift(),
            ch_mask: self.clocks.len() as u64 - 1,
        })
    }

    /// Applies one sequential streak of `len` packed requests starting at
    /// `head_p`, all inside one super-row region: the per-streak body
    /// shared by [`DramSim::run_batch_packed`] and [`DramSim::run_runs`].
    #[inline]
    fn apply_streak(&mut self, head_p: u64, len: u64, geom: LaneGeometry) {
        let channels = self.clocks.len() as u64;
        if len > channels {
            // Long streak. Channel of offset j is (head_block + j) mod
            // channels, and every block in the region shares one
            // within-channel bank index and row. Per channel: the first
            // access goes through the scalar path (it may hit, conflict,
            // or open an empty bank) and establishes the steady-streak
            // invariant; the channel's remaining accesses are steady row
            // hits applied in closed form.
            let head_block = head_p >> 1;
            let is_write = head_p & 1 != 0;
            let bank_idx = self.mapping.bank_index(head_block);
            let row = self.mapping.row_of(head_block);
            let extra = len - channels;
            let per_channel = extra / channels;
            let remainder = extra % channels;
            for j in 0..channels {
                let p = head_p + 2 * j;
                let ch = ((p >> 1) & geom.ch_mask) as usize;
                let matched = (self.scratch.last[ch] ^ p) & geom.key_mask == 0;
                self.scratch.last[ch] = p;
                let tail = per_channel + u64::from(j < remainder);
                let mut lane = self.lane(ch);
                if matched {
                    // The head continues a steady streak, so the whole
                    // per-channel run telescopes into one closed form.
                    lane.streak(bank_idx, tail + 1, is_write);
                } else {
                    lane.access(bank_idx, row, is_write);
                    if tail > 0 {
                        lane.streak(bank_idx, tail, is_write);
                    }
                }
            }
        } else {
            // Too short for the closed-form kernel: replay in place.
            for k in 0..len {
                let p = head_p + 2 * k;
                self.step_packed(((p >> 1) & geom.ch_mask) as usize, p, geom);
            }
        }
    }

    /// One packed request through the batched kernel's scalar path: a
    /// steady same-key follow-up takes the closed-form row-hit step;
    /// anything else runs the exact per-access kernel.
    #[inline]
    fn step_packed(&mut self, ch: usize, p: u64, geom: LaneGeometry) {
        let matched = (self.scratch.last[ch] ^ p) & geom.key_mask == 0;
        self.scratch.last[ch] = p;
        let block = p >> 1;
        let is_write = p & 1 != 0;
        let bank_idx = ((block >> geom.region_bits) & geom.bank_rank_mask) as usize;
        let mut lane = self.lane(ch);
        if matched {
            lane.streak(bank_idx, 1, is_write);
        } else {
            lane.access(bank_idx, block >> geom.row_shift, is_write);
        }
    }

    /// Total elapsed memory-controller cycles (the slowest channel's clock).
    pub fn elapsed_cycles(&self) -> u64 {
        self.clocks.iter().map(|c| c.bus_free).max().unwrap_or(0)
    }

    /// Elapsed time in seconds at the configured memory clock.
    pub fn elapsed_seconds(&self) -> f64 {
        self.config.cycles_to_seconds(self.elapsed_cycles())
    }

    /// Aggregate access statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Achieved bandwidth in bytes/second over the elapsed window.
    pub fn achieved_bandwidth(&self) -> f64 {
        let secs = self.elapsed_seconds();
        if secs == 0.0 {
            0.0
        } else {
            self.stats.bytes() as f64 / secs
        }
    }

    /// Cumulative occupied cycles of every bank, channel-major.
    pub fn bank_occupancy_cycles(&self) -> Vec<u64> {
        self.banks.iter().map(|b| b.occupied).collect()
    }

    /// Emits the simulator's cumulative activity to the global telemetry
    /// sink: access/row-outcome/refresh/bus counters plus one
    /// `dram.bank_occupancy_cycles` histogram sample per bank.
    ///
    /// Hot-path accounting lives in plain [`DramStats`] fields and the
    /// per-bank `occupied` tallies, so the per-access loop carries no
    /// telemetry dispatch; callers flush once per simulator lifetime
    /// (the pipeline kernel does so at the end of each run).
    pub fn emit_telemetry(&self) {
        if !seda_telemetry::enabled() {
            return;
        }
        self.emit_telemetry_to(&GlobalDispatch);
    }

    /// Emits the same metrics as [`DramSim::emit_telemetry`] into an
    /// explicit sink, bypassing the process-global dispatch. The
    /// `dram-batch` conformance family uses this to capture and compare
    /// the replay kernels' telemetry snapshots in isolation.
    pub fn emit_telemetry_to(&self, sink: &dyn seda_telemetry::Sink) {
        let s = &self.stats;
        sink.add("dram.reads", s.reads);
        sink.add("dram.writes", s.writes);
        sink.add("dram.row_hits", s.row_hits);
        sink.add("dram.row_empties", s.row_empties);
        sink.add("dram.row_conflicts", s.row_conflicts);
        sink.add("dram.refresh_stall_cycles", s.refresh_stall_cycles);
        sink.add("dram.bus_busy_cycles", s.bus_busy_cycles);
        for occupied in self.bank_occupancy_cycles() {
            sink.record("dram.bank_occupancy_cycles", occupied);
        }
    }
}

/// Adapter routing [`seda_telemetry::Sink`] calls onto the process-global
/// dispatch functions, so the global and sink-directed emit paths share
/// one metric registry.
struct GlobalDispatch;

impl seda_telemetry::Sink for GlobalDispatch {
    fn add(&self, name: &'static str, delta: u64) {
        seda_telemetry::counter_add(name, delta);
    }

    fn record(&self, name: &'static str, value: u64) {
        seda_telemetry::record(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ACCESS_BYTES;

    fn sim() -> DramSim {
        DramSim::new(DramConfig::server())
    }

    #[test]
    fn sequential_stream_approaches_peak_bandwidth() {
        let mut s = sim();
        for i in 0..100_000u64 {
            s.access(Request::read(i * ACCESS_BYTES));
        }
        let eff = s.achieved_bandwidth() / s.config().peak_bandwidth();
        assert!(eff > 0.85, "streaming efficiency too low: {eff:.3}");
    }

    #[test]
    fn random_rows_are_much_slower() {
        let mut seq = sim();
        let mut rnd = sim();
        let n = 20_000u64;
        for i in 0..n {
            seq.access(Request::read(i * ACCESS_BYTES));
            // Jump a whole row per access within one bank's address space.
            let row_span = 8192 * 4; // row_bytes * channels
            rnd.access(Request::read((i * 7919) % 4096 * row_span));
        }
        assert!(
            rnd.elapsed_cycles() > 2 * seq.elapsed_cycles(),
            "row conflicts should cost: rnd={} seq={}",
            rnd.elapsed_cycles(),
            seq.elapsed_cycles()
        );
    }

    #[test]
    fn first_access_is_an_empty_row() {
        let mut s = sim();
        assert_eq!(s.access(Request::read(0)), RowOutcome::Empty);
        assert_eq!(s.access(Request::read(0)), RowOutcome::Hit);
    }

    #[test]
    fn conflict_detected_on_row_change() {
        let cfg = DramConfig::server();
        // Same channel, same bank, next row: skip over all columns, banks,
        // and ranks of the interleaving.
        let row_span = cfg.columns_per_row()
            * u64::from(cfg.channels)
            * u64::from(cfg.banks)
            * u64::from(cfg.ranks)
            * ACCESS_BYTES;
        let mut s = DramSim::new(cfg);
        s.access(Request::read(0));
        assert_eq!(s.access(Request::read(row_span)), RowOutcome::Conflict);
    }

    #[test]
    fn stats_count_reads_and_writes() {
        let mut s = sim();
        s.access(Request::read(0));
        s.access(Request::write(64));
        s.access(Request::write(128));
        assert_eq!(s.stats().reads, 1);
        assert_eq!(s.stats().writes, 2);
        assert_eq!(s.stats().bytes(), 3 * ACCESS_BYTES);
    }

    #[test]
    fn bus_and_bank_occupancy_accounting() {
        let mut s = sim();
        for i in 0..1000u64 {
            s.access(Request::read(i * ACCESS_BYTES));
        }
        let t_bl = s.config().t_bl;
        assert_eq!(s.stats().bus_busy_cycles, 1000 * t_bl);
        let occupied: u64 = s.bank_occupancy_cycles().iter().sum();
        assert!(
            occupied >= 1000 * t_bl,
            "each access occupies a bank for at least its burst: {occupied}"
        );
    }

    #[test]
    fn elapsed_cycles_monotone() {
        let mut s = sim();
        let mut last = 0;
        for i in 0..100 {
            s.access(Request::read(i * 64));
            let e = s.elapsed_cycles();
            assert!(e >= last);
            last = e;
        }
    }

    #[test]
    fn channels_share_load_for_striped_streams() {
        let mut s = sim();
        for i in 0..4096u64 {
            s.access(Request::read(i * ACCESS_BYTES));
        }
        // A striped stream of N accesses at 4 channels and tBL=4 should take
        // roughly N/4 * tBL cycles, far below serial N * tBL.
        let cycles = s.elapsed_cycles();
        assert!(cycles < 4096 * 4 / 2, "no channel parallelism: {cycles}");
    }

    #[test]
    fn refresh_phase_matches_modulo() {
        // The epoch-cached phase must equal ds % t_refi for monotone ds,
        // including jumps much larger than a period (division fallback).
        let mut clock = ChannelClock::new();
        let t_refi = 97;
        let mut ds = 0u64;
        for step in [1u64, 5, 96, 97, 98, 500, 97 * 200, 3, 0, 96] {
            ds += step;
            assert_eq!(clock.refresh_phase(ds, t_refi), ds % t_refi, "ds={ds}");
            assert_eq!(clock.refi_epoch, ds - ds % t_refi);
        }
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use crate::config::ACCESS_BYTES;

    /// Replays `stream` through both kernels and asserts every observable
    /// is bit-identical.
    fn assert_conformant(cfg: DramConfig, stream: &[Request]) {
        let mut exact = DramSim::new(cfg.clone());
        for &r in stream {
            exact.access(r);
        }
        let mut batched = DramSim::new(cfg.clone());
        batched.run_batch(stream);
        assert_eq!(exact.stats(), batched.stats(), "stats diverged");
        assert_eq!(
            exact.elapsed_cycles(),
            batched.elapsed_cycles(),
            "elapsed cycles diverged"
        );
        assert_eq!(
            exact.bank_occupancy_cycles(),
            batched.bank_occupancy_cycles(),
            "bank occupancy diverged"
        );
        // The packed entry point (the pipeline's native form) must agree
        // byte for byte with the Request-slice shim.
        let packed_stream: Vec<u64> = stream.iter().map(|r| r.pack()).collect();
        let mut packed = DramSim::new(cfg.clone());
        packed.run_batch_packed(&packed_stream);
        assert_eq!(exact.stats(), packed.stats(), "packed stats diverged");
        assert_eq!(
            exact.elapsed_cycles(),
            packed.elapsed_cycles(),
            "packed elapsed cycles diverged"
        );
        assert_eq!(
            exact.bank_occupancy_cycles(),
            packed.bank_occupancy_cycles(),
            "packed bank occupancy diverged"
        );
        // The run entry point must agree on the stream's maximal runs and
        // on a non-maximal split of them (every run cut into pieces of at
        // most three requests).
        let mut buf = crate::RunBuf::new();
        for &r in stream {
            buf.push(r);
        }
        let split: Vec<Run> = buf
            .runs()
            .iter()
            .flat_map(|r| {
                (0..r.len).step_by(3).map(move |k| Run {
                    head: r.head + 2 * k,
                    len: (r.len - k).min(3),
                })
            })
            .collect();
        for (label, runs) in [("maximal", buf.runs()), ("split", &split[..])] {
            let mut by_runs = DramSim::new(cfg.clone());
            by_runs.run_runs(runs);
            assert_eq!(exact.stats(), by_runs.stats(), "{label} run stats diverged");
            assert_eq!(
                exact.elapsed_cycles(),
                by_runs.elapsed_cycles(),
                "{label} run elapsed cycles diverged"
            );
            assert_eq!(
                exact.bank_occupancy_cycles(),
                by_runs.bank_occupancy_cycles(),
                "{label} run bank occupancy diverged"
            );
        }
    }

    #[test]
    fn streaming_run_is_bit_identical() {
        let stream: Vec<Request> = (0..50_000u64)
            .map(|i| Request::read(i * ACCESS_BYTES))
            .collect();
        assert_conformant(DramConfig::server(), &stream);
    }

    #[test]
    fn streaming_writes_are_bit_identical() {
        let stream: Vec<Request> = (0..20_000u64)
            .map(|i| Request::write(i * ACCESS_BYTES))
            .collect();
        assert_conformant(DramConfig::edge(), &stream);
    }

    #[test]
    fn direction_turnarounds_are_bit_identical() {
        let stream: Vec<Request> = (0..10_000u64)
            .map(|i| {
                if (i / 100) % 2 == 0 {
                    Request::read(i * ACCESS_BYTES)
                } else {
                    Request::write(i * ACCESS_BYTES)
                }
            })
            .collect();
        assert_conformant(DramConfig::server(), &stream);
    }

    #[test]
    fn row_thrash_is_bit_identical() {
        let cfg = DramConfig::server();
        let row_span = cfg.row_bytes * u64::from(cfg.channels);
        let stream: Vec<Request> = (0..5_000u64)
            .map(|i| Request::read((i * 7919) % 512 * row_span))
            .collect();
        assert_conformant(cfg, &stream);
    }

    #[test]
    fn same_slot_repeats_are_bit_identical() {
        let stream: Vec<Request> = (0..5_000u64).map(|_| Request::read(4096)).collect();
        assert_conformant(DramConfig::edge(), &stream);
    }

    #[test]
    fn singleton_heavy_stream_is_bit_identical() {
        // The regime BENCH_sweep.json's streak histogram says dominates: isolated one-block
        // touches scattered over rows and directions, so the short-streak
        // step sees nothing but singletons.
        let cfg = DramConfig::server();
        let row_span = cfg.row_bytes * u64::from(cfg.channels);
        let stream: Vec<Request> = (0..20_000u64)
            .map(|i| {
                let addr = (i * 37 % 977) * row_span + (i * 13 % 31) * ACCESS_BYTES;
                if i % 3 == 0 {
                    Request::write(addr)
                } else {
                    Request::read(addr)
                }
            })
            .collect();
        assert_conformant(cfg, &stream);
    }

    #[test]
    fn short_mixed_streaks_are_bit_identical() {
        // Runs of 2-4 blocks (at or below the channel count, so below the
        // long-streak kernel's threshold) with direction flips between
        // runs: the short-streak step must take closed-form hits within
        // each run and re-evaluate at every boundary.
        let cfg = DramConfig::server();
        let mut stream = Vec::new();
        let mut base = 0u64;
        for i in 0..8_000u64 {
            let len = 2 + (i % 3);
            let write = i % 2 == 1;
            for k in 0..len {
                let addr = (base + k) * ACCESS_BYTES;
                stream.push(if write {
                    Request::write(addr)
                } else {
                    Request::read(addr)
                });
            }
            // Hop far enough that the next run starts a new row.
            base += len + (i % 5) * 512;
        }
        assert_conformant(cfg, &stream);
    }

    #[test]
    fn streaks_crossing_refresh_windows_are_bit_identical() {
        // A long uninterrupted stream crosses many tREFI periods, so the
        // closed-form slip walk gets exercised hard.
        let stream: Vec<Request> = (0..400_000u64)
            .map(|i| Request::read(i * ACCESS_BYTES))
            .collect();
        let cfg = DramConfig::server();
        assert!(cfg.t_refi > 0);
        assert_conformant(cfg, &stream);
    }

    #[test]
    fn single_channel_config_is_bit_identical() {
        let cfg = DramConfig::ddr4_with_bandwidth(1, 5.0e9);
        let stream: Vec<Request> = (0..30_000u64)
            .map(|i| Request::read(i * ACCESS_BYTES))
            .collect();
        assert_conformant(cfg, &stream);
    }

    #[test]
    fn top_of_address_space_regions_are_bit_identical() {
        // Streaks touching the topmost super-row regions of the u64
        // address space: the former region-end pointer
        // `(region + 1) << region_bits` is exactly the form that wraps
        // here, so this pins the overflow-safe remaining-room computation.
        let cfg = DramConfig::server();
        let top_block = u64::MAX >> 6;
        let mut stream = Vec::new();
        // Walk across the very last region boundary up to the final block.
        for i in 0..64u64 {
            stream.push(Request::read((top_block - 63 + i) * ACCESS_BYTES));
        }
        // And a streak straddling a region boundary near 2^42 bytes.
        let hi_block = (1u64 << 42) / ACCESS_BYTES;
        for i in 0..1024u64 {
            stream.push(Request::read((hi_block - 100 + i) * ACCESS_BYTES));
        }
        assert_conformant(cfg, &stream);
    }

    #[test]
    fn degenerate_refresh_config_is_bit_identical() {
        // tRFC >= tREFI: both batched entry points fall back per access.
        let cfg = DramConfig {
            t_refi: 40,
            t_rfc: 40,
            ..DramConfig::server()
        };
        let stream: Vec<Request> = (0..4_000u64)
            .map(|i| Request::read((i / 7 * 11 + i % 7) * ACCESS_BYTES))
            .collect();
        assert_conformant(cfg, &stream);
    }

    #[test]
    fn run_uses_the_batched_kernel() {
        let mut a = DramSim::new(DramConfig::server());
        let stream: Vec<Request> = (0..10_000u64)
            .map(|i| Request::read(i * ACCESS_BYTES))
            .collect();
        a.run_batch(&stream);
        let mut b = DramSim::new(DramConfig::server());
        for &req in &stream {
            b.access(req);
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.elapsed_cycles(), b.elapsed_cycles());
    }

    #[test]
    fn batch_state_carries_across_calls() {
        // Splitting one stream across run_batch calls must equal one call:
        // bank/bus state persists, only the local streak keys reset.
        let stream: Vec<Request> = (0..8_192u64)
            .map(|i| Request::read(i * ACCESS_BYTES))
            .collect();
        let mut whole = DramSim::new(DramConfig::server());
        whole.run_batch(&stream);
        let mut split = DramSim::new(DramConfig::server());
        for chunk in stream.chunks(1000) {
            split.run_batch(chunk);
        }
        assert_eq!(whole.stats(), split.stats());
        assert_eq!(whole.elapsed_cycles(), split.elapsed_cycles());
        assert_eq!(whole.bank_occupancy_cycles(), split.bank_occupancy_cycles());
    }
}

#[cfg(test)]
mod refresh_tests {
    use super::*;
    use crate::config::ACCESS_BYTES;

    #[test]
    fn refresh_steals_a_bounded_fraction_of_bandwidth() {
        let cfg = DramConfig::server();
        let mut with = DramSim::new(cfg.clone());
        let mut without = DramSim::new(DramConfig { t_refi: 0, ..cfg });
        for i in 0..2_000_000u64 {
            with.access(Request::read(i * ACCESS_BYTES));
            without.access(Request::read(i * ACCESS_BYTES));
        }
        let ratio = with.elapsed_cycles() as f64 / without.elapsed_cycles() as f64;
        assert!(ratio > 1.0, "refresh must cost something: {ratio}");
        // tRFC/tREFI = 350ns/7.8us ≈ 4.5%.
        assert!(ratio < 1.08, "refresh overhead too large: {ratio}");
        assert!(with.stats().refresh_stall_cycles > 0, "stalls are counted");
        assert_eq!(without.stats().refresh_stall_cycles, 0);
    }

    #[test]
    fn no_transfer_lands_inside_a_refresh_window() {
        // Regression: this test used to reconstruct the transfer start as
        // `elapsed - 4` with a hard-coded burst length, so any change to
        // the config's t_bl silently invalidated the invariant. The timed
        // access API reports the actual window, and the burst length is
        // checked against the config rather than assumed.
        let cfg = DramConfig::server();
        let (refi, rfc, t_bl) = (cfg.t_refi, cfg.t_rfc, cfg.t_bl);
        assert!(refi > rfc && rfc > 0);
        let mut sim = DramSim::new(cfg);
        for i in 0..100_000u64 {
            let t = sim.access_timed(Request::read(i * ACCESS_BYTES));
            assert_eq!(t.data_end - t.data_start, t_bl, "burst length from config");
            // The data burst must start at or after the end of any refresh
            // window [k*tREFI, k*tREFI + tRFC).
            assert!(
                t.data_start % refi >= rfc,
                "transfer started inside refresh at {}",
                t.data_start
            );
        }
    }
}
