//! The `provision-serve` workload: provisioning a sealed model, then
//! serving tenants under load.
//!
//! The timed phase unseals one large sealed stream through
//! `StreamUnsealer::push` in `CHUNK_BYTES` chunks, then runs one serving
//! scenario through `seda_serve::build` → `simulate` → `ServeReport::new`.
//! The seed sets the stream keys, its payload, the tampered bit and the
//! serving arrival seed; the geometry and load are fixed, so every seed
//! does the same amount of work.

use crate::sweeps::{replay_point, PointSpec, Shares};
use crate::trace::{self, Recorder, Span};
use crate::util::{self, Digest};
use crate::{pins, Report, Size, Tally};
use seda::pipeline::run_trace;
use seda::scenario::{ArrivalSpec, Scenario};
use seda::SedaError;
use seda_adversary::{ProtectConfig, ProtectedImage};
use seda_crypto::ctr::{AesCtr, CounterSeed};
use seda_crypto::mac::{BlockPosition, MacTag, PositionBoundMac};
use seda_models::Model;
use seda_protect::{scheme_by_name, HashEngine};
use seda_scalesim::{simulate_model, NpuConfig, TraceCache};
use seda_serve::{Rng, ServeReport, ServeSetup, SimOutcome};
use seda_stream::{SealedStream, StreamSpec, StreamUnsealer, CHUNK_BYTES};
use std::collections::BTreeMap;
use std::time::Instant;

/// Fresh set-ups timed after each timed repetition, so `setup_s`
/// samples the host's state across the whole run.
pub const SETUPS_PER_REP: usize = 1;

/// The serving scenario; the benchmark sets its seed.
const SCENARIO: &str = include_str!("../provision_serve.json");

/// Sealed stream geometry `(layer regions, bytes per region)`.
fn geometry(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (64, 64 << 10),
        Size::Small => (4, 4 << 10),
    }
}

/// Serving requests at the small size (the full size keeps the
/// scenario's own load and swap time).
const SMALL_REQUESTS: u64 = 2_000;
/// Swap time at the small size, inside its shorter arrival span.
const SMALL_SWAP_MS: f64 = 50.0;

/// Sub-stream tags under the benchmark seed.
const TAG_KEYS: u64 = 1;
const TAG_PAYLOAD: u64 = 2;
const TAG_TAMPER: u64 = 3;
const TAG_ARRIVALS: u64 = 4;

/// Everything `provision-serve` needs before timing starts.
pub struct ProvisionInputs {
    /// The benchmark seed.
    pub seed: u64,
    /// Input size.
    pub size: Size,
    /// Stream identity, keys and geometry.
    pub spec: StreamSpec,
    /// The plaintext layers the stream carries.
    pub payloads: Vec<Vec<u8>>,
    /// The sealed stream.
    pub stream: SealedStream,
    /// The stream with one ciphertext bit flipped.
    pub tampered: SealedStream,
    /// The serving scenario, seeded.
    pub scenario: Scenario,
    /// Time `seda_stream::seal` took in this set-up.
    pub seal_s: f64,
}

/// Builds the inputs from `seed`: scenario parse, keys, plaintext,
/// stream sealing and the tampered copy.
///
/// # Errors
///
/// An invalid scenario or stream specification.
pub fn setup(seed: u64, size: Size) -> Result<ProvisionInputs, String> {
    let mut scenario = Scenario::from_json(SCENARIO).map_err(|e| format!("scenario: {e}"))?;
    let serving = scenario
        .serving
        .as_mut()
        .ok_or("the serving scenario has no serving block")?;
    serving.seed = Rng::sub_seed(seed, TAG_ARRIVALS);
    if size == Size::Small {
        if let ArrivalSpec::OpenLoop { requests, .. } = &mut serving.arrival {
            *requests = SMALL_REQUESTS;
        }
        for swap in serving.swaps.iter_mut().flatten() {
            swap.at_ms = SMALL_SWAP_MS;
        }
    }
    let (layers, layer_bytes) = geometry(size);
    let mut keys = Rng::for_stream(seed, TAG_KEYS);
    let spec = StreamSpec {
        stream_id: keys.next_u64(),
        key_epoch: 1,
        // The full SeDA configuration of the detection matrix.
        config: ProtectConfig::matrix()[2],
        lens: vec![layer_bytes; layers],
        enc_key: keys.block(),
        mac_key: keys.block(),
        transport_key: keys.block(),
    };
    let mut fill = Rng::for_stream(seed, TAG_PAYLOAD);
    let payloads: Vec<Vec<u8>> = spec
        .lens
        .iter()
        .map(|&len| {
            (0..len / 8)
                .flat_map(|_| fill.next_u64().to_le_bytes())
                .collect()
        })
        .collect();
    let t = Instant::now();
    let stream = seda_stream::seal(&spec, &payloads).map_err(|e| format!("seal: {e}"))?;
    let seal_s = t.elapsed().as_secs_f64();
    let mut tampered = stream.clone();
    let mut pick = Rng::for_stream(seed, TAG_TAMPER);
    let frame = pick.below(stream.frame_count() as u64) as usize;
    // Frame layout: seq(8) ‖ layer(4) ‖ blk(4) ‖ ciphertext(64) ‖ mac(8).
    let byte = stream.frame_offset(frame) + 16 + pick.below(64) as usize;
    tampered.flip_bit(byte, pick.below(8) as u8);
    Ok(ProvisionInputs {
        seed,
        size,
        spec,
        payloads,
        stream,
        tampered,
        scenario,
        seal_s,
    })
}

/// Unseals `bytes` through `StreamUnsealer::push` in `CHUNK_BYTES` chunks.
fn unseal(spec: &StreamSpec, bytes: &[u8]) -> Result<ProtectedImage, SedaError> {
    let mut unsealer = StreamUnsealer::new(spec.clone())?;
    for chunk in bytes.chunks(CHUNK_BYTES) {
        unsealer.push(chunk)?;
    }
    unsealer.finish()
}

/// One serving run: grounding, simulation, report.
type Served = (ServeSetup, SimOutcome, ServeReport);

fn serve(scenario: &Scenario) -> Result<Served, SedaError> {
    let setup = seda_serve::build(scenario)?;
    let outcome = seda_serve::simulate(&setup.spec);
    let report = ServeReport::new(&setup, &outcome);
    Ok((setup, outcome, report))
}

/// Outputs computed independently of the timed path, once per run.
struct Expected {
    /// Model root of an at-rest sealing of the same plaintext.
    root: MacTag,
    /// The served models' SeDA overhead, `(runtime, traffic)` in percent.
    overheads: (f64, f64),
}

fn expected(inputs: &ProvisionInputs, report: &mut Report) -> Result<Expected, String> {
    let spec = &inputs.spec;
    let mut at_rest = ProtectedImage::new(spec.config, &spec.lens, spec.enc_key, spec.mac_key)
        .map_err(|e| e.to_string())?;
    for (layer, plain) in inputs.payloads.iter().enumerate() {
        at_rest
            .write_layer(layer, plain)
            .map_err(|e| e.to_string())?;
    }
    let root = at_rest.model_root();
    report.note(format!(
        "stream: {} bytes in {} frames, model root {:016x}",
        inputs.stream.len(),
        inputs.stream.frame_count(),
        root.0
    ));
    let tally = &mut report.tally;
    if let Some(pin) = pins::serve_pin(inputs.seed, inputs.size) {
        tally.check(pin.root == format!("{:016x}", root.0), || {
            format!("model root {:016x}, pinned {}", root.0, pin.root)
        });
    }
    let refused = unseal(spec, inputs.tampered.bytes());
    tally.check(matches!(refused, Err(SedaError::Tag(_))), || {
        format!("a one-bit-flipped stream must fail with a tag mismatch, got {refused:?}")
    });
    Ok(Expected {
        root,
        overheads: served_overheads(&inputs.scenario)?,
    })
}

/// The served models (tenants and swap replacements) and their tenant's
/// lineup scheme.
fn served_models(scenario: &Scenario) -> Result<Vec<(Model, String)>, String> {
    let serving = scenario.serving.as_ref().ok_or("no serving block")?;
    let mut out = Vec::new();
    for t in &serving.tenants {
        out.push((
            t.workload.resolve().map_err(|e| e.to_string())?,
            t.scheme.label(),
        ));
    }
    for s in serving.swaps.as_deref().unwrap_or(&[]) {
        let tenant = serving
            .tenants
            .iter()
            .find(|t| t.name.eq_ignore_ascii_case(&s.tenant))
            .ok_or("swap names an unknown tenant")?;
        let w = s.workload.as_ref().unwrap_or(&tenant.workload);
        out.push((
            w.resolve().map_err(|e| e.to_string())?,
            tenant.scheme.label(),
        ));
    }
    Ok(out)
}

/// SeDA's mean overhead over the baseline on the distinct served models,
/// one cold inference each on the scenario's NPU.
fn served_overheads(scenario: &Scenario) -> Result<(f64, f64), String> {
    let npu = seda::scenario::npu_by_name(&scenario.npus[0]).map_err(|e| e.to_string())?;
    let mut models: Vec<Model> = served_models(scenario)?.into_iter().map(|m| m.0).collect();
    models.sort_by(|a, b| a.name().cmp(b.name()));
    models.dedup_by(|a, b| a.name() == b.name());
    let (mut perf, mut traffic) = (0.0, 0.0);
    for model in &models {
        let sim = simulate_model(&npu, model);
        let run = |name: &str| {
            let mut scheme = scheme_by_name(name).expect("lineup scheme name");
            run_trace(&sim, &npu, scheme.as_mut(), None, 1).remove(0)
        };
        let (base, seda) = (run("baseline"), run("SeDA"));
        perf += seda.total_cycles as f64 / base.total_cycles as f64 - 1.0;
        traffic += seda.traffic.total() as f64 / base.traffic.total() as f64 - 1.0;
    }
    let n = models.len() as f64;
    Ok((100.0 * perf / n, 100.0 * traffic / n))
}

/// Digest of a serving outcome: every completion, per-replica busy time,
/// the end cycle, the event count and the swap cutovers.
fn outcome_digest(outcome: &SimOutcome) -> String {
    let mut d = Digest::default();
    for c in &outcome.completions {
        for w in [c.id, c.tenant as u64, c.arrival, c.completion] {
            d.word(w);
        }
    }
    for &b in &outcome.busy_cycles {
        d.word(b);
    }
    d.word(outcome.end_cycle);
    d.word(outcome.events);
    for s in &outcome.swaps {
        for w in [s.tenant as u64, s.requested, s.cutover] {
            d.word(w);
        }
    }
    d.hex()
}

/// Whether the backlog stays level while requests arrive: the mean queue
/// depth over the second half of the arrival span is at most 1.5 times
/// that over the first half, plus the fleet's batch capacity. Arrivals
/// above capacity grow the queue linearly, which leaves three times as
/// much queue in the second half as in the first. Returns the verdict
/// and the two means.
fn backlog_bounded(outcome: &SimOutcome, capacity: u64) -> (bool, f64, f64) {
    let trace = &outcome.queue_trace;
    let mean = |part: &[(u64, u64)]| {
        util::ratio(part.iter().map(|&(_, q)| q as f64).sum(), part.len() as f64)
    };
    let last_arrival = outcome
        .completions
        .iter()
        .map(|c| c.arrival)
        .max()
        .unwrap_or(0);
    let mid = trace.partition_point(|&(c, _)| c < last_arrival / 2);
    let end = trace.partition_point(|&(c, _)| c <= last_arrival);
    let (first, second) = (mean(&trace[..mid]), mean(&trace[mid..end]));
    (second <= 1.5 * first + capacity as f64, first, second)
}

/// Checks one repetition's outputs.
fn check_rep(
    inputs: &ProvisionInputs,
    expected: &Expected,
    image: &Result<ProtectedImage, SedaError>,
    served: &Result<Served, SedaError>,
    first_digest: &mut Option<String>,
    tally: &mut Tally,
) {
    let root = image.as_ref().map(ProtectedImage::model_root);
    tally.check(root.as_ref() == Ok(&expected.root), || {
        format!(
            "unsealed root {root:?}, at-rest sealing gives {:?}",
            expected.root
        )
    });
    let (setup, outcome, report) = match served {
        Ok(s) => s,
        Err(e) => {
            tally.check(false, || format!("serving run failed: {e}"));
            return;
        }
    };
    let missing = report.requests - report.completed;
    tally.add(report.requests, missing);
    if missing > 0 {
        eprintln!(
            "FAILED: {missing} of {} requests not completed",
            report.requests
        );
    }
    let capacity = u64::from(setup.spec.replicas) * u64::from(setup.spec.max_batch);
    let (level, first, second) = backlog_bounded(outcome, capacity);
    tally.check(level, || {
        format!(
            "backlog grows: mean queue {first:.2} over the first half, {second:.2} over the second"
        )
    });
    tally.check(
        !report.swaps.is_empty() && report.swaps.iter().all(|s| s.applied),
        || format!("hot swap not applied: {:?}", report.swaps),
    );
    let digest = outcome_digest(outcome);
    let pinned = pins::serve_pin(inputs.seed, inputs.size).map(|p| p.outcome);
    let reference = first_digest.get_or_insert_with(|| digest.clone());
    tally.check(
        *reference == digest && pinned.as_ref().is_none_or(|p| *p == digest),
        || format!("serving outcome digest {digest}, first run {reference}, pinned {pinned:?}"),
    );
}

/// The untraced measurement: unseal + serve back to back until `seconds`
/// have passed, each repetition checked, with `between` called after each.
/// `wall_s` is the mean repetition time: the host's speed drifts over
/// seconds, and the mean weighs the fast and slow stretches of a run by
/// their length where the median jumps between them.
///
/// # Errors
///
/// The independent reference outputs could not be computed.
pub fn measure(
    inputs: &ProvisionInputs,
    seconds: f64,
    report: &mut Report,
    between: &mut dyn FnMut(),
) -> Result<(), String> {
    let expected = expected(inputs, report)?;
    let started = Instant::now();
    let mut first = None;
    let (mut walls, mut unseals, mut serves) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        let t = Instant::now();
        let image = unseal(&inputs.spec, inputs.stream.bytes());
        let unsealed = t.elapsed().as_secs_f64();
        let served = serve(&inputs.scenario);
        let wall = t.elapsed().as_secs_f64();
        walls.push(wall);
        unseals.push(unsealed);
        serves.push(wall - unsealed);
        check_rep(
            inputs,
            &expected,
            &image,
            &served,
            &mut first,
            &mut report.tally,
        );
        if let (1, Ok((setup, outcome, r))) = (walls.len(), &served) {
            let capacity = u64::from(setup.spec.replicas) * u64::from(setup.spec.max_batch);
            let (_, first, second) = backlog_bounded(outcome, capacity);
            report.note(format!(
                "serve: {} requests, {} events, utilization {:?}, mean queue {first:.2} \
                 (first half) / {second:.2} (second half), outcome {}",
                r.requests,
                outcome.events,
                r.npus.iter().map(|n| n.utilization).collect::<Vec<_>>(),
                outcome_digest(outcome)
            ));
        }
        between();
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    report.set("wall_s", util::mean(&walls));
    report.set("seda_perf_overhead_pct", expected.overheads.0);
    report.set("seda_traffic_overhead_pct", expected.overheads.1);
    report.note(format!(
        "provision-serve: {} timed runs, wall mean {:.4} s, median {:.4} s (unseal {:.4} s, serve {:.4} s), runs {:.4?}",
        walls.len(),
        util::mean(&walls),
        util::median(&walls),
        util::median(&unseals),
        util::median(&serves),
        walls
    ));
    Ok(())
}

/// The same repetition with a span around every call into `stream` and
/// `serve`, under one `core.run` span.
fn traced_rep(
    inputs: &ProvisionInputs,
) -> (
    Vec<Span>,
    f64,
    Result<ProtectedImage, SedaError>,
    Result<Served, SedaError>,
) {
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, 0);
    let (image, served) = rec.span("core.run", 0, |rec| {
        let image = (|| {
            let mut unsealer = rec.span("stream.new", 0, |_| {
                StreamUnsealer::new(inputs.spec.clone())
            })?;
            for (i, chunk) in inputs.stream.bytes().chunks(CHUNK_BYTES).enumerate() {
                rec.span("stream.push", i as u32, |_| unsealer.push(chunk))?;
            }
            rec.span("stream.finish", 0, |_| unsealer.finish())
        })();
        let served = (|| {
            let setup = rec.span("serve.build", 0, |_| seda_serve::build(&inputs.scenario))?;
            let outcome = rec.span("serve.simulate", 0, |_| seda_serve::simulate(&setup.spec));
            let report = rec.span("serve.report", 0, |_| ServeReport::new(&setup, &outcome));
            Ok((setup, outcome, report))
        })();
        (image, served)
    });
    let wall = epoch.elapsed().as_secs_f64();
    (rec.into_spans(), wall, image, served)
}

/// Per-call cost of `seda-crypto`'s AES-CTR over one 64-byte block and of
/// one position-bound MAC tag as a frame computes it, each over `blocks`
/// blocks of the stream's ciphertext: `(aes ns/block, mac ns/tag)`.
fn crypto_costs(inputs: &ProvisionInputs, blocks: usize) -> (f64, f64) {
    let spec = &inputs.spec;
    let ctr = AesCtr::new(spec.enc_key);
    let bytes = inputs.stream.bytes();
    let ct = |i: usize| {
        let at = inputs.stream.frame_offset(i) + 16;
        &bytes[at..at + 64]
    };
    let mut block = [0u8; 64];
    let t = Instant::now();
    for i in 0..blocks {
        block.copy_from_slice(ct(i));
        ctr.apply_keystream(CounterSeed::new(i as u64 * 64, 1), &mut block);
        std::hint::black_box(&block);
    }
    let aes = t.elapsed().as_secs_f64();
    let mac = PositionBoundMac::new(spec.transport_key);
    let mut msg = [0u8; 72];
    let mut chain = MacTag(0);
    let t = Instant::now();
    for i in 0..blocks {
        msg[..64].copy_from_slice(ct(i));
        msg[64..].copy_from_slice(&chain.0.to_be_bytes());
        chain = mac.tag(
            &msg,
            spec.stream_id,
            i as u64,
            BlockPosition::new(0, 0, i as u32),
        );
    }
    std::hint::black_box(chain);
    let mac_s = t.elapsed().as_secs_f64();
    let n = blocks.max(1) as f64;
    (aes * 1e9 / n, mac_s * 1e9 / n)
}

/// Replays each served model under its tenant's scheme stage by stage,
/// as `seda_serve::build` grounds it (`max_batch` back-to-back
/// inferences), to measure the traffic properties of this workload, and
/// checks the replay against the grounded service profiles.
fn profile_shares(
    setup: &ServeSetup,
    scenario: &Scenario,
    report: &mut Report,
) -> Result<(), String> {
    let npu: NpuConfig =
        seda::scenario::npu_by_name(&scenario.npus[0]).map_err(|e| e.to_string())?;
    let verifier: Option<HashEngine> = scenario
        .verifier
        .as_ref()
        .map(|v| HashEngine::new(v.bytes_per_cycle, v.latency_cycles));
    let profiles = setup
        .spec
        .tenants
        .iter()
        .map(|t| &t.profiles)
        .chain(setup.spec.swaps.iter().map(|s| &s.profiles));
    let cache = TraceCache::new();
    let mut rec = Recorder::new(Instant::now(), 0);
    let mut shares = Shares::default();
    for (i, ((model, scheme), want)) in served_models(scenario)?.iter().zip(profiles).enumerate() {
        let spec = PointSpec {
            npu: &npu,
            model,
            scheme,
            verifier,
            repeats: setup.spec.max_batch,
        };
        let point = replay_point(&spec, i as u32, &cache, &mut rec);
        let got: Vec<Vec<u64>> = point
            .runs
            .iter()
            .map(|(_, layers, _, _)| layers.iter().map(|&c| c.max(1)).collect())
            .collect();
        report.tally.check(got == *want, || {
            format!(
                "replayed service profile of {} under {scheme} differs from serve::build's",
                model.name()
            )
        });
        shares.add(&point);
    }
    shares.report(1.0, report);
    Ok(())
}

/// The traced measurement: per repetition, one untraced and one traced
/// unseal + serve in alternating order, then the crypto per-call costs,
/// until `seconds` have passed; then the served models' traffic
/// properties. The crypto costs and the properties are measured outside
/// the traced window.
///
/// # Errors
///
/// The independent reference outputs could not be computed.
pub fn measure_traced(
    inputs: &ProvisionInputs,
    seconds: f64,
    report: &mut Report,
) -> Result<(), String> {
    let expected = expected(inputs, report)?;
    let started = Instant::now();
    let frames = inputs.stream.frame_count();
    let mut first = None;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut aes_ns, mut mac_ns, mut mac_share) = (Vec::new(), Vec::new(), Vec::new());
    let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    let untraced_rep = || {
        let t = Instant::now();
        let image = unseal(&inputs.spec, inputs.stream.bytes());
        let served = serve(&inputs.scenario);
        (image, served, t.elapsed().as_secs_f64())
    };
    let last = loop {
        // Alternate which of the pair runs first, so neither side always
        // inherits the other's memory and cache state.
        let ((image, served, wall), traced_run) = if traced.len() % 2 == 0 {
            (untraced_rep(), traced_rep(inputs))
        } else {
            let traced_run = traced_rep(inputs);
            (untraced_rep(), traced_run)
        };
        untraced.push(wall);
        check_rep(
            inputs,
            &expected,
            &image,
            &served,
            &mut first,
            &mut report.tally,
        );
        let (spans, wall, image, served) = traced_run;
        traced.push(wall);
        check_rep(
            inputs,
            &expected,
            &image,
            &served,
            &mut first,
            &mut report.tally,
        );
        let own = trace::self_seconds_by_name(&spans);
        for (name, secs) in &own {
            *sums.entry(name).or_default() += secs;
        }
        for (layer, secs) in trace::self_seconds_by_layer(&spans) {
            *by_layer.entry(layer).or_default() += secs;
        }
        // Timed right after the unseal it is compared with, so both see
        // the same host conditions.
        let (aes, mac) = crypto_costs(inputs, frames);
        let unseal_ns: f64 = ["stream.new", "stream.push", "stream.finish"]
            .iter()
            .map(|k| own.get(k).copied().unwrap_or(0.0) * 1e9)
            .sum();
        aes_ns.push(aes);
        mac_ns.push(mac);
        // Each frame computes two MAC tags: the chained transport MAC and
        // the at-rest MAC the install stores.
        mac_share.push(util::ratio(2.0 * frames as f64 * mac, unseal_ns));
        if started.elapsed().as_secs_f64() >= seconds {
            crate::write_spans(report, &spans);
            break served.ok();
        }
    };
    let reps = traced.len() as f64;
    let get = |k: &str| sums.get(k).copied().unwrap_or(0.0) / reps;
    crate::note_layer_split(report, &by_layer, reps, util::median(&traced), 1);
    let unseal_s = get("stream.new") + get("stream.push") + get("stream.finish");
    report.set("stream.unseal_s", unseal_s);
    report.set("stream.frames", frames as f64);
    report.set(
        "stream.ns_per_frame",
        util::ratio(unseal_s * 1e9, frames as f64),
    );
    report.set(
        "stream.unseal_gbps",
        util::ratio(inputs.spec.total_bytes() as f64, unseal_s * 1e9),
    );
    report.set("stream.mac_share", util::median(&mac_share));
    report.set("crypto.aes_ns_per_block", util::median(&aes_ns));
    report.set("crypto.mac_ns_per_tag", util::median(&mac_ns));
    report.set("serve.build_s", get("serve.build"));
    report.set("serve.simulate_s", get("serve.simulate"));
    report.set("serve.report_s", get("serve.report"));
    report.set("core.other_s", get("core.run"));
    report.set(
        "core.parallel_efficiency",
        util::ratio(by_layer.values().sum(), traced.iter().sum()),
    );
    if let Some((setup, outcome, r)) = &last {
        let events = outcome.events as f64;
        report.set("serve.events", events);
        report.set(
            "serve.ns_per_event",
            util::ratio(get("serve.simulate") * 1e9, events),
        );
        report.set(
            "serve.events_per_s",
            util::ratio(events, get("serve.simulate")),
        );
        let util_sum: f64 = r.npus.iter().map(|n| n.utilization).sum();
        report.set(
            "serve.utilization",
            util::ratio(util_sum, r.npus.len() as f64),
        );
        profile_shares(setup, &inputs.scenario, report)?;
    }
    report.set("trace.wall_s", util::median(&traced));
    report.set(
        "trace.overhead_pct",
        100.0 * (util::median(&traced) / util::median(&untraced) - 1.0),
    );
    report.note(format!(
        "provision-serve: {} traced runs; untraced wall median {:.4} s, traced {:.4} s",
        traced.len(),
        util::median(&untraced),
        util::median(&traced)
    ));
    Ok(())
}
