//! Umbrella CLI: one entry point that lists and dispatches every
//! experiment, table, figure, ablation, and validation binary, plus the
//! declarative scenario zoo.
//!
//! Usage:
//! ```text
//! cargo run --release -p seda-bench --bin seda_cli -- list
//! cargo run --release -p seda-bench --bin seda_cli -- table 3
//! cargo run --release -p seda-bench --bin seda_cli -- scenario run fig6
//! cargo run --release -p seda-bench --bin seda_cli -- run rest edge SeDA
//! ```

use seda::functional::{run_protected, run_reference};
use seda::models::zoo;
use seda::pipeline::run_trace;
use seda::protect::{paper_lineup, scheme_by_name};
use seda::report::{table1, table2, table3};
use seda::scalesim::{simulate_model, AddressMap, NpuConfig};
use seda::scenario;
use seda::sweep::Sweep;
use seda::telemetry;
use seda_bench::write_or_die;

fn usage() -> ! {
    eprintln!("usage: seda_cli [--telemetry <out.json>] <command>");
    eprintln!("  list                 enumerate experiment binaries and scenarios");
    eprintln!("  table <1|2|3>        print a paper table");
    eprintln!("  scenario list        enumerate the scenario zoo");
    eprintln!("  scenario describe <name>      show one scenario's axes");
    eprintln!("  scenario run <name> [--json <out.json>]");
    eprintln!("               [--journal <path>] [--resume <path>]");
    eprintln!("                       execute a scenario (optionally dump the");
    eprintln!("                       seda-scenario/v1 snapshot as JSON).");
    eprintln!("                       --journal streams a seda-checkpoint/v1");
    eprintln!("                       journal of completed points; --resume");
    eprintln!("                       replays one from a prior (killed) run and");
    eprintln!("                       executes only the remaining points.");
    eprintln!("  serve <name> [--json <out.json>]");
    eprintln!("                       run a scenario's multi-tenant serving");
    eprintln!("                       simulation (optionally dump the");
    eprintln!("                       seda-serve/v1 snapshot as JSON); exits 5");
    eprintln!("                       when a tenant latency ceiling is violated");
    eprintln!("  stream <model> [--json <out.json>] [--lens <b0,b1,..>] [--flip <byte>]");
    eprintln!("                       seal the model into a provisioning stream");
    eprintln!("                       and unseal it, replaying the layer");
    eprintln!("                       write-out through DRAM (sustained GB/s");
    eprintln!("                       report; --flip corrupts one stream byte");
    eprintln!("                       first — the tampered stream exits 4 with");
    eprintln!("                       the seda-stream/v2 snapshot still written)");
    eprintln!("  run <wl> <npu> <scheme> [n]   n secure inferences (default 1)");
    eprintln!("  quickstart           functional + timing demo on LeNet");
    eprintln!("  workloads            list workload names");
    eprintln!("  schemes              list scheme names");
    eprintln!();
    eprintln!("  --telemetry <path>   export a seda-telemetry/v1 metric");
    eprintln!("                       snapshot of the run as JSON");
    eprintln!();
    eprintln!("exit codes (scenario run / serve / stream):");
    eprintln!("  0  success           all points ran and every expectation held");
    eprintln!("  1  internal error    unexpected failure outside the codes below");
    eprintln!("  2  usage error       bad command line");
    eprintln!("  3  spec error        scenario/stream parse or validation error");
    eprintln!("  4  point failures    sweep points failed or a stream block was");
    eprintln!("                       tampered (typed rejection on stderr)");
    eprintln!("  5  expectations      results violated the scenario's expect block");
    std::process::exit(2);
}

/// Terminates with the error on stderr (exit code 1).
fn die(e: seda::SedaError) -> ! {
    eprintln!("error: {e}");
    std::process::exit(1);
}

/// Removes `flag <value>` from `rest`, returning the value.
fn take_value_flag(rest: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = rest.iter().position(|a| a == flag)?;
    if i + 1 >= rest.len() {
        eprintln!("{flag} needs a path argument");
        std::process::exit(2);
    }
    let value = rest.remove(i + 1);
    rest.remove(i);
    Some(value)
}

/// `scenario <list|describe|run>`: the declarative scenario zoo.
/// Returns the process exit code (`scenario run` distinguishes spec
/// errors, point failures, and expectation failures — see `usage`).
fn scenario_cmd(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("list") => {
            let scenarios = scenario::list().unwrap_or_else(|e| die(e));
            println!("registered scenarios (run with `seda_cli scenario run <name>`):\n");
            for s in &scenarios {
                println!("  {:<22} {}", s.name, s.title);
            }
            0
        }
        Some("describe") => {
            let Some(name) = args.get(1) else { usage() };
            let s = scenario::load(name).unwrap_or_else(|e| die(e));
            println!("{}: {}", s.name, s.title);
            println!("  npus:      {}", s.npus.join(", "));
            println!("  workloads:");
            for w in &s.workloads {
                // Validated on load, so every spec resolves.
                let model = w.resolve().unwrap_or_else(|e| die(e.into()));
                println!(
                    "    {:<16} {:>3} layers {:>14} MACs",
                    model.name(),
                    model.layers().len(),
                    model.total_macs()
                );
            }
            let labels: Vec<String> = s.schemes.iter().map(|sc| sc.label()).collect();
            println!("  schemes:   {}", labels.join(", "));
            if let Some(d) = &s.dram {
                println!(
                    "  dram override: {}",
                    serde_json::to_string(d).unwrap_or_default()
                );
            }
            if let Some(v) = &s.verifier {
                println!(
                    "  verifier:  {} B/cycle, {} cycles latency",
                    v.bytes_per_cycle, v.latency_cycles
                );
            }
            if let Some(n) = s.repeats {
                println!("  repeats:   {n}");
            }
            if let Some(p) = &s.on_failure {
                println!(
                    "  on_failure: {}",
                    serde_json::to_string(p).unwrap_or_default()
                );
            }
            if let Some(b) = s.point_budget_ms {
                println!("  point budget: {b} ms per point");
            }
            if let Some(e) = &s.expect {
                println!("  expectations: {} bound(s)", e.0.len());
            }
            let outputs: Vec<&str> = s.outputs.iter().map(|o| o.as_str()).collect();
            println!("  outputs:   {}", outputs.join(", "));
            0
        }
        Some("run") => {
            let mut rest: Vec<String> = args[1..].to_vec();
            let json_path = take_value_flag(&mut rest, "--json");
            let journal = take_value_flag(&mut rest, "--journal");
            let resume = take_value_flag(&mut rest, "--resume");
            let Some(name) = rest.first() else { usage() };
            let s = match scenario::load(name) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 3;
                }
            };
            let opts = scenario::RunOptions {
                journal: journal.map(std::path::PathBuf::from),
                resume: resume.map(std::path::PathBuf::from),
            };
            let run = match s.run_with(&opts) {
                Ok(run) => run,
                // Fail-fast point failures carry the full structured
                // report; render every failed point with its cause chain.
                Err(seda::SedaError::ScenarioPointFailed {
                    scenario,
                    total_points,
                    report,
                }) => {
                    eprintln!(
                        "error: scenario {scenario}: {} of {total_points} points failed",
                        report.len()
                    );
                    eprint!("{}", report.render());
                    return 4;
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    return 3;
                }
            };
            print!("{}", run.render());
            if let Some(path) = json_path {
                write_or_die(&path, run.snapshot_json());
                eprintln!("scenario snapshot written to {path}");
            }
            let unmet = run.check_expectations();
            if !unmet.is_empty() {
                eprintln!("{} expectation(s) not met:", unmet.len());
                for failure in &unmet {
                    eprintln!("  {failure}");
                }
                return 5;
            }
            if !run.failures.is_empty() {
                // skip/retry policies surface partial results; the render
                // above already listed the failed points.
                return 4;
            }
            0
        }
        _ => usage(),
    }
}

/// `serve <name> [--json <out.json>]`: the multi-tenant serving
/// simulator over a scenario's `"serving"` block. Shares the scenario
/// exit codes: 3 for spec/load errors, 5 for violated latency ceilings.
fn serve_cmd(args: &[String]) -> i32 {
    let mut rest: Vec<String> = args.to_vec();
    let json_path = take_value_flag(&mut rest, "--json");
    let Some(name) = rest.first() else { usage() };
    let s = match scenario::load(name) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return 3;
        }
    };
    if s.serving.is_none() {
        eprintln!("error: scenario {name} has no \"serving\" block (see `scenario describe`)");
        return 3;
    }
    let run = match seda_serve::serve_scenario(&s) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}");
            return 3;
        }
    };
    print!("{}", run.report.render());
    if let Some(path) = json_path {
        write_or_die(&path, run.report.snapshot_json());
        eprintln!("serving snapshot written to {path}");
    }
    let unmet = run.failures(&s);
    if !unmet.is_empty() {
        eprintln!("{} serving expectation(s) not met:", unmet.len());
        for failure in &unmet {
            eprintln!("  {failure}");
        }
        return 5;
    }
    0
}

/// Serializes a stream provisioning outcome as the `seda-stream/v2`
/// snapshot — written even for rejected streams, before the nonzero
/// exit, so CI can archive the post-mortem.
fn stream_snapshot(
    model: &str,
    spec: &seda_stream::StreamSpec,
    result: Result<&seda_stream::UnsealRun, &seda::SedaError>,
) -> String {
    let mut out = String::from("{\n  \"schema\": \"seda-stream/v2\",\n");
    out.push_str(&format!("  \"model\": \"{model}\",\n"));
    out.push_str(&format!("  \"config\": \"{}\",\n", spec.config.name));
    out.push_str(&format!("  \"layers\": {},\n", spec.lens.len()));
    out.push_str(&format!("  \"payload_bytes\": {},\n", spec.total_bytes()));
    out.push_str(&format!("  \"blocks\": {},\n", spec.total_blocks()));
    match result {
        Ok(run) => {
            out.push_str("  \"ok\": true,\n");
            out.push_str(&format!(
                "  \"gbps_sustained\": {:.6},\n",
                run.gbps_sustained
            ));
            out.push_str(&format!("  \"replay_cycles\": {}\n", run.replay_cycles));
        }
        Err(e) => {
            out.push_str("  \"ok\": false,\n");
            out.push_str(&format!(
                "  \"error\": {}\n",
                seda::telemetry::json_string(&e.to_string())
            ));
        }
    }
    out.push_str("}\n");
    out
}

/// `stream <model> [--json <out.json>] [--lens <b0,b1,..>] [--flip <byte>]`:
/// seals a zoo model into a provisioning stream, unseals it and replays
/// the layer write-out through DRAM, reporting sustained GB/s. A malformed
/// stream spec (unknown model, unparsable or non-64-multiple `--lens`)
/// exits 3; a tampered block (`--flip` corrupts one stream byte) exits 4
/// with the typed rejection on stderr and the snapshot written first.
fn stream_cmd(args: &[String]) -> i32 {
    let mut rest: Vec<String> = args.to_vec();
    let json_path = take_value_flag(&mut rest, "--json");
    let lens_arg = take_value_flag(&mut rest, "--lens");
    let flip_arg = take_value_flag(&mut rest, "--flip");
    let Some(name) = rest.first() else { usage() };
    let Some(model) = zoo::by_name(name) else {
        eprintln!("error: unknown workload {name:?} (try `seda_cli workloads`)");
        return 3;
    };
    let lens = match &lens_arg {
        Some(list) => {
            let mut lens = Vec::new();
            for part in list.split(',') {
                match part.trim().parse::<usize>() {
                    Ok(len) => lens.push(len),
                    Err(_) => {
                        eprintln!(
                            "error: malformed --lens entry {part:?} \
                             (want comma-separated byte counts)"
                        );
                        return 3;
                    }
                }
            }
            lens
        }
        None => seda_stream::model_lens(&model),
    };
    let spec = seda_stream::StreamSpec {
        stream_id: 0x5EDA_C411,
        key_epoch: 1,
        config: seda_adversary::ProtectConfig::matrix()[2],
        lens,
        enc_key: [0xA1; 16],
        mac_key: [0xB2; 16],
        transport_key: [0xC3; 16],
    };
    if let Err(e) = spec.validate() {
        eprintln!("error: {e}");
        return 3;
    }
    let plains: Vec<Vec<u8>> = spec
        .lens
        .iter()
        .enumerate()
        .map(|(layer, &len)| {
            (0..len)
                .map(|i| (i as u8).wrapping_mul(31) ^ layer as u8)
                .collect()
        })
        .collect();
    let mut stream = match seda_stream::seal(&spec, &plains) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return 3;
        }
    };
    if let Some(flip) = &flip_arg {
        let Ok(offset) = flip.parse::<usize>() else {
            eprintln!("--flip wants a byte offset into the sealed stream");
            std::process::exit(2);
        };
        stream.flip_bit(offset % stream.len(), 1);
    }
    let dram = seda::dram::DramConfig::ddr4_with_bandwidth(1, 16.0e9);
    match seda_stream::measure(&spec, stream.bytes(), &dram) {
        Ok(run) => {
            println!(
                "{}: {} payload bytes in {} authenticated blocks under {}",
                model.name(),
                run.payload_bytes,
                run.blocks,
                spec.config.name
            );
            println!(
                "  unseal: {:.3} GB/s sustained, {} DRAM replay cycles",
                run.gbps_sustained, run.replay_cycles
            );
            if let Some(path) = json_path {
                let snap = stream_snapshot(model.name(), &spec, Ok(&run));
                write_or_die(&path, snap);
                eprintln!("stream snapshot written to {path}");
            }
            0
        }
        Err(e) => {
            if let Some(path) = json_path {
                let snap = stream_snapshot(model.name(), &spec, Err(&e));
                write_or_die(&path, snap);
                eprintln!("stream snapshot written to {path}");
            }
            eprintln!("error: stream rejected: {e}");
            4
        }
    }
}

/// Removes a `--telemetry <path>` flag from `args`, returning the path.
fn extract_telemetry_flag(args: &mut Vec<String>) -> Option<String> {
    let i = args.iter().position(|a| a == "--telemetry")?;
    if i + 1 >= args.len() {
        eprintln!("--telemetry needs an output path");
        std::process::exit(2);
    }
    let path = args.remove(i + 1);
    args.remove(i);
    Some(path)
}

/// `quickstart`: one end-to-end tour that exercises every instrumented
/// subsystem — the functional crypto path (AES, MACs, tamper detection)
/// and the timing path (metadata caches, DRAM, trace cache, sweep).
fn quickstart() {
    let model = zoo::lenet();
    let input: Vec<u8> = (0..32 * 32).map(|i| (i % 23) as u8).collect();

    println!(
        "[1/3] functional: {} encrypted in untrusted memory",
        model.name()
    );
    let reference = run_reference(&model, &input);
    let protected = run_protected(&model, &input, |_| {}).expect("honest run verifies");
    assert_eq!(protected, reference, "protection must be transparent");
    println!("      protected output bit-identical to the reference");

    println!("[2/3] functional: flipping one ciphertext bit off-chip");
    let addr = AddressMap::new(&model).weights(1) as usize;
    match run_protected(&model, &input, |mem| {
        mem.raw_mut()[addr + 100] ^= 0x20;
    }) {
        Ok(_) => {
            eprintln!("      tampering went UNDETECTED (bug!)");
            std::process::exit(1);
        }
        Err(violation) => println!("      inference aborted: {violation}"),
    }

    println!("[3/3] timing: LeNet x [baseline, SGX-64B, SeDA] on the edge NPU");
    let results = Sweep::new()
        .npu(NpuConfig::edge())
        .model(zoo::lenet())
        .schemes(["baseline", "SGX-64B", "SeDA"])
        .run();
    let base = results.at(0, 0, 0);
    for s in 1..3 {
        let r = results.at(0, 0, s);
        println!(
            "      {:<8} {:>12} traffic bytes, {:>9} cycles ({:+.1}% vs baseline)",
            r.scheme,
            r.traffic.total(),
            r.total_cycles,
            (r.total_cycles as f64 / base.total_cycles as f64 - 1.0) * 100.0
        );
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let telemetry_path = extract_telemetry_flag(&mut args);
    let sink = telemetry_path
        .as_ref()
        .map(|_| telemetry::install_shared().expect("first and only install"));
    let mut exit_code = 0;
    match args.first().map(String::as_str) {
        Some("list") => {
            println!("experiment binaries (run with `cargo run --release -p seda-bench --bin <name>`):\n");
            for (name, what) in seda_bench::EXPERIMENTS {
                println!("  {name:<24} {what}");
            }
            println!();
            println!("paper tables: `seda_cli table <1|2|3>`");
            println!("scenario zoo: `seda_cli scenario list`; run one (Fig. 5/6 and the");
            println!("cache, energy and granularity ablations among them) with");
            println!("`seda_cli scenario run <name> [--json <out.json>]`");
        }
        Some("table") => match args.get(1).map(String::as_str) {
            Some("1") => print!("{}", table1()),
            Some("2") => print!("{}", table2(&[NpuConfig::server(), NpuConfig::edge()])),
            Some("3") => {
                // The paper's Table III covers the five headline schemes
                // of the Fig. 5/6 lineup; append the Securator row as
                // implemented for the ablations.
                let infos: Vec<_> = seda::experiment::scheme_names()
                    .into_iter()
                    .filter(|n| *n != "baseline")
                    .chain(["Securator"])
                    .map(|n| scheme_by_name(n).expect("registry name").info())
                    .collect();
                print!("{}", table3(&infos));
            }
            _ => usage(),
        },
        Some("scenario") => exit_code = scenario_cmd(&args[1..]),
        Some("serve") => exit_code = serve_cmd(&args[1..]),
        Some("stream") => exit_code = stream_cmd(&args[1..]),
        Some("run") => {
            let workload = args.get(1).map(String::as_str).unwrap_or("rest");
            let npu = seda_bench::npu_arg_or_exit(args.get(2).map(String::as_str));
            let scheme_name = args.get(3).map(String::as_str).unwrap_or("SeDA");
            let Some(model) = zoo::by_name(workload) else {
                eprintln!("unknown workload {workload:?} (try `seda_cli workloads`)");
                std::process::exit(1);
            };
            let Some(mut scheme) = scheme_by_name(scheme_name) else {
                eprintln!("unknown scheme {scheme_name:?} (try `seda_cli schemes`)");
                std::process::exit(1);
            };
            let repeats: u32 = match args.get(4) {
                None => 1,
                Some(n) => match n.parse() {
                    Ok(r) if r > 0 => r,
                    _ => usage(),
                },
            };
            let sim = simulate_model(&npu, &model);
            for r in run_trace(&sim, &npu, scheme.as_mut(), None, repeats) {
                println!(
                    "{} on {} under {}: {} bytes of traffic, {} cycles ({:.3} ms)",
                    r.model,
                    r.npu,
                    r.scheme,
                    r.traffic.total(),
                    r.total_cycles,
                    r.seconds() * 1e3
                );
            }
        }
        Some("quickstart") => quickstart(),
        Some("workloads") => {
            for m in zoo::all_models() {
                println!("{:<6} {} layers", m.name(), m.layers().len());
            }
        }
        Some("schemes") => {
            for s in paper_lineup() {
                println!("{}", s.name());
            }
            println!("Securator");
        }
        _ => usage(),
    }
    // The telemetry snapshot is written even for failing scenario runs —
    // it is part of the failure artifact CI archives.
    if let (Some(path), Some(sink)) = (telemetry_path, sink) {
        write_or_die(&path, sink.snapshot().to_json());
        eprintln!("telemetry snapshot written to {path}");
    }
    if exit_code != 0 {
        std::process::exit(exit_code);
    }
}
