//! Replays a burst trace file through a protection scheme and the DRAM
//! simulator — the Ramulator-style standalone replay interface.
//!
//! Usage: `cargo run --release -p seda-bench --bin replay_trace -- <trace> [scheme] [server|edge]`
//! where scheme is one of baseline, SGX-64B, SGX-512B, MGX-64B, MGX-512B, SeDA.

use seda::dram::{DramSim, RunBuf};
use seda::pipeline::dram_config_for;
use seda::protect::{scheme_by_name, ProtectionScheme};
use seda::scalesim::parse_trace;

fn make_scheme(name: &str) -> Box<dyn ProtectionScheme> {
    scheme_by_name(name).unwrap_or_else(|| {
        eprintln!("unknown scheme {name:?}");
        std::process::exit(1);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let Some(path) = args.get(1) else {
        eprintln!("usage: replay_trace <trace-file> [scheme] [server|edge]");
        std::process::exit(1);
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read trace {path}: {e}");
        std::process::exit(1);
    });
    let bursts = match parse_trace(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    let mut scheme = make_scheme(args.get(2).map(String::as_str).unwrap_or("baseline"));
    let npu = seda_bench::npu_arg_or_exit(args.get(3).map(String::as_str));
    let mut dram = DramSim::new(dram_config_for(&npu));
    let mut lowered = RunBuf::new();
    for b in &bursts {
        scheme.transform(b, &mut lowered);
    }
    dram.run_runs(lowered.runs());
    scheme.finish(&mut |r| {
        dram.access(r);
    });
    let t = scheme.breakdown();
    println!("bursts:          {}", bursts.len());
    println!("scheme:          {}", scheme.name());
    println!("demand bytes:    {}", t.demand());
    println!("overfetch bytes: {}", t.overfetch_read);
    println!("metadata bytes:  {}", t.metadata());
    println!("total bytes:     {}", t.total());
    println!("dram accesses:   {}", dram.stats().accesses());
    println!("row hit rate:    {:.2}%", dram.stats().hit_rate() * 100.0);
    println!("memory cycles:   {}", dram.elapsed_cycles());
    println!(
        "achieved bw:     {:.2} GB/s of {:.2} GB/s peak",
        dram.achieved_bandwidth() / 1e9,
        dram.config().peak_bandwidth() / 1e9
    );
}
