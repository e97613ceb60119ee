//! Runs a user-supplied SCALE-Sim-style CSV topology through the full
//! scheme comparison — bring-your-own-network support.
//!
//! Usage: `cargo run --release -p seda-bench --bin custom_topology -- <net.csv> [server|edge]`
//! With no arguments, a built-in sample topology demonstrates the format.

use seda::experiment::{evaluations_of, lineup};
use seda::models::{parse_topology, Model};
use seda::report::{figure5, figure6};

const SAMPLE: &str = "\
# sample topology: a small conv net
Layer name, IFMAP Height, IFMAP Width, Filter Height, Filter Width, Channels, Num Filter, Strides,
Conv1, 114, 114, 3, 3, 3, 32, 2,
Conv2, 58, 58, 3, 3, 32, 64, 1,
Conv3, 30, 30, 3, 3, 64, 128, 2,
FC, 1, 25088, 1, 1, 1, 1000, 1,
";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let model: Model = match args.get(1) {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("error: cannot read topology {path}: {e}");
                std::process::exit(1);
            });
            match parse_topology("custom", &text) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            }
        }
        None => {
            println!("(no topology given; using the built-in sample)\n{SAMPLE}");
            parse_topology("sample", SAMPLE).expect("sample is valid")
        }
    };
    let npu = seda_bench::npu_arg_or_exit(args.get(2).map(String::as_str));
    println!(
        "{}: {} layers, {:.2} M weights, {:.1} GMACs on the {} NPU\n",
        model.name(),
        model.layers().len(),
        model.weight_bytes() as f64 / 1e6,
        model.total_macs() as f64 / 1e9,
        npu.name
    );
    let evals = evaluations_of(&lineup(std::slice::from_ref(&npu), &[model]).run());
    print!("{}", figure5(&evals[0]));
    println!();
    print!("{}", figure6(&evals[0]));
}
