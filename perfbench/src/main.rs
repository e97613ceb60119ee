//! Benchmark command.
//!
//! ```text
//! seda-perfbench --workload <paper-sweep|decode-steady|provision-serve>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a summary, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 2 on bad
//! arguments or a set-up failure, without a result line.

use seda_perfbench::{run, Options, Size};

fn parse() -> Result<Options, String> {
    let mut options = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => options.workload = value.clone(),
            "--seed" => options.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => options.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if options.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(options)
}

fn main() {
    let report = match parse().and_then(run) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("seda-perfbench: {e}");
            std::process::exit(2);
        }
    };
    for line in &report.notes {
        println!("{line}");
    }
    for (name, value, unit) in report.declared() {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    println!("{}", report.json());
}
