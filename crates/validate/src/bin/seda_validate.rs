//! Seeded CLI driver for the validation harness.
//!
//! ```text
//! seda_validate [--seed N] [--family NAME] [--cases N] [--case N]
//! ```
//!
//! Runs every family (or one, with `--family`) and exits non-zero if any
//! case fails or panics, printing each failure with its case index and
//! sub-seed so it can be replayed in isolation, under the same runner:
//!
//! ```text
//! seda_validate --family dram --seed 42 --case 7
//! ```

use seda_validate::{replay_case, run_family, Family};
use std::process::ExitCode;

struct Args {
    seed: u64,
    family: Option<Family>,
    cases: Option<u32>,
    case: Option<u32>,
}

fn usage() -> ! {
    eprintln!(
        "usage: seda_validate [--seed N] [--family {}] [--cases N] [--case N]",
        Family::all().map(|f| f.name()).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 0x5EDA,
        family: None,
        cases: None,
        case: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().filter(|_| flag != "--help" && flag != "-h");
        match (flag.as_str(), value) {
            ("--seed", Some(v)) => args.seed = parse_u64(&v).unwrap_or_else(|| usage()),
            ("--family", Some(v)) => {
                args.family = Some(Family::parse(&v).unwrap_or_else(|| usage()));
            }
            ("--cases", Some(v)) => {
                args.cases = Some(parse_u64(&v).unwrap_or_else(|| usage()) as u32);
            }
            ("--case", Some(v)) => {
                args.case = Some(parse_u64(&v).unwrap_or_else(|| usage()) as u32);
            }
            _ => usage(),
        }
    }
    args
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let families: Vec<Family> = match args.family {
        Some(f) => vec![f],
        None => Family::all().to_vec(),
    };

    // Single-case replay mode.
    if let Some(case) = args.case {
        let family = args.family.unwrap_or_else(|| {
            eprintln!("--case needs --family");
            std::process::exit(2);
        });
        return match replay_case(family, args.seed, case) {
            None => {
                println!("{} seed={:#x} case={case} ... ok", family.name(), args.seed);
                ExitCode::SUCCESS
            }
            Some(fail) => {
                eprintln!(
                    "{} seed={:#x} case={case} (sub-seed {:#x}) FAILED: {}",
                    family.name(),
                    args.seed,
                    fail.sub_seed,
                    fail.message
                );
                ExitCode::FAILURE
            }
        };
    }

    let mut failed = 0usize;
    for family in families {
        let cases = args.cases.unwrap_or_else(|| family.default_cases());
        let report = run_family(family, args.seed, cases);
        println!("{report}");
        failed += report.failures.len();
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{failed} case(s) failed");
        ExitCode::FAILURE
    }
}
