//! SeDA benchmark harness: shared helpers of the `src/bin/` binaries.

/// Every experiment binary in `src/bin/` except `seda_cli` itself, with a
/// one-line description — the table `seda_cli list` prints. The paper
/// figures and the scenario-driven ablations are not binaries: they run
/// through `seda_cli scenario run <name>`.
pub const EXPERIMENTS: &[(&str, &str)] = &[
    (
        "fig4_area_power",
        "Fig. 4: T-AES vs B-AES area/power scaling",
    ),
    ("alg1_seca", "Algorithm 1: SECA attack and B-AES defense"),
    (
        "alg2_repa",
        "Algorithm 2: RePA attack and position-bound defense",
    ),
    ("ablation_optblk", "per-layer optBlk search"),
    ("ablation_layer_mac", "SeDA layer MACs on-chip vs off-chip"),
    (
        "ablation_securator",
        "redundant hash work of layer-XOR checks",
    ),
    ("ablation_sram", "SRAM capacity sweep"),
    ("ablation_dataflow", "OS vs WS dataflow"),
    ("ablation_hash_engine", "verifier throughput sizing cliff"),
    (
        "ablation_steady_state",
        "cold-start vs steady-state overheads",
    ),
    (
        "layer_report",
        "per-layer schedule/traffic/cycle drill-down",
    ),
    ("workloads_report", "13-workload census"),
    ("gen_trace", "burst-trace export for a workload"),
    ("replay_trace", "standalone replay of a burst-trace file"),
    ("custom_topology", "run a user CSV topology"),
    (
        "sweep_bench",
        "headline matrix: engine, telemetry guard, lowering, DRAM replay",
    ),
    (
        "serve_bench",
        "multi-tenant serving event-kernel throughput",
    ),
    (
        "stream_bench",
        "sealed-model provisioning GB/s, gated by a CI floor",
    ),
    (
        "validate_sim",
        "fast models vs cycle/command-level cross-check",
    ),
    ("experiments_md", "regenerate EXPERIMENTS.md"),
];

/// Resolves an optional `server|edge` NPU argument through
/// [`seda::scenario::npu_by_name`], defaulting to the edge NPU only when
/// the argument is absent. An unknown name prints the error and exits 1,
/// as an unknown workload does.
pub fn npu_arg_or_exit(name: Option<&str>) -> seda::scalesim::NpuConfig {
    let Some(name) = name else {
        return seda::scalesim::NpuConfig::edge();
    };
    seda::scenario::npu_by_name(name).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    })
}

/// Prints `problem` and the binary's `usage` line to stderr and exits 2:
/// the malformed-command-line contract of the CI-gate bench binaries.
pub fn usage_exit(usage: &str, problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!("{usage}");
    std::process::exit(2);
}

/// Writes `contents` to `path`; when the path cannot be written, prints
/// the path and the I/O error and exits 1.
pub fn write_or_die(path: &str, contents: impl AsRef<[u8]>) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// Takes the value of gate flag `flag` from `args` as a finite number.
/// A missing, malformed or non-finite value (a `nan` bound would make
/// its gate unable to fail) exits 2 through [`usage_exit`].
pub fn finite_flag(args: &mut impl Iterator<Item = String>, flag: &str, usage: &str) -> f64 {
    let Some(v) = args.next() else {
        usage_exit(usage, &format!("{flag} needs a value"))
    };
    match v.parse::<f64>() {
        Ok(x) if x.is_finite() => x,
        _ => usage_exit(usage, &format!("{flag} wants a number, got {v:?}")),
    }
}

/// Rounds a benchmark float to six decimal places.
///
/// The bench binaries archive their records as JSON artifacts; raw
/// `f64` arithmetic leaks representation noise into the serialization
/// (`459.59137400000003` instead of `459.591374`), so consecutive runs
/// with identical measurements still diff. Six decimals keeps
/// sub-microsecond resolution on millisecond-scale figures while making
/// the artifacts diff cleanly.
pub fn round6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

#[cfg(test)]
mod tests {
    use super::{round6, EXPERIMENTS};

    #[test]
    fn experiments_table_names_every_binary() {
        let bin_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        let mut on_disk: Vec<String> = std::fs::read_dir(&bin_dir)
            .expect("src/bin is readable")
            .map(|entry| entry.expect("dir entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
            .filter_map(|path| Some(path.file_stem()?.to_str()?.to_owned()))
            .filter(|name| name != "seda_cli")
            .collect();
        on_disk.sort_unstable();
        let mut listed: Vec<String> = EXPERIMENTS.iter().map(|(n, _)| (*n).to_owned()).collect();
        listed.sort_unstable();
        assert_eq!(
            listed, on_disk,
            "`seda_cli list` must name exactly src/bin/*"
        );
    }

    #[test]
    fn round6_strips_representation_noise() {
        assert_eq!(round6(459.591_374_000_000_03), 459.591_374);
        assert_eq!(round6(2.0), 2.0);
        assert_eq!(round6(-1.234_567_89), -1.234_568);
        assert_eq!(round6(0.0), 0.0);
    }

    #[test]
    fn round6_keeps_six_decimals() {
        let x = round6(1.000_000_4);
        assert_eq!(x, 1.0);
        assert_eq!(round6(1.000_000_6), 1.000_001);
    }
}
