//! Throughput benchmark for `seda-stream` provisioning.
//!
//! Seals the 37-layer transformer's image geometry, tiled
//! [`REPEAT_LAYERS`] times, into an authenticated provisioning stream,
//! then provisions it twice through [`seda_stream::measure`] — verify,
//! install, and replay the layer write-out through DRAM. The two runs
//! must land on bit-identical images (root and ciphertext; wall-clock
//! is allowed to differ), and the second run's sustained GB/s is
//! recorded in `BENCH_stream.json` so CI can archive the
//! provisioning-path perf trajectory.
//!
//! With `--min-gbps <g>` the run additionally acts as a regression
//! gate: sustained throughput below the floor fails the process.
//! A malformed command line exits 2 with a usage line.
//!
//! Usage: `cargo run --release -p seda-bench --bin stream_bench --
//! [out.json] [--min-gbps <g>]`

use seda::models::zoo;
use seda_adversary::ProtectConfig;
use seda_bench::{finite_flag, round6, usage_exit, write_or_die};
use seda_stream::{measure, model_lens, seal, StreamSpec};
use serde::Serialize;

/// Zoo model whose sealed geometry is streamed.
const MODEL: &str = "trf";

/// Times the model's geometry is tiled, so the stream is long enough
/// for a stable wall-clock.
const REPEAT_LAYERS: usize = 4;

/// Machine-readable record of one stream-bench run.
#[derive(Serialize)]
struct BenchRecord {
    /// Model whose sealed geometry was streamed.
    model: String,
    /// Protection configuration of the sealed image.
    config: String,
    /// Layer regions in the stream.
    layers: usize,
    /// Ciphertext payload bytes provisioned.
    payload_bytes: u64,
    /// Authenticated 64-byte blocks verified.
    blocks: u64,
    /// Unseal plus write-out replay wall-clock, milliseconds.
    unseal_ms: f64,
    /// Sustained payload throughput, GB/s.
    gbps_sustained: f64,
    /// DRAM memory-clock cycles the layer write-out replay consumed.
    replay_cycles: u64,
    /// Whether the two unseals produced bit-identical images.
    deterministic: bool,
}

const USAGE: &str = "usage: stream_bench [out.json] [--min-gbps <g>]";

fn main() {
    let mut out_path = "BENCH_stream.json".to_owned();
    let mut min_gbps: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--min-gbps" => min_gbps = Some(finite_flag(&mut args, "--min-gbps", USAGE)),
            flag if flag.starts_with("--") => usage_exit(USAGE, &format!("unknown flag {flag:?}")),
            other => out_path = other.to_owned(),
        }
    }

    let model = zoo::by_name(MODEL).expect("the benchmark model is in the zoo");
    let base = model_lens(&model);
    let lens: Vec<usize> = std::iter::repeat_with(|| base.clone())
        .take(REPEAT_LAYERS)
        .flatten()
        .collect();
    let spec = StreamSpec {
        stream_id: 0x5EDA_BE7C,
        key_epoch: 1,
        config: ProtectConfig::matrix()[2],
        lens,
        enc_key: [0x11; 16],
        mac_key: [0x22; 16],
        transport_key: [0x33; 16],
    };
    let plains: Vec<Vec<u8>> = spec
        .lens
        .iter()
        .enumerate()
        .map(|(layer, &len)| {
            (0..len)
                .map(|i| (i as u8).wrapping_mul(29) ^ (layer as u8))
                .collect()
        })
        .collect();
    let stream = seal(&spec, &plains).expect("sealing a valid spec succeeds");
    let dram = seda::dram::DramConfig::ddr4_with_bandwidth(1, 16.0e9);

    // Warm-up run doubles as the determinism pin: the image is a pure
    // function of the stream, so both unseals must agree bit for bit
    // (wall-clock, of course, will not).
    let warm = measure(&spec, stream.bytes(), &dram).expect("clean stream unseals");
    let timed = measure(&spec, stream.bytes(), &dram).expect("clean stream unseals");
    let deterministic = warm.image.model_root() == timed.image.model_root()
        && warm.image.offchip_bytes() == timed.image.offchip_bytes();
    assert!(
        deterministic,
        "two unseals of the same stream must install bit-identical images"
    );

    let record = BenchRecord {
        model: model.name().to_owned(),
        config: spec.config.name.to_owned(),
        layers: spec.lens.len(),
        payload_bytes: timed.payload_bytes,
        blocks: timed.blocks,
        unseal_ms: round6(timed.wall_s * 1e3),
        gbps_sustained: round6(timed.gbps_sustained),
        replay_cycles: timed.replay_cycles,
        deterministic,
    };
    println!(
        "stream provisioning: {} x{} layers, {} payload bytes in {} blocks under {}",
        record.model, record.layers, record.payload_bytes, record.blocks, record.config
    );
    println!(
        "unseal {:.3} ms — {:.3} GB/s sustained",
        record.unseal_ms, record.gbps_sustained
    );
    println!(
        "{} DRAM replay cycles; images bit-identical across unseals",
        record.replay_cycles
    );
    let json = serde_json::to_string_pretty(&record).expect("record serializes");
    write_or_die(&out_path, json);
    println!("recorded to {out_path}");
    if let Some(floor) = min_gbps {
        if record.gbps_sustained < floor {
            eprintln!(
                "REGRESSION: stream provisioning sustained {:.4} GB/s, under the {floor:.4} GB/s floor",
                record.gbps_sustained
            );
            std::process::exit(1);
        }
        println!("above the {floor:.4} GB/s floor");
    }
}
