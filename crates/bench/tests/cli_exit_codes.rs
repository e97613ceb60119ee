//! End-to-end exit-code contract of `seda_cli` on the failure paths:
//! violated expectation blocks must exit 5 while still writing a valid
//! telemetry snapshot, budget-skipped points under `on_failure: "skip"`
//! must exit 4 while leaving a valid checkpoint journal, violated
//! serving ceilings must exit 5 while still writing the serving
//! snapshot, and `seda_cli stream` must exit 3 on a malformed stream
//! spec and 4 on a tampered block with the `seda-stream/v2` snapshot
//! written before the nonzero exit, an unwritable output path must
//! exit 1 without a panic, a malformed `stream_bench`, `sweep_bench` or
//! `serve_bench` command line or `seda_cli run` repeat count must exit 2
//! with a usage line, an unreadable input file must exit 1 naming it,
//! and an unknown NPU name must exit 1. Each scenario-backed test spawns
//! the real binary against a private scenario registry under a temp
//! directory (`SEDA_SCENARIOS`).

use std::path::{Path, PathBuf};
use std::process::Command;

/// A private scenario registry for one test, cleaned up on drop.
struct TempRegistry {
    dir: PathBuf,
}

impl TempRegistry {
    fn new(tag: &str, files: &[(&str, &str)]) -> Self {
        let dir = std::env::temp_dir().join(format!("seda-cli-exit-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp registry dir");
        for (name, json) in files {
            std::fs::write(dir.join(format!("{name}.json")), json).expect("scenario file");
        }
        Self { dir }
    }

    fn path(&self, file: &str) -> PathBuf {
        self.dir.join(file)
    }

    fn cli(&self) -> Command {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_seda_cli"));
        cmd.env("SEDA_SCENARIOS", &self.dir);
        cmd
    }
}

impl Drop for TempRegistry {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("expected artifact at {}: {e}", path.display()))
}

/// A scheme that provably adds traffic cannot stay under a 1.0001x
/// normalized-traffic ceiling: the run must exit 5 (expectations
/// violated) and still write the telemetry snapshot — CI archives it as
/// part of the failure artifact.
#[test]
fn violated_expect_block_exits_5_with_a_telemetry_snapshot() {
    let reg = TempRegistry::new(
        "expect",
        &[(
            "expect_fail",
            r#"{
              "name": "expect_fail",
              "title": "SGX traffic cannot be baseline-flat",
              "npus": ["edge"],
              "workloads": ["let"],
              "schemes": ["baseline", "SGX-64B"],
              "outputs": ["traffic"],
              "expect": {"scheme": "SGX-64B", "traffic_norm_max": 1.0001}
            }"#,
        )],
    );
    let telemetry = reg.path("telemetry.json");
    let out = reg
        .cli()
        .args([
            "--telemetry",
            telemetry.to_str().expect("utf-8 temp path"),
            "scenario",
            "run",
            "expect_fail",
        ])
        .output()
        .expect("seda_cli spawns");
    assert_eq!(
        out.status.code(),
        Some(5),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("expectation(s) not met"),
        "stderr must name the violation:\n{stderr}"
    );
    let snapshot = read(&telemetry);
    assert!(
        snapshot.contains("\"seda-telemetry/v1\""),
        "telemetry snapshot must be schema-tagged even on failure:\n{snapshot}"
    );
}

/// A 1 ms point budget kills the single point; under `on_failure:
/// "skip"` the run degrades instead of aborting, exits 4 (point
/// failures), and the streamed checkpoint journal stays valid.
#[test]
fn budget_skipped_point_exits_4_with_a_valid_journal() {
    let reg = TempRegistry::new(
        "skip",
        &[(
            "budget_skip",
            r#"{
              "name": "budget_skip",
              "title": "one point, one impossible budget",
              "npus": ["server"],
              "workloads": [{"transformer_decode": {"context": 2048}}],
              "schemes": ["SGX-64B"],
              "outputs": ["traffic"],
              "on_failure": "skip",
              "point_budget_ms": 1
            }"#,
        )],
    );
    let journal = reg.path("journal.jsonl");
    let out = reg
        .cli()
        .args([
            "scenario",
            "run",
            "budget_skip",
            "--journal",
            journal.to_str().expect("utf-8 temp path"),
        ])
        .output()
        .expect("seda_cli spawns");
    assert_eq!(
        out.status.code(),
        Some(4),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let header = read(&journal);
    assert!(
        header.contains("\"seda-checkpoint/v1\""),
        "journal must carry the checkpoint schema:\n{header}"
    );
}

/// A serving ceiling no scheduler can meet must exit 5, and the
/// `seda-serve/v1` snapshot must still be written for the post-mortem.
#[test]
fn violated_serving_ceiling_exits_5_with_a_serving_snapshot() {
    let reg = TempRegistry::new(
        "serve",
        &[(
            "serve_impossible",
            r#"{
              "name": "serve_impossible",
              "title": "a picosecond SLA",
              "npus": ["edge"],
              "workloads": ["let"],
              "schemes": ["SeDA"],
              "outputs": ["traffic"],
              "serving": {
                "seed": 7,
                "scheduler": "fcfs",
                "arrival": {"open_loop": {"rate_rps": 2000.0, "requests": 40}},
                "tenants": [
                  {"name": "only", "workload": "let", "scheme": "SeDA"}
                ],
                "expect": [
                  {"tenant": "only", "p50_ms_max": 0.0000001}
                ]
              }
            }"#,
        )],
    );
    let snapshot_path = reg.path("serve.json");
    let out = reg
        .cli()
        .args([
            "serve",
            "serve_impossible",
            "--json",
            snapshot_path.to_str().expect("utf-8 temp path"),
        ])
        .output()
        .expect("seda_cli spawns");
    assert_eq!(
        out.status.code(),
        Some(5),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("serving expectation(s) not met"),
        "stderr must name the serving violation:\n{stderr}"
    );
    let snapshot = read(&snapshot_path);
    assert!(
        snapshot.contains("\"seda-serve/v1\""),
        "serving snapshot must be written before the nonzero exit:\n{snapshot}"
    );
}

/// A malformed stream spec — layer lengths that are not positive
/// multiples of the 64-byte protection block — must exit 3 with the
/// validation error on stderr, before any sealing happens.
#[test]
fn malformed_stream_spec_exits_3() {
    let out = Command::new(env!("CARGO_BIN_EXE_seda_cli"))
        .args(["stream", "let", "--lens", "128,100"])
        .output()
        .expect("seda_cli spawns");
    assert_eq!(
        out.status.code(),
        Some(3),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("not a positive multiple"),
        "stderr must carry the spec validation error:\n{stderr}"
    );

    // An unknown model is a spec error too, not an internal one.
    let out = Command::new(env!("CARGO_BIN_EXE_seda_cli"))
        .args(["stream", "no-such-model"])
        .output()
        .expect("seda_cli spawns");
    assert_eq!(out.status.code(), Some(3));
}

/// A tampered stream block must exit 4 with the typed rejection on
/// stderr — and the `seda-stream/v2` snapshot must already be on disk
/// when the process exits, recording the failure for CI to archive.
#[test]
fn tampered_stream_block_exits_4_with_a_snapshot() {
    let dir = std::env::temp_dir().join(format!("seda-cli-stream-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp snapshot dir");
    let snapshot_path = dir.join("stream.json");
    let out = Command::new(env!("CARGO_BIN_EXE_seda_cli"))
        .args([
            "stream",
            "let",
            "--flip",
            "200",
            "--json",
            snapshot_path.to_str().expect("utf-8 temp path"),
        ])
        .output()
        .expect("seda_cli spawns");
    assert_eq!(
        out.status.code(),
        Some(4),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("stream rejected"),
        "stderr must carry the typed rejection:\n{stderr}"
    );
    let snapshot = read(&snapshot_path);
    assert!(
        snapshot.contains("\"seda-stream/v2\""),
        "stream snapshot must be schema-tagged:\n{snapshot}"
    );
    assert!(
        snapshot.contains("\"ok\": false"),
        "stream snapshot must record the rejection:\n{snapshot}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// An untampered stream provisions cleanly: exit 0 and a success
/// snapshot with a sustained throughput. The deterministic fields are
/// pinned — the replay cycles prove the layer write-out is still
/// modelled.
#[test]
fn clean_stream_exits_0_with_a_throughput_snapshot() {
    let dir = std::env::temp_dir().join(format!("seda-cli-stream-ok-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp snapshot dir");
    let snapshot_path = dir.join("stream.json");
    let out = Command::new(env!("CARGO_BIN_EXE_seda_cli"))
        .args([
            "stream",
            "let",
            "--json",
            snapshot_path.to_str().expect("utf-8 temp path"),
        ])
        .output()
        .expect("seda_cli spawns");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let snapshot = read(&snapshot_path);
    assert!(snapshot.contains("\"ok\": true"), "{snapshot}");
    assert!(snapshot.contains("\"gbps_sustained\""), "{snapshot}");
    assert!(snapshot.contains("\"seda-stream/v2\""), "{snapshot}");
    assert!(snapshot.contains("\"blocks\": 183,"), "{snapshot}");
    assert!(snapshot.contains("\"replay_cycles\": 1082"), "{snapshot}");
    assert!(!snapshot.contains("overlap"), "{snapshot}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `stream_bench` argument errors exit 2 with a usage line, never a
/// panic: a malformed or missing `--min-gbps` value and an unknown flag.
#[test]
fn malformed_stream_bench_args_exit_2_with_usage() {
    for args in [
        &["--min-gbps", "fast"][..],
        &["--min-gbps"][..],
        &["--model", "trf"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_stream_bench"))
            .args(args)
            .output()
            .expect("stream_bench spawns");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}:\n{stderr}");
        assert!(
            stderr.contains("usage: stream_bench"),
            "{args:?}:\n{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}:\n{stderr}");
    }
}

/// The CI-gate binaries reject a missing, malformed or non-finite gate
/// value, or an unknown flag, with exit 2 and a usage line before any
/// work. A `nan` budget would otherwise parse and make the gate unable
/// to fail.
#[test]
fn malformed_gate_bench_args_exit_2_with_usage() {
    let sweep = env!("CARGO_BIN_EXE_sweep_bench");
    let serve = env!("CARGO_BIN_EXE_serve_bench");
    for (exe, args) in [
        (sweep, &["--max-ms-per-point"][..]),
        (sweep, &["--max-ms-per-point", "fast"][..]),
        (sweep, &["--max-ms-per-point", "nan"][..]),
        (sweep, &["--max-engine-rss-mb"][..]),
        (sweep, &["--max-engine-rss-mb", "fast"][..]),
        (sweep, &["--max-engine-rss-mb", "nan"][..]),
        (sweep, &["--bogus"][..]),
        (serve, &["--max-ms"][..]),
        (serve, &["--max-ms", "inf"][..]),
        (serve, &["--requests", "many"][..]),
    ] {
        let out = Command::new(exe).args(args).output().expect("spawns");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let name = Path::new(exe).file_stem().expect("binary name");
        let usage = format!("usage: {}", name.to_string_lossy());
        assert_eq!(out.status.code(), Some(2), "{exe} {args:?}:\n{stderr}");
        assert!(stderr.contains(&usage), "{exe} {args:?}:\n{stderr}");
        assert!(!stderr.contains("panicked"), "{exe} {args:?}:\n{stderr}");
    }
}

/// An input file that cannot be read is a clean error: exit 1 with the
/// path and the I/O error on stderr, not a panic.
#[test]
fn unreadable_input_file_exits_1_naming_the_path() {
    let reg = TempRegistry::new("unreadable", &[]);
    let missing = reg.path("no-such-input.csv");
    let missing = missing.to_str().expect("utf-8 temp path");
    for exe in [
        env!("CARGO_BIN_EXE_custom_topology"),
        env!("CARGO_BIN_EXE_replay_trace"),
    ] {
        let out = Command::new(exe).arg(missing).output().expect("spawns");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{exe}:\n{stderr}");
        assert!(!stderr.contains("panicked"), "{exe}:\n{stderr}");
        assert!(
            stderr.contains(missing),
            "{exe} must name the path:\n{stderr}"
        );
    }
}

/// A scenario without a serving block must be rejected with the spec
/// exit code, not a panic.
#[test]
fn serve_without_a_serving_block_exits_3() {
    let reg = TempRegistry::new(
        "noserve",
        &[(
            "plain",
            r#"{
              "name": "plain",
              "title": "no serving block",
              "npus": ["edge"],
              "workloads": ["let"],
              "schemes": ["baseline"],
              "outputs": ["traffic"]
            }"#,
        )],
    );
    let out = reg
        .cli()
        .args(["serve", "plain"])
        .output()
        .expect("seda_cli spawns");
    assert_eq!(out.status.code(), Some(3));
}

/// An output path that cannot be written is a clean error: exit 1 with
/// the path and the I/O error on stderr, not a panic (exit 101).
#[test]
fn unwritable_telemetry_path_exits_1_without_panicking() {
    let reg = TempRegistry::new("unwritable", &[]);
    let telemetry = reg.path("missing-dir").join("t.json");
    let out = reg
        .cli()
        .args([
            "--telemetry",
            telemetry.to_str().expect("utf-8 temp path"),
            "workloads",
        ])
        .output()
        .expect("seda_cli spawns");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
    assert!(
        stderr.contains("t.json"),
        "stderr must name the path:\n{stderr}"
    );
}

/// The bench binaries share the unwritable-output contract: exit 1 with
/// the path on stderr, no panic.
#[test]
fn unwritable_bench_output_exits_1_without_panicking() {
    let reg = TempRegistry::new("unwritable-bench", &[]);
    let out_path = reg.path("missing-dir").join("x.out");
    let out_path = out_path.to_str().expect("utf-8 temp path");
    for (exe, args) in [
        (
            env!("CARGO_BIN_EXE_gen_trace"),
            &["let", "edge", out_path][..],
        ),
        (
            env!("CARGO_BIN_EXE_serve_bench"),
            &[out_path, "--requests", "1000"][..],
        ),
    ] {
        let out = Command::new(exe)
            .args(args)
            .output()
            .expect("binary spawns");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{exe}: stderr:\n{stderr}");
        assert!(!stderr.contains("panicked"), "{exe}: stderr:\n{stderr}");
        assert!(
            stderr.contains("x.out"),
            "{exe}: stderr must name the path:\n{stderr}"
        );
    }
}

/// A misspelled NPU name is an error, not a silent edge-NPU run: every
/// binary taking a `server|edge` argument must exit 1 and name the bad
/// value on stderr.
#[test]
fn unknown_npu_name_exits_1() {
    for (exe, args) in [
        (
            env!("CARGO_BIN_EXE_seda_cli"),
            &["run", "rest", "servr", "SeDA"][..],
        ),
        (env!("CARGO_BIN_EXE_layer_report"), &["rest", "servr"][..]),
        (env!("CARGO_BIN_EXE_gen_trace"), &["rest", "servr"][..]),
    ] {
        let out = Command::new(exe)
            .args(args)
            .output()
            .expect("binary spawns");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{exe} {args:?}:\n{stderr}");
        assert!(
            stderr.contains("unknown NPU \"servr\""),
            "{exe} {args:?}:\n{stderr}"
        );
    }
}

/// A malformed `seda_cli run` repeat count is a usage error (exit 2),
/// not a silent single inference.
#[test]
fn malformed_run_repeat_count_exits_2_with_usage() {
    for count in ["three", "0"] {
        let out = Command::new(env!("CARGO_BIN_EXE_seda_cli"))
            .args(["run", "let", "edge", "SeDA", count])
            .output()
            .expect("seda_cli spawns");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{count}: stderr:\n{stderr}");
        assert!(
            stderr.contains("usage: seda_cli"),
            "{count}: stderr:\n{stderr}"
        );
    }
}
