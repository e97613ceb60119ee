//! The `seda_validate` binary as CI runs it.

use std::process::Command;

/// Planned chaos panics unwind without the panic hook: a passing
/// resilience run writes none of them to stderr, so a real panic in a CI
/// log stands out.
#[test]
fn resilience_family_prints_no_planned_panics() {
    let out = Command::new(env!("CARGO_BIN_EXE_seda_validate"))
        .args(["--family", "resilience", "--seed", "4"])
        .output()
        .expect("seda_validate runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stdout}\n{stderr}");
    assert!(stdout.trim_end().ends_with("... ok"), "{stdout}");
    let planned = stderr
        .lines()
        .filter(|l| l.contains("chaos: planned panic"))
        .count();
    assert_eq!(planned, 0, "planned panics reached stderr:\n{stderr}");
}
