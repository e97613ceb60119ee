#!/usr/bin/env bash
# Smoke-runs every example and every bench binary once, with arguments
# that keep each run short. Any non-zero exit fails the script and dumps
# that run's output. CI calls this after the release build so the
# binaries are already warm; locally, cargo builds whatever is missing.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

run() {
  echo "==> $*"
  if ! "$@" >"$tmp/last.log" 2>&1; then
    echo "FAILED: $*"
    cat "$tmp/last.log"
    exit 1
  fi
}

# Every examples/*.rs is a registered [[example]] target of seda-examples.
for src in examples/*.rs; do
  name="$(basename "$src" .rs)"
  run cargo run --quiet --release -p seda-examples --example "$name"
done

# Every bench binary. File-consuming/producing binaries work inside the
# temp dir; replay_trace replays the trace gen_trace just wrote.
for src in crates/bench/src/bin/*.rs; do
  name="$(basename "$src" .rs)"
  case "$name" in
    seda_cli)
      run cargo run --quiet --release -p seda-bench --bin seda_cli -- \
        --telemetry "$tmp/telemetry.json" quickstart
      # Paper tables (the table binaries folded into the CLI) and the
      # declarative scenario zoo. `golden_subset` is the smallest scenario
      # that still exercises the full paper lineup on both NPUs.
      for t in 1 2 3; do
        run cargo run --quiet --release -p seda-bench --bin seda_cli -- table "$t"
      done
      run cargo run --quiet --release -p seda-bench --bin seda_cli -- scenario list
      run cargo run --quiet --release -p seda-bench --bin seda_cli -- scenario describe fig6
      run cargo run --quiet --release -p seda-bench --bin seda_cli -- \
        scenario run golden_subset --json "$tmp/golden_subset.json"
      run cargo run --quiet --release -p seda-bench --bin seda_cli -- \
        serve serve_mix --json "$tmp/serve_mix.json"
      ;;
    gen_trace)
      run cargo run --quiet --release -p seda-bench --bin gen_trace -- \
        let edge "$tmp/let.trace"
      ;;
    replay_trace)
      run cargo run --quiet --release -p seda-bench --bin replay_trace -- \
        "$tmp/let.trace" SeDA edge
      ;;
    sweep_bench)
      run cargo run --quiet --release -p seda-bench --bin sweep_bench -- \
        "$tmp/BENCH_sweep.json"
      ;;
    serve_bench)
      # A trimmed request count keeps the smoke run short; the CI perf
      # step runs the full 100k-request spec separately.
      run cargo run --quiet --release -p seda-bench --bin serve_bench -- \
        "$tmp/BENCH_serve.json" --requests 10000
      ;;
    *)
      run cargo run --quiet --release -p seda-bench --bin "$name"
      ;;
  esac
done

echo "smoke: every example and bench binary ran clean"
