#!/usr/bin/env bash
# Builds the benchmark from source and runs it.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--reps R] [--smoke]
#       every workload, every metric (table on stderr, JSON on stdout
#       and in target/benchmark/e2e.json)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last stdout line is its result object
#   benchmark/run.sh list | manifest | compare A.json B.json
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
# Cargo reports on stderr, so stdout carries only the benchmark's own
# output; a failed build exits non-zero before anything is printed.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/e2e" "$@"
