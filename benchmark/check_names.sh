#!/usr/bin/env bash
# Fails unless BENCHMARK.json is what the binary says it measures:
# the file equals `e2e manifest`, its names equal `e2e list`, every
# name is well-formed, and the counts fit the contract (8/16/128).
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
e2e="$CARGO_TARGET_DIR/release/e2e"

fail() { echo "check_names: $*" >&2; exit 1; }

diff <("$e2e" manifest) BENCHMARK.json >&2 \
  || fail "BENCHMARK.json differs from \`e2e manifest\`"

listed="$("$e2e" list | cut -f1 | cut -d' ' -f2 | sort)"
declared="$(grep -o '"name": "[^"]*"' BENCHMARK.json | cut -d'"' -f4 | sort)"
[ "$listed" = "$declared" ] || fail "names in BENCHMARK.json and \`e2e list\` differ"
[ -z "$(echo "$listed" | uniq -d)" ] || fail "a name is used twice"
if bad="$(echo "$listed" | grep -Evx '[A-Za-z0-9][A-Za-z0-9_.-]{0,63}')"; then
  fail "malformed names: $bad"
fi

count() { "$e2e" list | grep -c "^$1 " || true; }
[ "$(count workload)" -ge 2 ] && [ "$(count workload)" -le 8 ] || fail "workloads: $(count workload)"
[ "$(count end_to_end)" -ge 1 ] && [ "$(count end_to_end)" -le 16 ] || fail "end_to_end: $(count end_to_end)"
[ "$(count per_layer)" -ge 1 ] && [ "$(count per_layer)" -le 128 ] || fail "per_layer: $(count per_layer)"
echo "check_names: $(count workload) workloads, $(count end_to_end) end-to-end and $(count per_layer) per-layer metrics agree"
