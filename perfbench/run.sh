#!/usr/bin/env bash
# Build spiderd and the benchmark from this checkout, then run the benchmark.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload probe-tpch --seed 1 --seconds 10 --trace 0
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p routes-server --bin spiderd 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/spiderd-bench" --spiderd "$CARGO_TARGET_DIR/release/spiderd" "$@"
