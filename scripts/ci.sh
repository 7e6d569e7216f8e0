#!/usr/bin/env bash
# Tier-1 gate (see ROADMAP.md). Every command runs --offline: the
# workspace is hermetic — path dependencies only, no crates.io access —
# and this script is what enforces that property in CI.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo build --release --workspace --offline
cargo test -q --offline --workspace
cargo clippy --workspace --all-targets --offline -- -D warnings

# Documentation gate: every intra-doc link must resolve, unambiguously,
# to an item the public docs can show.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Benchmark-harness gate: perfbench is its own workspace, so the steps
# above never compile it, yet it calls the server's and the route core's
# public API. Build and test it where `perfbench/run.sh` builds it;
# --locked keeps perfbench/Cargo.lock as committed.
CARGO_TARGET_DIR=.bench_build cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

# Parallel-execution determinism gate: the chase and route-forest results
# must be byte-identical to sequential at every worker count. Run the
# suite under two ROUTES_THREADS overrides (the tests additionally sweep
# explicit pool sizes 1/2/8 internally).
ROUTES_THREADS=2 cargo test -q --offline --test parallel_determinism
ROUTES_THREADS=8 cargo test -q --offline --test parallel_determinism

# Vectorized-join differential gate: the batch executor, the lazy
# MatchIter facade, and the naive reference evaluator must enumerate
# byte-identical match sequences over seeded random scenarios, at every
# composite-index threshold and batch size the suite sweeps.
ROUTES_THREADS=2 cargo test -q --offline -p routes-query --test fuzz_differential
ROUTES_THREADS=8 cargo test -q --offline -p routes-query --test fuzz_differential

# Session-store concurrency gate: the 8-thread suite must pass with
# byte-identical eviction accounting at 1 and 8 shards (the suite
# additionally sweeps explicit shard counts 1/2/8 internally), and the
# default-constructor test must follow the env override.
ROUTES_SESSION_SHARDS=1 cargo test -q --offline --test session_store_concurrency
ROUTES_SESSION_SHARDS=8 cargo test -q --offline --test session_store_concurrency

# Persistence gate: the crash-recovery and fault-injection suite (HTTP
# restart round-trips, torn-tail boots, the seeded fault campaign) must
# pass with the session store at 1 shard and at 8.
ROUTES_SESSION_SHARDS=1 cargo test -q --offline --test persistence_recovery
ROUTES_SESSION_SHARDS=8 cargo test -q --offline --test persistence_recovery

# Incremental-edit gate: the 200-op differential campaign (incremental
# delta-chase vs from-scratch re-chase, byte-identical after every batch,
# plus surviving-forest equality, the HTTP edit endpoint, and edit-record
# replay on restart) must pass with the session store at 1 shard and at 8,
# and with the worker pool pinned to 2 threads.
ROUTES_SESSION_SHARDS=1 ROUTES_THREADS=2 cargo test -q --offline --test incremental_edits
ROUTES_SESSION_SHARDS=8 ROUTES_THREADS=2 cargo test -q --offline --test incremental_edits

# Bench smokes run with --quick, which writes under target/bench-smoke/ and
# leaves the committed full-run CSVs in bench_results/ untouched.
#
# Incremental-edit bench smoke: incremental apply vs full re-chase over a
# pinned campaign (writes target/bench-smoke/micro_edit.csv).
cargo run --release --offline -p routes-bench --bin repro -- micro edit --quick

# Vectorized-join bench smoke: batch executor vs row-at-a-time MatchIter
# (writes target/bench-smoke/micro_join.csv).
cargo run --release --offline -p routes-bench --bin repro -- micro join --quick

# Thread-scaling bench smoke: `repro micro parallel` must run end to end
# (writes target/bench-smoke/micro_parallel.csv).
cargo run --release --offline -p routes-bench --bin repro -- micro parallel --quick

# Session-store shard-scaling bench smoke (writes
# target/bench-smoke/micro_sessions.csv).
cargo run --release --offline -p routes-bench --bin repro -- micro sessions --quick

# WAL fsync-batch bench smoke: append throughput and recovery time per
# group-commit batch size (writes target/bench-smoke/micro_persist.csv).
cargo run --release --offline -p routes-bench --bin repro -- micro persist --quick

# Pipeline gate: stage-by-stage chase + route stitching byte-identical at
# every worker count, core-mode routes replay end to end, and the core
# session's all-routes output matches the unminimized session on
# surviving tuples.
ROUTES_THREADS=2 cargo test -q --offline --test pipeline_routes
ROUTES_THREADS=8 cargo test -q --offline --test pipeline_routes

# Pipeline bench smoke: stitched-route latency per hop count and core
# shrink ratio (writes target/bench-smoke/micro_pipeline.csv).
cargo run --release --offline -p routes-bench --bin repro -- micro pipeline --quick

# Admission-control gate: the HTTP saturation/abuse battery (slow-loris
# reap + concurrent service, deterministic burst shedding with exact
# /metrics reconciliation, graceful drain) must pass with the session
# store at 1 shard and at 8, with the worker pool pinned to 2 threads.
ROUTES_SESSION_SHARDS=1 ROUTES_THREADS=2 cargo test -q --offline --test http_overload
ROUTES_SESSION_SHARDS=8 ROUTES_THREADS=2 cargo test -q --offline --test http_overload

# HTTP saturation bench smoke: closed-loop clients past capacity, shed
# at the door (writes target/bench-smoke/micro_http.csv).
cargo run --release --offline -p routes-bench --bin repro -- micro http --quick

# Observability gate: the socket suite (trace-ID propagation, /trace span
# dump, slow-request log, ring eviction) must pass with the session store
# at 1 shard and at 8.
ROUTES_SESSION_SHARDS=1 cargo test -q --offline --test observability
ROUTES_SESSION_SHARDS=8 cargo test -q --offline --test observability

# Tracing-overhead bench smoke (writes target/bench-smoke/micro_obs.csv).
cargo run --release --offline -p routes-bench --bin repro -- micro obs --quick

# Self-profiler gate: the chase must be byte-identical (stats, per-tgd
# attribution, target instance) with the sampler on and off, at 2 and 8
# worker threads.
ROUTES_THREADS=2 cargo test -q --offline --test profiler
ROUTES_THREADS=8 cargo test -q --offline --test profiler

# Self-profiler bench smoke: per-tgd chase attribution plus sampler
# on/off request-path overhead (writes target/bench-smoke/micro_prof.csv).
cargo run --release --offline -p routes-bench --bin repro -- micro prof --quick

# Structured-logging gate: boot a real spiderd, shut it down over the
# socket, and require every stderr line to be a parseable JSON log record
# (at least one: the "listening" event).
logdir="$(mktemp -d)"
trap 'kill "$spider_pid" 2>/dev/null || true; rm -rf "$logdir"' EXIT
cargo build --release --offline -p routes-server --bin spiderd --bin spiderd-logcheck
target/release/spiderd --addr 127.0.0.1:0 --data-dir "$logdir/data" \
    > "$logdir/stdout" 2> "$logdir/stderr" &
spider_pid=$!
port=""
for _ in $(seq 1 100); do
    port="$(sed -n 's|.*listening on http://127\.0\.0\.1:\([0-9]*\).*|\1|p' "$logdir/stdout")"
    [ -n "$port" ] && break
    sleep 0.1
done
[ -n "$port" ] || { echo "spiderd never reported its port" >&2; exit 1; }
exec 3<>"/dev/tcp/127.0.0.1/$port"
printf 'POST /shutdown HTTP/1.1\r\nhost: ci\r\ncontent-length: 0\r\nconnection: close\r\n\r\n' >&3
cat <&3 > /dev/null
exec 3<&- 3>&-
wait "$spider_pid"
spider_pid=""
target/release/spiderd-logcheck 1 < "$logdir/stderr"
