#!/usr/bin/env bash
# Local CI gate: everything a pull request must pass.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> workspace tests with a 2-worker pool (FUNSEEKER_CORES=2)"
FUNSEEKER_CORES=2 cargo test --workspace -q

echo "==> workspace tests with mmap ingestion disabled (FUNSEEKER_MMAP=0)"
FUNSEEKER_MMAP=0 cargo test --workspace -q

echo "==> disasm tests with kernels forced to the portable SWAR tier"
FUNSEEKER_KERNEL_TIER=swar cargo test -q -p funseeker-disasm

echo "==> evidence sweep ≡ stream filter under the SWAR tier"
FUNSEEKER_KERNEL_TIER=swar cargo test -q -p funseeker --test proptest_evidence

echo "==> mutation fuzz harness (1000 cases)"
FUNSEEKER_MUTATION_CASES=1000 cargo test -q -p funseeker-corpus --test proptest_mutate

echo "==> plan ≡ reference on hostile mutants (256 cases; guards the walks' order normalization)"
FUNSEEKER_MUTATION_CASES=256 cargo test --release -q -p funseeker --test proptest_plan

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
  -p funseeker-elf -p funseeker-eh -p funseeker-disasm -p funseeker \
  -p funseeker-corpus -p funseeker-baselines -p funseeker-eval \
  -p funseeker-aarch64 -p funseeker-batch -p funseeker-pool \
  -p funseeker-server -p funseeker-client

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> sweep perf smoke (quick mode, >30% regression fails)"
cargo run --release -q -p funseeker-eval --bin experiments -- \
  perf --quick --check BENCH_sweep.json

echo "==> batch engine smoke (quick mode, >30% cold-cache regression fails)"
cargo run --release -q -p funseeker-eval --bin experiments -- \
  batch --quick --check BENCH_batch.json

echo "==> shared-plan analyze smoke (quick mode; plan slower than replan or >30% regression fails)"
cargo run --release -q -p funseeker-eval --bin experiments -- \
  analyze --quick --check BENCH_batch.json

echo "==> call-graph smoke (direct-edge precision floor + >30% build-throughput regression fails)"
cargo run --release -q -p funseeker-eval --bin experiments -- \
  callgraph --quick --check BENCH_sweep.json

echo "==> funseeker --callgraph smoke on a real ELF"
cargo run --release -q -p funseeker-server --bin funseeker -- \
  --callgraph target/release/funseeker | grep "direct edges" > /dev/null

echo "==> funseeker into a closed pipe: exit 0, nothing on stderr"
PIPE_ERR="$(mktemp)"
target/release/funseeker target/release/funseeker 2> "$PIPE_ERR" | head -1 > /dev/null \
  || { echo "funseeker | head -1 failed under pipefail"; cat "$PIPE_ERR"; exit 1; }
[ ! -s "$PIPE_ERR" ] || { echo "funseeker | head -1 wrote to stderr:"; cat "$PIPE_ERR"; exit 1; }
rm -f "$PIPE_ERR"

echo "==> daemon e2e tests in the release profile (build-profile-dependent sizes)"
cargo test --release -q -p funseeker-server --test e2e

echo "==> perfbench smoke test (the benchmark harness still builds against the core API)"
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> serve smoke: daemon results must match direct analysis"
FUNSEEKER=target/release/funseeker
SOCK="$(mktemp -d)/funseeker-ci.sock"
"$FUNSEEKER" serve --listen "unix:$SOCK" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do [ -S "$SOCK" ] && break; sleep 0.1; done
for bin in target/release/funseeker target/release/experiments /bin/bash; do
  diff <("$FUNSEEKER" submit --addr "unix:$SOCK" "$bin") \
       <("$FUNSEEKER" "$bin") \
    || { echo "daemon output diverged from direct analysis for $bin"; exit 1; }
done
"$FUNSEEKER" stats --addr "unix:$SOCK" | grep -q "^results_total 3$" \
  || { echo "daemon did not count 3 results"; exit 1; }
# Shutdown wakes the blocked accept and drains on a condvar: exiting
# must not wait on any sleep-poll.
EXIT_T0=$(date +%s%N)
"$FUNSEEKER" shutdown --addr "unix:$SOCK"
wait "$SERVE_PID"
EXIT_MS=$(( ($(date +%s%N) - EXIT_T0) / 1000000 ))
trap - EXIT
[ "$EXIT_MS" -le 1000 ] || { echo "daemon took ${EXIT_MS} ms to exit after shutdown (limit 1000)"; exit 1; }
[ ! -S "$SOCK" ] || { echo "daemon left its socket behind"; exit 1; }

echo "==> serve load smoke (quick mode, >30% duplicate-heavy throughput regression fails)"
cargo run --release -q -p funseeker-eval --bin experiments -- \
  serve --quick --check BENCH_batch.json

echo "==> io path smoke (quick mode, >30% v3-decode regression fails)"
cargo run --release -q -p funseeker-eval --bin experiments -- \
  io --quick --check BENCH_io.json

echo "==> cache v3 corruption smoke: damaged entries must miss, never error"
CACHE_DIR="$(mktemp -d)/funseeker-ci-cache"
SOCK="$(mktemp -d)/funseeker-ci-v3.sock"
"$FUNSEEKER" serve --listen "unix:$SOCK" --disk-cache "$CACHE_DIR" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do [ -S "$SOCK" ] && break; sleep 0.1; done
"$FUNSEEKER" submit --addr "unix:$SOCK" /bin/bash > /dev/null
"$FUNSEEKER" shutdown --addr "unix:$SOCK"
wait "$SERVE_PID"
trap - EXIT
ls "$CACHE_DIR"/*.fsc > /dev/null \
  || { echo "daemon wrote no v3 cache entries"; exit 1; }
for f in "$CACHE_DIR"/*.fsc; do  # truncate below the fixed header: guaranteed damage
  head -c 25 "$f" > "$f.cut" && mv "$f.cut" "$f"
done
"$FUNSEEKER" serve --listen "unix:$SOCK" --disk-cache "$CACHE_DIR" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do [ -S "$SOCK" ] && break; sleep 0.1; done
diff <("$FUNSEEKER" submit --addr "unix:$SOCK" /bin/bash) \
     <("$FUNSEEKER" /bin/bash) \
  || { echo "corrupted cache changed the analysis result"; exit 1; }
"$FUNSEEKER" stats --addr "unix:$SOCK" | grep -q "^disk_hits 0$" \
  || { echo "daemon served a corrupted disk entry as a hit"; exit 1; }
"$FUNSEEKER" shutdown --addr "unix:$SOCK"
wait "$SERVE_PID"
trap - EXIT
# The miss re-analyzed and rewrote the entry; a third daemon must now hit it.
"$FUNSEEKER" serve --listen "unix:$SOCK" --disk-cache "$CACHE_DIR" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do [ -S "$SOCK" ] && break; sleep 0.1; done
"$FUNSEEKER" submit --addr "unix:$SOCK" /bin/bash > /dev/null
"$FUNSEEKER" stats --addr "unix:$SOCK" | grep -q "^disk_hits 1$" \
  || { echo "rewritten v3 entry did not serve a disk hit"; exit 1; }
"$FUNSEEKER" shutdown --addr "unix:$SOCK"
wait "$SERVE_PID"
trap - EXIT
rm -rf "$CACHE_DIR"

# Multi-core scaling smoke: only meaningful on a host that actually has
# ≥2 cores. taskset pins the whole run to cores 0,1 so the measurement
# is the same whether CI lands on 2 or 64 cores; the check fails if the
# 2-core morsel sweep is slower than the sequential sweep. On a 1-core
# host the bench still runs (verifying the sequential fallback) without
# the taskset pin.
if [ "$(nproc)" -ge 2 ] && command -v taskset > /dev/null; then
  echo "==> multicore scaling smoke (2 cores pinned; shard slower than sequential fails)"
  taskset -c 0,1 cargo run --release -q -p funseeker-eval --bin experiments -- \
    multicore --quick --cores 2 --check BENCH_sweep.json
else
  echo "==> multicore fallback smoke (single-core host: sequential fallback must engage)"
  cargo run --release -q -p funseeker-eval --bin experiments -- \
    multicore --quick --cores 1 --check BENCH_sweep.json
fi

echo "==> CI gate passed"
