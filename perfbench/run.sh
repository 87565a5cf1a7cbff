#!/usr/bin/env bash
# Builds the `funseeker` CLI and the benchmark from source, then runs
# the benchmark with the given arguments. Run it from the repository
# root, e.g.:
#
#   bash perfbench/run.sh --workload fleet_cold --seed 2022
#
# Build output goes to stderr; the benchmark's result is the last line
# of stdout. Builds land in $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline -q -p funseeker-server --bin funseeker >&2
cargo build --release --offline -q --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/funseeker-bench" "$@"
