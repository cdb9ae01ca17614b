#!/usr/bin/env bash
# Builds the benchmark harness and the bcountd daemon in release mode, then
# runs the harness with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload congest_spam --seed 1 --seconds 30 --trace 0
#
# Both builds share one target directory ($CARGO_TARGET_DIR, default
# .bench_build), so the harness finds bcountd next to its own executable.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p bcount-daemon --bin bcountd
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
