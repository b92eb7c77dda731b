#!/usr/bin/env bash
# Build the shipped service binary and the benchmark from source, then run
# one benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload vendor-suite --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
# One target directory for both builds (the benchmark is a workspace of its
# own, whose default target directory would be perfbench/target).
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
target="$CARGO_TARGET_DIR"
cargo build --release --quiet --bin dnnip-serve 1>&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$target/release/perfbench" --serve-bin "$target/release/dnnip-serve" "$@"
