#!/usr/bin/env bash
# The PayLess benchmark's one command. Builds the real payless-server
# binary from the root workspace and the harness from this package (both
# offline, both into $CARGO_TARGET_DIR, default target/), then runs the
# harness from the repository root.
#
#   benchmark/run.sh [--seed N] [--seconds S]          every workload, both metric sets
#   benchmark/run.sh --workload NAME --trace 0|1 ...   one run; last line is the result object
#   benchmark/run.sh --smoke                           tiny sizes: output shape + correctness
#   benchmark/run.sh --check                           two end-to-end sets must agree within bounds
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --manifest-path Cargo.toml -p payless-server --bin payless-server >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2

PAYLESS_BENCH_REV="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export PAYLESS_BENCH_REV
exec "$CARGO_TARGET_DIR/release/payless-benchmark" \
    --server-bin "$CARGO_TARGET_DIR/release/payless-server" \
    --scratch "$CARGO_TARGET_DIR/payless-benchmark-scratch" \
    "$@"
