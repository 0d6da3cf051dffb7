#!/usr/bin/env sh
# Shape-check the committed BENCH_*.json baselines without running any
# benchmark: every file must be non-empty JSONL whose records carry a
# `figure` string and a `runs` array, and every run a `name` plus
# `median_nanos`. Runs in the fast `fmt` stage so a truncated or
# hand-mangled baseline fails CI in seconds, instead of surfacing half an
# hour later as a cryptic "no baseline runs" inside bench-diff.
set -eu

cd "$(dirname "$0")/.."

exec cargo bench -q --bench hotpath -- validate \
    "$PWD/BENCH_sqr.json" "$PWD/BENCH_dp.json" "$PWD/BENCH_metrics.json" \
    "$PWD/BENCH_batch.json" "$PWD/BENCH_events.json"
