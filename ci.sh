#!/usr/bin/env sh
# Local CI: formatting, lints, the tier-1 gate, and the two smoke stages.
#
# Runs entirely offline — every dependency is an in-tree path crate
# (see CONTRIBUTING.md), so no network access is required.
#
# Usage: ./ci.sh [stage]
#   fmt | clippy | tier1 | benchmark-smoke | results-check |
#   results-full | nightly-chaos | size | smokes | all
# With no argument, `all` runs every stage in order — exactly what the
# staged GitHub workflow (.github/workflows/ci.yml) runs job by job.
# (`results-full` and `nightly-chaos` are not part of `all`; the scheduled
# workflow runs them. `size` is a report, not a gate.)
#
# Every correctness invariant is a `#[test]` and runs in tier1; performance
# is measured by benchmark/ (see benchmark/README.md), not gated here.
set -eu

cd "$(dirname "$0")"

fmt() {
    echo "== cargo fmt --check =="
    cargo fmt --all -- --check
}

clippy() {
    echo "== cargo clippy -D warnings =="
    cargo clippy --workspace --all-targets -- -D warnings
}

tier1() {
    echo "== tier-1: cargo build --release && cargo test -q =="
    cargo build --release
    cargo test -q
}

benchmark_smoke() {
    echo "== benchmark smoke: benchmark/run.sh --smoke (tiny sizes, shape + correctness) =="
    # The benchmark harness is a package outside the workspace that compiles
    # against the crates' public APIs, so tier-1 never builds it: this stage
    # is where an API change that breaks it fails, instead of in the
    # benchmark pipeline. Building without --locked lets cargo rewrite
    # benchmark/Cargo.lock on disk when the crate graph changed; the
    # committed copy is put back so the stage leaves the tree clean.
    # The committed lock lags the workspace's crate graph by more than a
    # line: it still lists the deleted payless-par crate and dependency
    # edges since removed (payless-market, payless-semantic ->
    # payless-telemetry; payless-metrics -> payless-json) and lacks newer
    # ones (payless-events -> payless-json). benchmark/run.sh builds
    # --offline, not --locked, so cargo rewrites the lock on the fly here
    # and in the benchmark pipeline; this stage restores it, and nothing
    # under benchmark/ changes outside a change to the benchmark itself.
    _lock="$PWD/target/benchmark-Cargo.lock.orig"
    mkdir -p "$PWD/target"
    cp benchmark/Cargo.lock "$_lock"
    _rc=0
    benchmark/run.sh --smoke >"$PWD/target/benchmark-smoke.json" || _rc=$?
    cp "$_lock" benchmark/Cargo.lock
    return "$_rc"
}

# Regenerate each named figure binary's output into $1 with the committed
# defaults (the knobs that rescale the figures are cleared) and `diff -u` it
# against results/. Every figure is regenerated even after a diff, so the
# directory holds a full re-recording; the stage fails if any file differs.
regen_results() {
    RES_DIR="$PWD/target/$1"
    shift
    mkdir -p "$RES_DIR"
    _bins=""
    for _fig in "$@"; do
        _bins="$_bins --bin $_fig"
    done
    # shellcheck disable=SC2086 # one word per --bin flag
    cargo build -q --release -p payless-bench $_bins
    _rc=0
    for _fig in "$@"; do
        env -u PAYLESS_REPS -u PAYLESS_JSON -u PAYLESS_Q_REAL -u PAYLESS_Q_TPCH \
            -u PAYLESS_SCALE_REAL -u PAYLESS_SCALE_TPCH \
            "./target/release/$_fig" >"$RES_DIR/$_fig.txt"
        diff -u "results/$_fig.txt" "$RES_DIR/$_fig.txt" || _rc=1
    done
    return "$_rc"
}

results_check() {
    echo "== results check: planspace, ablation, fig10 and stats_accuracy reproduce results/ byte for byte =="
    # The figure binaries print transaction counts and plan counts, never
    # wall-clock time, so a `PayLess` session that plans or pays differently
    # in any of the four paper modes shows up as a diff here. planspace and
    # ablation take 0.1 s each, fig10 about a minute and a half (86-93 s on
    # a 2-core VM); stats_accuracy (about 10 s) is the one check on the two
    # statistics backends serving does not run. fig11-15 ride the same
    # session code and are checked by `results-full`.
    regen_results results-check planspace ablation fig10 stats_accuracy
}

results_full() {
    echo "== results full: every count-only figure reproduces results/ byte for byte =="
    # All nine count-only outputs (`efficiency` prints wall-clock timings and
    # never reproduces). About ten minutes on two cores, so it stays out of
    # `all`; the scheduled workflow runs it. To re-record results/ after a
    # change that moves the money, run this stage and copy
    # target/results-full/*.txt over results/.
    regen_results results-full planspace ablation fig10 fig11 fig12 fig13 fig14 fig15 \
        stats_accuracy
}

nightly_chaos() {
    echo "== nightly chaos: client/server + crash-recovery suite at extra fault seeds =="
    # The scheduled (non-blocking) sweep: re-run the real-socket suite —
    # the remote mix under chaos injection and every crash-recovery leg —
    # at seeds beyond the 48879 tier1 pins. Findings here are bugs to
    # chase, not merge blockers — the workflow marks this job
    # continue-on-error.
    for chaos_seed in ${PAYLESS_CHAOS_SEEDS:-1 7 20177}; do
        echo "==== chaos seed $chaos_seed ===="
        PAYLESS_FAULT_SEED="$chaos_seed" cargo test -q -p payless-server --test server_e2e
    done
}

size() {
    echo "== size: non-test lines per crate under crates/*/src =="
    # Every line of each source file up to its first `#[cfg(test)]` (the
    # whole file when it has none): the count a simplicity change quotes.
    _total=0
    for _src in crates/*/src; do
        _crate="${_src#crates/}"
        _crate="${_crate%/src}"
        _n=$(find "$_src" -name '*.rs' -exec awk \
            '/^[[:space:]]*#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' {} + |
            awk '{ s += $1 } END { print s + 0 }')
        printf '%-12s %6d\n' "$_crate" "$_n"
        _total=$((_total + _n))
    done
    printf '%-12s %6d\n' total "$_total"
}

smokes() {
    benchmark_smoke
    results_check
}

all() {
    fmt
    clippy
    tier1
    smokes
}

stage="${1:-all}"
case "$stage" in
    fmt) fmt ;;
    clippy) clippy ;;
    tier1) tier1 ;;
    benchmark-smoke) benchmark_smoke ;;
    results-check) results_check ;;
    results-full) results_full ;;
    nightly-chaos) nightly_chaos ;;
    size) size ;;
    smokes) smokes ;;
    all) all ;;
    *)
        echo "ci.sh: unknown stage \`$stage\` (fmt|clippy|tier1|benchmark-smoke|results-check|results-full|nightly-chaos|size|smokes|all)" >&2
        exit 2
        ;;
esac

echo "CI OK ($stage)"
