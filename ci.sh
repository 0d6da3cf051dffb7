#!/usr/bin/env sh
# Local CI: formatting, lints, the tier-1 gate, and the smoke stages.
#
# Runs entirely offline — every dependency is an in-tree path crate
# (see CONTRIBUTING.md), so no network access is required.
#
# Usage: ./ci.sh [stage]
#   fmt | clippy | tier1 | fault-smoke | bench-smoke | explain-smoke |
#   serve-smoke | metrics-smoke | events-smoke | store-scale | batch-smoke |
#   server-smoke | recovery-smoke | benchmark-smoke | results-check |
#   nightly-chaos | bench-diff | smokes | all
# With no argument, `all` runs every stage in order — exactly what the
# staged GitHub workflow (.github/workflows/ci.yml) runs job by job.
# (`nightly-chaos` is not part of `all`; the scheduled workflow runs it.)
set -eu

cd "$(dirname "$0")"

fmt() {
    echo "== cargo fmt --check =="
    cargo fmt --all -- --check
    echo "== baseline shape check =="
    ./scripts/check_baselines.sh
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

fault_smoke() {
    echo "== fault smoke: deterministic fault matrix at a pinned seed =="
    # The fault-matrix suite injects seeded market faults (503s, stalls,
    # truncated and corrupt payloads) and checks answers + billing reconcile
    # against a clean twin run. The seed is pinned for reproducibility; vary
    # PAYLESS_FAULT_SEED locally to explore other schedules.
    PAYLESS_FAULT_SEED=48879 cargo test -q -p payless-core --test fault_matrix
}

bench_smoke() {
    echo "== bench smoke: hotpath sqr + dp at smoke scale, JSONL shape =="
    # Tiny-scale run of the hot-path bench, dumping JSONL which is then
    # validated for shape.
    # The bench binary's CWD is the package dir, so the dump path is absolute.
    SMOKE_JSON="$PWD/target/hotpath-smoke.jsonl"
    rm -f "$SMOKE_JSON"
    PAYLESS_JSON="$SMOKE_JSON" cargo bench -q --bench hotpath -- smoke
    cargo bench -q --bench hotpath -- validate "$SMOKE_JSON"
}

explain_smoke() {
    echo "== explain smoke: one-shot EXPLAIN ANALYZE + report-shape validation =="
    # Run one EXPLAIN ANALYZE query end to end and validate the JSON dump:
    # a non-empty operators array with est + actual on every node, plus the
    # q-error section.
    EXPLAIN_JSON="$PWD/target/explain-smoke.json"
    rm -f "$EXPLAIN_JSON"
    cargo run -q -p payless-cli -- --explain-out "$EXPLAIN_JSON" \
        '\explain SELECT * FROM Station, Weather WHERE Weather.Country = '\''Country0'\'' AND Weather.Date >= 1 AND Weather.Date <= 3 AND Station.StationID = Weather.StationID'
    cargo bench -q --bench hotpath -- validate-explain "$EXPLAIN_JSON"
}

serve_smoke() {
    echo "== serve smoke: concurrent serving vs serial replay, clean and under chaos =="
    # Replay the same pinned multi-client mix serially (1 worker — the
    # oracle) and concurrently (4 workers, single-flight coalescing on;
    # PAYLESS_THREADS is the bench's own worker-count knob, one query each),
    # then reconcile the two dumps: identical answers query by query, each
    # run's spend ledger equal to its billing meter, and the coalesced run
    # delivering no more pages than the serial one. Repeated with a
    # chaos-injected market (unlimited retries) — coalescing and billing
    # must survive faults too.
    SERVE_DIR="$PWD/target/serve-smoke"
    mkdir -p "$SERVE_DIR"
    rm -f "$SERVE_DIR"/*.json

    echo "-- clean pair --"
    PAYLESS_THREADS=1 cargo bench -q --bench hotpath -- serve "$SERVE_DIR/serial.json"
    PAYLESS_THREADS=4 cargo bench -q --bench hotpath -- serve "$SERVE_DIR/parallel.json"
    cargo bench -q --bench hotpath -- validate-serve \
        "$SERVE_DIR/serial.json" "$SERVE_DIR/parallel.json"

    echo "-- chaos pair (PAYLESS_FAULT_SEED=48879) --"
    PAYLESS_THREADS=1 PAYLESS_FAULT_SEED=48879 \
        cargo bench -q --bench hotpath -- serve "$SERVE_DIR/serial-fault.json"
    PAYLESS_THREADS=4 PAYLESS_FAULT_SEED=48879 \
        cargo bench -q --bench hotpath -- serve "$SERVE_DIR/parallel-fault.json"
    cargo bench -q --bench hotpath -- validate-serve \
        "$SERVE_DIR/serial-fault.json" "$SERVE_DIR/parallel-fault.json"
}

metrics_smoke() {
    echo "== metrics smoke: live hub + reconciliation watchdog on a pinned mix =="
    # Replay the pinned serve mix with the metrics hub attached and the
    # exposition + windowed JSONL series dumped, then cross-check the
    # artifacts against the serve report: billed-page counters equal to the
    # billing meter's transaction delta, watchdog sampled mid-run with zero
    # final drift and zero violations, and per-window deltas that sum back
    # to the cumulative counters. A short window (25 ms) forces several
    # ring rolls even on a fast run. Repeated under seeded chaos with the
    # watchdog in strict mode — a mid-run reconciliation failure aborts the
    # mix instead of passing silently.
    METRICS_DIR="$PWD/target/metrics-smoke"
    mkdir -p "$METRICS_DIR"
    rm -f "$METRICS_DIR"/*

    echo "-- clean run --"
    PAYLESS_METRICS_OUT="$METRICS_DIR/clean.txt" PAYLESS_METRICS_WINDOW_MS=25 \
        cargo bench -q --bench hotpath -- serve "$METRICS_DIR/clean.json"
    cargo bench -q --bench hotpath -- validate-metrics \
        "$METRICS_DIR/clean.txt" "$METRICS_DIR/clean.json"

    echo "-- chaos run (PAYLESS_FAULT_SEED=48879, strict watchdog) --"
    PAYLESS_METRICS_OUT="$METRICS_DIR/chaos.txt" PAYLESS_METRICS_WINDOW_MS=25 \
        PAYLESS_METRICS_STRICT=1 PAYLESS_FAULT_SEED=48879 \
        cargo bench -q --bench hotpath -- serve "$METRICS_DIR/chaos.json"
    cargo bench -q --bench hotpath -- validate-metrics \
        "$METRICS_DIR/chaos.txt" "$METRICS_DIR/chaos.json"
}

events_smoke() {
    echo "== events smoke: flight recorder, spend provenance, and the black box =="
    # Three legs. First the provenance-exactness suite: per-query provenance
    # trees reconstructed from the journal must bill exactly what the ledger
    # and billing meter say, clean and under the pinned chaos seed, serial
    # and 4-thread, batching on and off. Then a CLI run with --events-out:
    # the dumped journal must be well-formed JSONL and \why must render.
    # Finally the post-mortem path: deliberately break reconciliation
    # mid-run (one unattributed charge onto the billing meter) under the
    # strict per-query watchdog at the pinned chaos seed — the mix must
    # abort and the journal's black-box JSONL dump must land and validate,
    # violation event included.
    EVENTS_DIR="$PWD/target/events-smoke"
    mkdir -p "$EVENTS_DIR"
    rm -f "$EVENTS_DIR"/*

    echo "-- provenance exactness (clean + chaos, serial + parallel, batch on/off) --"
    cargo test -q -p payless-serve --test provenance

    echo "-- CLI journal dump --"
    cargo run -q -p payless-cli -- --events-out "$EVENTS_DIR/cli.jsonl" \
        "SELECT * FROM Weather WHERE Weather.Country = 'Country0' AND Weather.Date >= 1 AND Weather.Date <= 3"
    cargo bench -q --bench hotpath -- validate-events "$EVENTS_DIR/cli.jsonl"

    echo "-- induced strict violation -> black box (chaos seed 48879) --"
    cargo bench -q --bench hotpath -- events-abort "$EVENTS_DIR/blackbox.jsonl"
    cargo bench -q --bench hotpath -- validate-events "$EVENTS_DIR/blackbox.jsonl" expect-violation
}

store_scale() {
    echo "== store-scale: 1k/10k-view stores under the old 225-view wall-clock cap =="
    # Build 1k- and 10k-view semantic stores (compaction on, eviction cap
    # raised so nothing is dropped), probe them through the R-tree index,
    # and run the full cached SQR rewrite at both scales. The bench mode
    # itself enforces the wall-clock cap — the 10k-view rewrite median must
    # beat the old 225-view baseline median — and exits non-zero past it.
    # The JSONL dump is then shape-validated like every other figure.
    SCALE_JSON="$PWD/target/hotpath-store-scale.jsonl"
    rm -f "$SCALE_JSON"
    PAYLESS_JSON="$SCALE_JSON" cargo bench -q --bench hotpath -- store-scale
    cargo bench -q --bench hotpath -- validate "$SCALE_JSON"
}

batch_smoke() {
    echo "== batch smoke: batched purchasing vs the unbatched twin, plus the spend curve =="
    # Replay the pinned overlapping multi-client mix once with batching off
    # (the oracle) and twice with the batching window on (1 and 4 threads),
    # then reconcile each batched dump against the oracle: identical answers
    # query by query, both ledgers equal to their billing meters, batched
    # delivered pages never above the unbatched twin, and at least one
    # remainder actually parked. Repeated under seeded chaos with the strict
    # watchdog on. Finally regenerate the spend-per-query curve — the bench
    # mode itself enforces that pages/query strictly falls as clients are
    # added — and shape-validate its JSONL dump.
    BATCH_DIR="$PWD/target/batch-smoke"
    mkdir -p "$BATCH_DIR"
    rm -f "$BATCH_DIR"/*

    echo "-- clean: unbatched oracle vs batched at 1 and 4 threads --"
    PAYLESS_THREADS=1 \
        cargo bench -q --bench hotpath -- batch-serve "$BATCH_DIR/unbatched.json"
    PAYLESS_THREADS=1 PAYLESS_BATCH=1 \
        cargo bench -q --bench hotpath -- batch-serve "$BATCH_DIR/batched-1t.json"
    PAYLESS_THREADS=4 PAYLESS_BATCH=1 \
        cargo bench -q --bench hotpath -- batch-serve "$BATCH_DIR/batched-4t.json"
    cargo bench -q --bench hotpath -- validate-batch \
        "$BATCH_DIR/unbatched.json" "$BATCH_DIR/batched-1t.json"
    cargo bench -q --bench hotpath -- validate-batch \
        "$BATCH_DIR/unbatched.json" "$BATCH_DIR/batched-4t.json"

    echo "-- chaos pair (PAYLESS_FAULT_SEED=48879, strict watchdog) --"
    PAYLESS_THREADS=1 PAYLESS_FAULT_SEED=48879 PAYLESS_METRICS_STRICT=1 \
        cargo bench -q --bench hotpath -- batch-serve "$BATCH_DIR/unbatched-fault.json"
    PAYLESS_THREADS=4 PAYLESS_BATCH=1 PAYLESS_FAULT_SEED=48879 PAYLESS_METRICS_STRICT=1 \
        cargo bench -q --bench hotpath -- batch-serve "$BATCH_DIR/batched-fault.json"
    cargo bench -q --bench hotpath -- validate-batch \
        "$BATCH_DIR/unbatched-fault.json" "$BATCH_DIR/batched-fault.json"

    echo "-- spend-per-query curve --"
    cargo bench -q --bench hotpath -- batch "$BATCH_DIR/BENCH_batch.json"
    cargo bench -q --bench hotpath -- validate "$BATCH_DIR/BENCH_batch.json"
}

# Block until the server writes its bound address (port 0 binds are only
# knowable after the fact), then print it.
wait_addr() {
    _i=0
    while [ ! -s "$1" ]; do
        _i=$((_i + 1))
        if [ "$_i" -gt 200 ]; then
            echo "server never wrote its address to $1" >&2
            return 1
        fi
        sleep 0.05
    done
    cat "$1"
}

# Boot payless-server in the background with the given extra env (passed as
# VAR=value args), wait for its address, and leave SRV_PID/SRV_ADDR set.
# $1 = addr file, $2 = log file; the rest are env assignments.
boot_server() {
    _addr_file="$1"
    _log="$2"
    shift 2
    rm -f "$_addr_file"
    env PAYLESS_LISTEN=127.0.0.1:0 PAYLESS_ADDR_FILE="$_addr_file" "$@" \
        "$PWD/target/debug/payless-server" >"$_log" 2>&1 &
    SRV_PID=$!
    SRV_ADDR=$(wait_addr "$_addr_file")
}

server_smoke() {
    echo "== server smoke: true client/server e2e over real sockets, clean and under chaos =="
    # Boot the std-only HTTP server, drive the pinned 4-client mix over real
    # TCP connections (one connection per request), and reconcile the
    # client-built report against an in-process serial oracle of the same
    # mix: identical answers query by query, Σ client-reported pages equal
    # to the server meter's transaction delta (the connect driver itself
    # refuses to write a non-reconciling report), and no more delivered
    # pages than the serial run. Repeated with a chaos-injected market at
    # the pinned seed — answers and billing must survive fault retries
    # across the network boundary too.
    SRV_SMOKE_DIR="$PWD/target/server-smoke"
    mkdir -p "$SRV_SMOKE_DIR"
    rm -f "$SRV_SMOKE_DIR"/*
    cargo build -q -p payless-server -p payless-cli
    CLI="$PWD/target/debug/payless"
    SEED="${PAYLESS_SERVER_SMOKE_SEED:-48879}"

    echo "-- clean: in-process serial oracle vs 4 clients over sockets --"
    "$CLI" --serve 1 --page 1 --seed "$SEED" \
        --serve-out "$SRV_SMOKE_DIR/oracle.json"
    boot_server "$SRV_SMOKE_DIR/addr" "$SRV_SMOKE_DIR/server-clean.log"
    "$CLI" --connect "$SRV_ADDR" --serve 4 --seed "$SEED" \
        --serve-out "$SRV_SMOKE_DIR/remote.json" \
        --store-out "$SRV_SMOKE_DIR/store.json" --shutdown-after
    wait "$SRV_PID"
    cargo bench -q --bench hotpath -- validate-serve \
        "$SRV_SMOKE_DIR/oracle.json" "$SRV_SMOKE_DIR/remote.json"

    echo "-- chaos: same pair with PAYLESS_FAULT_SEED=$SEED --"
    PAYLESS_FAULT_SEED="$SEED" "$CLI" --serve 1 --page 1 --seed "$SEED" \
        --serve-out "$SRV_SMOKE_DIR/oracle-fault.json"
    boot_server "$SRV_SMOKE_DIR/addr" "$SRV_SMOKE_DIR/server-fault.log" \
        PAYLESS_FAULT_SEED="$SEED"
    "$CLI" --connect "$SRV_ADDR" --serve 4 --seed "$SEED" \
        --serve-out "$SRV_SMOKE_DIR/remote-fault.json" \
        --store-out "$SRV_SMOKE_DIR/store-fault.json" --shutdown-after
    wait "$SRV_PID"
    cargo bench -q --bench hotpath -- validate-serve \
        "$SRV_SMOKE_DIR/oracle-fault.json" "$SRV_SMOKE_DIR/remote-fault.json"
}

# One crash-recovery leg: boot a durable server with the given crash knobs,
# drive the pinned mix (expected to fail when the server dies mid-mix),
# restart over the same data dir, capture the recovered store status, re-
# drive the full mix, and gate the no-double-billing equation against the
# oracle. $1 = leg name, $2 = data dir; the rest are env assignments for
# the first (crashing) boot.
recovery_leg() {
    _leg="$1"
    _data="$2"
    shift 2
    echo "-- $_leg --"
    rm -rf "$_data"
    boot_server "$REC_DIR/addr-$_leg" "$REC_DIR/server-$_leg-crash.log" \
        PAYLESS_DATA_DIR="$_data" "$@"
    _crash_pid=$SRV_PID
    "$CLI" --connect "$SRV_ADDR" --serve 4 --seed "$REC_SEED" >/dev/null 2>&1 || true
    # If the crash knob never fired (a seed with too few appends), the
    # server is still up — SIGKILL it so the leg still exercises recovery.
    kill -9 "$_crash_pid" 2>/dev/null || true
    wait "$_crash_pid" 2>/dev/null || true

    boot_server "$REC_DIR/addr-$_leg-2" "$REC_DIR/server-$_leg-recover.log" \
        PAYLESS_DATA_DIR="$_data"
    "$CLI" --connect "$SRV_ADDR" --probe \
        --store-out "$REC_DIR/store-$_leg-recovered.json"
    "$CLI" --connect "$SRV_ADDR" --serve 4 --seed "$REC_SEED" \
        --serve-out "$REC_DIR/run2-$_leg.json" \
        --store-out "$REC_DIR/store-$_leg-final.json" --shutdown-after
    wait "$SRV_PID"
    cargo bench -q --bench hotpath -- validate-recovery \
        "$REC_DIR/oracle.json" "$REC_DIR/run2-$_leg.json" \
        "$REC_DIR/store-$_leg-recovered.json" "$REC_DIR/store-$_leg-final.json"
}

recovery_smoke() {
    echo "== recovery smoke: crash mid-append, mid-snapshot, and via kill -9, then recover =="
    # Three crash points against the durable store, each followed by a
    # restart and a full re-drive of the same mix. The gate is exact:
    # pages that survived the crash plus pages bought on the re-drive must
    # equal what one uninterrupted run buys — a recovered page re-billed
    # shows up as over-buy, phantom coverage as under-buy — and every
    # store dump must reconcile per table against the WAL's recorded
    # meter. Leg A tears a WAL frame mid-write (the torn tail must be
    # truncated, never double-counted); leg B aborts inside the snapshot
    # write, before the atomic rename; leg C is a real SIGKILL landing
    # wherever the mix happens to be once the WAL is non-empty.
    REC_DIR="$PWD/target/recovery-smoke"
    mkdir -p "$REC_DIR"
    rm -rf "$REC_DIR"/data-* "$REC_DIR"/*.json "$REC_DIR"/*.log "$REC_DIR"/addr-*
    cargo build -q -p payless-server -p payless-cli
    CLI="$PWD/target/debug/payless"
    REC_SEED="${PAYLESS_RECOVERY_SEED:-48879}"

    echo "-- uninterrupted serial oracle --"
    "$CLI" --serve 1 --page 1 --seed "$REC_SEED" --serve-out "$REC_DIR/oracle.json"

    recovery_leg mid-append "$REC_DIR/data-a" PAYLESS_CRASH_AFTER=5
    recovery_leg mid-snapshot "$REC_DIR/data-b" \
        PAYLESS_SNAPSHOT_EVERY=4 PAYLESS_CRASH_IN_SNAPSHOT=1

    echo "-- kill -9 setup: SIGKILL once the WAL is non-empty --"
    rm -rf "$REC_DIR/data-c"
    boot_server "$REC_DIR/addr-kill" "$REC_DIR/server-kill-crash.log" \
        PAYLESS_DATA_DIR="$REC_DIR/data-c"
    _kill_pid=$SRV_PID
    "$CLI" --connect "$SRV_ADDR" --serve 4 --seed "$REC_SEED" \
        >/dev/null 2>&1 &
    _drive_pid=$!
    _i=0
    while [ ! -s "$REC_DIR/data-c/wal.log" ] && [ ! -f "$REC_DIR/data-c/snapshot.json" ]; do
        _i=$((_i + 1))
        [ "$_i" -gt 600 ] && break
        sleep 0.05
    done
    kill -9 "$_kill_pid" 2>/dev/null || true
    wait "$_drive_pid" 2>/dev/null || true
    wait "$_kill_pid" 2>/dev/null || true

    boot_server "$REC_DIR/addr-kill-2" "$REC_DIR/server-kill-recover.log" \
        PAYLESS_DATA_DIR="$REC_DIR/data-c"
    "$CLI" --connect "$SRV_ADDR" --probe \
        --store-out "$REC_DIR/store-kill-recovered.json"
    "$CLI" --connect "$SRV_ADDR" --serve 4 --seed "$REC_SEED" \
        --serve-out "$REC_DIR/run2-kill.json" \
        --store-out "$REC_DIR/store-kill-final.json" --shutdown-after
    wait "$SRV_PID"
    cargo bench -q --bench hotpath -- validate-recovery \
        "$REC_DIR/oracle.json" "$REC_DIR/run2-kill.json" \
        "$REC_DIR/store-kill-recovered.json" "$REC_DIR/store-kill-final.json"
}

benchmark_smoke() {
    echo "== benchmark smoke: benchmark/run.sh --smoke (tiny sizes, shape + correctness) =="
    # The benchmark harness is a package outside the workspace that compiles
    # against the crates' public APIs, so tier-1 never builds it: this stage
    # is where an API change that breaks it fails, instead of in the
    # benchmark pipeline. Building without --locked lets cargo rewrite
    # benchmark/Cargo.lock on disk when the crate graph changed; the
    # committed copy is put back so the stage leaves the tree clean.
    _lock="$PWD/target/benchmark-Cargo.lock.orig"
    mkdir -p "$PWD/target"
    cp benchmark/Cargo.lock "$_lock"
    _rc=0
    benchmark/run.sh --smoke >"$PWD/target/benchmark-smoke.json" || _rc=$?
    cp "$_lock" benchmark/Cargo.lock
    return "$_rc"
}

results_check() {
    echo "== results check: planspace, ablation and fig10 reproduce results/ byte for byte =="
    # The figure binaries print transaction counts and plan counts, never
    # wall-clock time, so a `PayLess` session that plans or pays differently
    # in any of the four paper modes shows up as a diff here. planspace and
    # ablation take 0.1 s each, fig10 about a minute; fig11-15 ride the same
    # session code and are regenerated by hand (EXPERIMENTS.md). The knobs
    # that rescale the figures are cleared so the committed defaults run.
    RES_DIR="$PWD/target/results-check"
    mkdir -p "$RES_DIR"
    cargo build -q --release -p payless-bench --bin planspace --bin ablation --bin fig10
    for _fig in planspace ablation fig10; do
        env -u PAYLESS_REPS -u PAYLESS_JSON -u PAYLESS_Q_REAL -u PAYLESS_Q_TPCH \
            -u PAYLESS_SCALE_REAL -u PAYLESS_SCALE_TPCH \
            "./target/release/$_fig" >"$RES_DIR/$_fig.txt"
        diff -u "results/$_fig.txt" "$RES_DIR/$_fig.txt"
    done
}

nightly_chaos() {
    echo "== nightly chaos: server + recovery smokes at extra seeds =="
    # The scheduled (non-blocking) sweep: re-run the network e2e smoke with
    # chaos injection and the kill -9 recovery leg at seeds beyond the
    # pinned 48879. Findings here are bugs to chase, not merge blockers —
    # the workflow marks this job continue-on-error.
    for chaos_seed in ${PAYLESS_CHAOS_SEEDS:-1 7 20177}; do
        echo "==== chaos seed $chaos_seed ===="
        PAYLESS_SERVER_SMOKE_SEED="$chaos_seed" server_smoke
        PAYLESS_RECOVERY_SEED="$chaos_seed" recovery_smoke
    done
}

bench_diff() {
    echo "== bench diff: fresh medians vs committed baselines (non-fatal) =="
    # Baseline integrity is a hard gate even though the timing diff is not:
    # a missing or mangled baseline is a repo defect, not host noise, so it
    # must not hide behind the downgrade below.
    ./scripts/check_baselines.sh
    # Full-scale rerun compared against BENCH_sqr.json / BENCH_dp.json; timing
    # noise on shared hosts makes this advisory only. The machine-readable
    # delta summary lands in target/bench-diff.json either way.
    ./scripts/bench_diff.sh || echo "warning: hot-path bench regressed vs committed baselines (non-fatal)"
}

smokes() {
    fault_smoke
    bench_smoke
    explain_smoke
    serve_smoke
    metrics_smoke
    events_smoke
    store_scale
    batch_smoke
    server_smoke
    recovery_smoke
    benchmark_smoke
    results_check
}

all() {
    fmt
    clippy
    tier1
    smokes
    bench_diff
}

stage="${1:-all}"
case "$stage" in
    fmt) fmt ;;
    clippy) clippy ;;
    tier1) tier1 ;;
    fault-smoke) fault_smoke ;;
    bench-smoke) bench_smoke ;;
    explain-smoke) explain_smoke ;;
    serve-smoke) serve_smoke ;;
    metrics-smoke) metrics_smoke ;;
    events-smoke) events_smoke ;;
    store-scale) store_scale ;;
    batch-smoke) batch_smoke ;;
    server-smoke) server_smoke ;;
    recovery-smoke) recovery_smoke ;;
    benchmark-smoke) benchmark_smoke ;;
    results-check) results_check ;;
    nightly-chaos) nightly_chaos ;;
    bench-diff) bench_diff ;;
    smokes) smokes ;;
    all) all ;;
    *)
        echo "ci.sh: unknown stage \`$stage\` (fmt|clippy|tier1|fault-smoke|bench-smoke|explain-smoke|serve-smoke|metrics-smoke|events-smoke|store-scale|batch-smoke|server-smoke|recovery-smoke|benchmark-smoke|results-check|nightly-chaos|bench-diff|smokes|all)" >&2
        exit 2
        ;;
esac

echo "CI OK ($stage)"
