#!/usr/bin/env bash
# Local CI gate: formatting, lints (warnings are errors), the full test
# suite, and a compile check of every bench target. Run from anywhere;
# everything executes at the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --check
run cargo clippy --workspace --all-targets -- -D warnings
run cargo test --workspace -q
# Threads matrix: re-run the workspace suite with the differential
# tests pinned to an explicit sequential + parallel worker pair.
run env PFCIM_TEST_THREADS=1,4 cargo test --workspace -q
# Tolerance sweep: strict/default/loose dp_error_tol must mine identical
# result sets on a larger Gaussian database than the default in-test
# size exercises.
run env PFCIM_SWEEP_ROWS=200 cargo test --release -q -p pfcim --test dp_tol_sweep
# Wall-clock gates (ignored in debug builds): live telemetry costs at
# most 5% of a mine, and the incremental stream walk beats re-mining
# every step and forced row rebuilds. One test thread, so no gate times
# another's workers.
run cargo test --release -q -p pfcim-bench --test perf_gates -- --test-threads=1
run cargo check --benches --workspace
# Kernel micro-benches (bitmap intersection, incremental-vs-full DP):
# run once to prove they execute; timings are informational here.
run cargo bench -q -p pfcim-bench --bench micro_kernels
# Benchmark self-test: perfbench/ is a package of its own that reaches
# the program only through its public crates, so an API change it relies
# on (approx_fcp, EventTable, ...) fails here, not at the next benchmark
# run. Every workload runs at reduced size and must pass its gates.
run cargo test --release --manifest-path perfbench/Cargo.toml
# Rustdoc must build clean: broken intra-doc links and malformed
# examples are errors, not warnings.
run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
# Profiler/exporter smoke: mine the high-probability dataset under the
# span profiler and check both artifacts exist and carry the expected
# markers. Deep validation (JSON round-trip, span nesting, Prometheus
# linting) lives in crates/bench/tests/profile_exporters.rs; the pfcim
# binary additionally lints its own --prom output before writing it.
profdir=target/profile-smoke
mkdir -p "$profdir"
run cargo run --release -q -p pfcim-bench --example gen_smoke_dat -- "$profdir/smoke.dat"
run cargo run --release -q -p pfcim --bin pfcim -- profile "$profdir/smoke.dat" \
    --min-sup 1% --out "$profdir/trace.json" --sample 4 \
    --prom "$profdir/metrics.prom" --stats
run grep -q '"traceEvents"' "$profdir/trace.json"
run grep -q '^pfcim_nodes_visited ' "$profdir/metrics.prom"
run grep -q '^# TYPE pfcim_audit_incremental counter' "$profdir/metrics.prom"

# Dense byte-diff smoke: the tiny T20I10D30KP40 cell spends its mines
# building event tables through the table cache and the run's tail memo.
# Turning both off (--event-cache 0) or splitting the run over two
# workers must not change one byte of the output. (Plain invocations:
# the `run` helper echoes into the captured stdout.)
densedir=target/dense-smoke
mkdir -p "$densedir"
run cargo run --release -q -p pfcim-bench --example gen_smoke_dat -- --dense "$densedir/dense.dat"
echo "==> dense smoke (event cache off and two threads vs default)"
for variant in default nocache threads2; do
    case "$variant" in
        default) extra=() ;;
        nocache) extra=(--event-cache 0) ;;
        threads2) extra=(--threads 2) ;;
    esac
    cargo run --release -q -p pfcim --bin pfcim -- "$densedir/dense.dat" \
        --min-sup 20% "${extra[@]}" >"$densedir/$variant.out" 2>/dev/null
done
run test -s "$densedir/default.out"
run diff "$densedir/default.out" "$densedir/nocache.out"
run diff "$densedir/default.out" "$densedir/threads2.out"

# Sparse byte-diff smoke: at min_sup 3 the smoke set's families are wide
# but their support lattices are small, so the default planner evaluates
# every one exactly. Nothing samples, and one worker or two must print
# the same bytes.
echo "==> sparse smoke (two threads vs one, nothing sampled)"
for t in 1 2; do
    cargo run --release -q -p pfcim --bin pfcim -- "$profdir/smoke.dat" \
        --min-sup 3 --threads "$t" --stats >"$densedir/sparse$t.out" 2>"$densedir/sparse$t.err"
done
run test -s "$densedir/sparse1.out"
run diff "$densedir/sparse1.out" "$densedir/sparse2.out"
run grep -q 'fcp_sampled=0 ' "$densedir/sparse1.err"
run grep -q 'fcp_sampled=0 ' "$densedir/sparse2.err"

# Live-telemetry smoke: launch a deliberately slowed mine with the
# scrape endpoint on an ephemeral port, curl /metrics, /healthz and
# /flight while the run is still alive, render one frame of the
# terminal dashboard against the same endpoint, and check the flight
# recorder lands on disk. Deep validation (Prometheus linting, JSON
# parsing, mid-run reconciliation) lives in
# crates/bench/tests/telemetry_http.rs and the pfcim binary lints its
# own /metrics body before serving it.
teldir=target/telemetry-smoke
rm -rf "$teldir"
mkdir -p "$teldir"
# Create the log before the background launch opens it, so the polling
# loop below cannot race the redirect and fail on a missing file.
: >"$teldir/run.err"
echo "==> telemetry smoke (live scrape while mining)"
PFCIM_TELEMETRY_TEST_SLOW_NODE_US=20000 \
    cargo run --release -q -p pfcim --bin pfcim -- "$profdir/smoke.dat" \
    --min-sup 8 --telemetry 127.0.0.1:0 \
    --flight-dump "$teldir/flight.jsonl" >"$teldir/run.out" 2>"$teldir/run.err" &
telpid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's#.*telemetry listening on http://##p' "$teldir/run.err" | head -n1)
    [ -n "$addr" ] && break
    kill -0 "$telpid" 2>/dev/null || { cat "$teldir/run.err"; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { echo "telemetry endpoint never came up"; cat "$teldir/run.err"; exit 1; }
run curl -fsS "http://$addr/metrics" -o "$teldir/metrics.prom"
run grep -q '^pfcim_nodes_visited ' "$teldir/metrics.prom"
run curl -fsS "http://$addr/healthz" -o "$teldir/healthz.json"
run grep -q '"status"' "$teldir/healthz.json"
run curl -fsS "http://$addr/flight" -o "$teldir/flight_live.jsonl"
run grep -q '"record"' "$teldir/flight_live.jsonl"
run cargo run --release -q -p pfcim --bin pfcim -- top "$addr" --iterations 1
wait "$telpid"
run test -s "$teldir/flight.jsonl"
run grep -q '"record":"sample"' "$teldir/flight.jsonl"
# Crash post-mortem: an injected panic must still leave a parseable
# flight-recorder dump behind (the panic hook writes it on the way out).
echo "==> telemetry smoke (flight dump on panic)"
if PFCIM_INJECT_PANIC=10 \
    cargo run --release -q -p pfcim --bin pfcim -- "$profdir/smoke.dat" \
    --min-sup 8 --flight-dump "$teldir/flight_panic.jsonl" \
    --telemetry 127.0.0.1:0 >/dev/null 2>"$teldir/panic.err"; then
    echo "injected panic did not fail the run"; exit 1
fi
run test -s "$teldir/flight_panic.jsonl"
run grep -q '"record":"sample"' "$teldir/flight_panic.jsonl"

# Service smoke: pfcim serve on an ephemeral port, concurrent queries
# from separate client processes — two sharing one snapshot at different
# pfct thresholds, a third at a different min_sup — then the Telemetry
# routes mounted on the *same* listener must show a nonzero cross-query
# hit rate on the snapshot's shared bound-input cache. A single-pfct
# service answer must be byte-identical to batch-mode pfcim on the same
# file, and an already-expired deadline must exit with code 3. Deep
# validation (bit-identity across thread counts, carve correctness,
# cache/KernelStats reconciliation) lives in tests/serve_service.rs and
# the pfcim_core::serve unit suite.
servedir=target/serve-smoke
rm -rf "$servedir"
mkdir -p "$servedir"
: >"$servedir/serve.err"
echo "==> service smoke (pfcim serve + concurrent queries)"
cargo run --release -q -p pfcim --bin pfcim -- serve 127.0.0.1:0 \
    "$profdir/smoke.dat" >/dev/null 2>"$servedir/serve.err" &
servepid=$!
saddr=""
for _ in $(seq 1 100); do
    saddr=$(sed -n 's#^pfcim serve listening on ##p' "$servedir/serve.err" | head -n1)
    [ -n "$saddr" ] && break
    kill -0 "$servepid" 2>/dev/null || { cat "$servedir/serve.err"; exit 1; }
    sleep 0.1
done
[ -n "$saddr" ] || { echo "service never came up"; cat "$servedir/serve.err"; exit 1; }
cargo run --release -q -p pfcim --bin pfcim -- query "$saddr" \
    --snapshot smoke --min-sup 8 --pfct 0.3 --pfct 0.6 --concurrent \
    >"$servedir/q12.out" 2>/dev/null &
qpid=$!
run cargo run --release -q -p pfcim --bin pfcim -- query "$saddr" \
    --snapshot smoke --min-sup 6 --pfct 0.5 >"$servedir/q3.out" 2>/dev/null
wait "$qpid"
run test -s "$servedir/q12.out"
run test -s "$servedir/q3.out"
# One engine, one output format: a fresh single-threshold service query
# byte-matches batch-mode pfcim on the same data. (Plain invocations:
# the `run` helper echoes into the captured stdout.)
echo "==> service-vs-batch byte-identity"
cargo run --release -q -p pfcim --bin pfcim -- query "$saddr" \
    --snapshot smoke --min-sup 8 --pfct 0.3 >"$servedir/q_one.out" 2>/dev/null
cargo run --release -q -p pfcim --bin pfcim -- "$profdir/smoke.dat" \
    --min-sup 8 --pfct 0.3 >"$servedir/batch.out" 2>/dev/null
run diff "$servedir/q_one.out" "$servedir/batch.out"
run curl -fsS "http://$saddr/metrics" -o "$servedir/metrics.prom"
run grep -q '^pfcim_serve_queries_total [1-9]' "$servedir/metrics.prom"
run grep -Eq '^pfcim_serve_snapshot_cache_hits_total\{snapshot="smoke"\} [1-9]' \
    "$servedir/metrics.prom"
# An already-expired deadline is refused with exit code 3 — regardless
# of what the server has cached.
rc=0
cargo run --release -q -p pfcim --bin pfcim -- query "$saddr" \
    --snapshot smoke --min-sup 8 --pfct 0.3 --deadline-ms 0 \
    >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 3 ] || { echo "deadline-exceeded query exited $rc, wanted 3"; exit 1; }
kill "$servepid" 2>/dev/null || true
wait "$servepid" 2>/dev/null || true

# Stream smoke: the traffic-monitoring generator piped straight into
# `pfcim stream`, which maintains the pattern set over a sliding window
# and dumps the final window contents to a .dat file. The maintained
# set must be byte-identical to batch-mode pfcim re-mining that dump —
# the CLI-level version of the stream_differential integration tests.
streamdir=target/stream-smoke
rm -rf "$streamdir"
mkdir -p "$streamdir"
echo "==> stream smoke (sliding-window vs batch byte-identity)"
cargo run --release -q -p pfcim --example traffic_monitoring -- --jsonl \
    | cargo run --release -q -p pfcim --bin pfcim -- stream - \
        --window 150 --min-sup 6 --pfct 0.9 --dump-final "$streamdir/final.dat" \
        >"$streamdir/stream.out" 2>"$streamdir/stream.err"
run test -s "$streamdir/final.dat"
cargo run --release -q -p pfcim --bin pfcim -- "$streamdir/final.dat" \
    --min-sup 6 --pfct 0.9 >"$streamdir/batch.out" 2>/dev/null
run diff "$streamdir/stream.out" "$streamdir/batch.out"
run grep -q 'patterns live after' "$streamdir/stream.err"

echo "ci: all checks passed"
