#!/usr/bin/env sh
# Offline tier-1 verification: build, lint, document, test, run the
# examples, then smoke every harness surface against the committed
# goldens — a cold full-registry run (stdout and artifacts byte-compared
# with results/), its warm rerun, telemetry, crash -> resume, the DSE
# sweep, the model oracle, bench, the CLI's unknown-flag handling, serve,
# and the three seeded campaigns. No network access required; the
# workspace has no external dependencies.
set -eu

cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --workspace --release

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (deny warnings: broken intra-doc links fail) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo test =="
cargo test --workspace -q

echo "== examples (each README example runs to exit 0) =="
for example in quickstart alexnet_layer greedy_balancing compare_architectures balance_trace; do
  cargo run -q --release -p sparten --example "$example" > /dev/null
done

HARNESS_BIN="$PWD/target/release/sparten-harness"
SMOKE="$(mktemp -d)"
trap 'rm -rf "$SMOKE"' EXIT

echo "== full registry, cold (2 jobs): byte-identical to results/ =="
# Every job runs from an empty cache in a scratch tree. Its stdout,
# minus the run summary, must equal the committed results/<job>.txt in
# `harness list` order, and every artifact it writes must equal the
# committed results/*.json.
mkdir -p "$SMOKE/tree"
( cd "$SMOKE/tree" && "$HARNESS_BIN" run --jobs 2 > "$SMOKE/cold.out" )
"$HARNESS_BIN" list | tail -n +2 | while read -r job _; do
  cat "results/$job.txt"
done > "$SMOKE/expected.out"
sed '/^== Run summary ==$/,$d' "$SMOKE/cold.out" | diff "$SMOKE/expected.out" -
for f in results/*.json; do cmp "$f" "$SMOKE/tree/$f"; done
test "$(ls "$SMOKE"/tree/results/*.json | wc -l)" -eq "$(ls results/*.json | wc -l)"
# The run wrote a structured event log that the reader parses end-to-end
# (the events subcommand exits non-zero on any malformed JSONL line).
test -n "$(find "$SMOKE/tree/results/events" -name '*.jsonl')"
( cd "$SMOKE/tree" && "$HARNESS_BIN" events ) | grep -q '"kind":"run.done"'

echo "== full registry, warm (2 jobs): every point a cache hit =="
( cd "$SMOKE/tree" && "$HARNESS_BIN" run --jobs 2 --no-artifacts > "$SMOKE/warm.out" )
grep -q "cache hits (100%)" "$SMOKE/warm.out"
sed '/^== Run summary ==$/,$d' "$SMOKE/warm.out" | diff "$SMOKE/expected.out" -

echo "== harness telemetry smoke (Chrome trace + report) =="
( cd "$SMOKE/tree" && "$HARNESS_BIN" run --filter fig10_alexnet --jobs 2 \
    --no-artifacts --telemetry-dir "$SMOKE/tel" > /dev/null )
test -s "$SMOKE/tel/fig10_alexnet_breakdown.json"
# Telemetry is deterministic: a second run into a fresh directory exports
# the same files, byte for byte apart from the one wall-clock gauge.
( cd "$SMOKE/tree" && "$HARNESS_BIN" run --filter fig10_alexnet --jobs 2 \
    --no-artifacts --telemetry-dir "$SMOKE/tel2" > /dev/null )
test "$(ls "$SMOKE/tel2" | wc -l)" -eq "$(ls "$SMOKE/tel" | wc -l)"
for f in "$SMOKE"/tel/*; do
  grep -v 'harness/wall_seconds' "$f" > "$SMOKE/tel.first"
  grep -v 'harness/wall_seconds' "$SMOKE/tel2/$(basename "$f")" > "$SMOKE/tel.second"
  diff "$SMOKE/tel.first" "$SMOKE/tel.second"
done
"$HARNESS_BIN" report --telemetry-dir "$SMOKE/tel"
# The machine-readable form carries the same jobs plus p50/p95/p99.
"$HARNESS_BIN" report --telemetry-dir "$SMOKE/tel" --json | grep -q '"histograms"'

echo "== interrupted-run smoke (crash -> resume -> byte-identical, fsck clean) =="
mkdir -p "$SMOKE/crash/interrupted" "$SMOKE/crash/clean"
# Crash at the worst legal instant (point journaled, not yet cached):
# the run must exit non-zero and leave a dangling journal behind.
( cd "$SMOKE/crash/interrupted" && \
  ! "$HARNESS_BIN" run --filter fig7_alexnet_speedup --jobs 2 \
      --abort-after 2 >/dev/null 2>&1 )
# fsck sees the crashed tree as defective (the resumable journal).
( cd "$SMOKE/crash/interrupted" && ! "$HARNESS_BIN" fsck >/dev/null )
# Resume replays the two journaled points and finishes the run.
( cd "$SMOKE/crash/interrupted" && \
  "$HARNESS_BIN" run --filter fig7_alexnet_speedup --jobs 2 --resume \
    > resume.out )
grep -q "resumed: 2 completed point(s)" "$SMOKE/crash/interrupted/resume.out"
# The recovered artifacts are byte-identical to an uninterrupted run's.
( cd "$SMOKE/crash/clean" && \
  "$HARNESS_BIN" run --filter fig7_alexnet_speedup --jobs 2 >/dev/null )
# Event logs are diagnostics, not results: per-run timings differ.
diff -r -x cache -x journal -x events \
  "$SMOKE/crash/interrupted/results" "$SMOKE/crash/clean/results"
# Both trees audit clean afterwards.
( cd "$SMOKE/crash/interrupted" && "$HARNESS_BIN" fsck >/dev/null )
( cd "$SMOKE/crash/clean" && "$HARNESS_BIN" fsck >/dev/null )

echo "== dse smoke (quick sweep: golden, determinism, frontier, crash -> resume) =="
mkdir -p "$SMOKE/dse/a" "$SMOKE/dse/b" "$SMOKE/dse/crash"
# Two cold sweeps of the 16,200-config quick grid must agree byte for
# byte, with each other and with the committed results/dse/ goldens.
( cd "$SMOKE/dse/a" && "$HARNESS_BIN" dse --quick --jobs 2 >/dev/null )
( cd "$SMOKE/dse/b" && "$HARNESS_BIN" dse --quick --jobs 2 >/dev/null )
for f in dse-quick_frontier.json dse-quick_points.json; do
  diff "$SMOKE/dse/a/results/dse/$f" "$SMOKE/dse/b/results/dse/$f"
  diff "results/dse/$f" "$SMOKE/dse/a/results/dse/$f"
done
# The Pareto frontier is non-empty and carries both objectives.
grep -q '"throughput_macs_per_cycle"' "$SMOKE/dse/a/results/dse/dse-quick_frontier.json"
grep -q '"energy_per_mac_pj"' "$SMOKE/dse/a/results/dse/dse-quick_frontier.json"
# Kill the sweep after 10 computed batches, resume it, and demand the
# recovered artifacts match an uninterrupted run's exactly.
( cd "$SMOKE/dse/crash" && \
  ! "$HARNESS_BIN" dse --quick --jobs 2 --abort-after 10 >/dev/null 2>&1 )
( cd "$SMOKE/dse/crash" && \
  "$HARNESS_BIN" dse --quick --jobs 2 --resume > resume.out )
grep -q "resumed: 10 completed point(s)" "$SMOKE/dse/crash/resume.out"
diff -r -x cache -x journal -x events \
  "$SMOKE/dse/crash/results" "$SMOKE/dse/a/results"

echo "== analytical-model oracle (release: full golden catalog) =="
cargo test -q --release -p sparten-model

echo "== simulator sweeps (release: exhaustive case counts) =="
# The sim crate's seeded sweeps at their full size: 60 layers of the
# cross-simulator accounting identity, 40 of one pass vs one scheme at a
# time, 240 of the batched SparTen pass vs its per-position reference
# loop (every run's result, traced telemetry, slow and stuck units; about
# 0.8 s), 60 of every buffer depth vs the stand-alone reference loop, 240
# of SCNN's factored timing vs its step loop, and 48 layer shapes (a
# varied and an all-tie filter set each) of GB-H's count key vs the
# density sort.
cargo test -q --release -p sparten-sim --features exhaustive-tests

echo "== DSE batch records vs the per-config reference (release: every full-grid batch) =="
# The dse smoke above diffs only the quick grid. This compares the
# run-factored batch_record with a direct evaluation of every
# configuration, byte for byte, on all 2110 full-grid batches (~2 s).
cargo test -q --release -p sparten-model --features exhaustive-tests \
  --test dse_reference full_grid_matches_per_config_reference

echo "== bench smoke (quick registry, pinned schema, kernel speedups) =="
# Write to a scratch path so the smoke never clobbers the committed
# BENCH_sim.json baseline; --check-schema parses the artifact back.
"$HARNESS_BIN" bench --quick --check-schema --out "$SMOKE/BENCH_sim.json"
test -s "$SMOKE/BENCH_sim.json"

echo "== unknown-flag handling (exit 2 + subcommand usage) =="
# A bad flag after a valid subcommand must name the flag, print that
# subcommand's usage, and exit 2 (not 1, which is reserved for bad values).
set +e
"$HARNESS_BIN" run --no-such-flag > "$SMOKE/badflag.out" 2>&1
BADFLAG_STATUS=$?
set -e
test "$BADFLAG_STATUS" -eq 2
grep -q -- "--no-such-flag" "$SMOKE/badflag.out"
grep -q "sparten-harness run" "$SMOKE/badflag.out"

echo "== serve smoke (ephemeral port, streamed run, metrics, SIGTERM drain) =="
SERVE="$SMOKE/serve"
mkdir -p "$SERVE"
"$HARNESS_BIN" serve --addr 127.0.0.1:0 \
  --port-file "$SERVE/port" --jobs 2 \
  --cache-dir "$SERVE/cache" --journal-dir "$SERVE/journal" \
  --events-dir "$SERVE/events" \
  --no-artifacts > "$SERVE/serve.out" 2>&1 &
SERVE_PID=$!
# The daemon writes its bound address atomically once the socket is live.
for _ in $(seq 1 100); do
  test -s "$SERVE/port" && break
  sleep 0.1
done
test -s "$SERVE/port"
SERVE_ADDR="$(cat "$SERVE/port")"
curl -sf "http://$SERVE_ADDR/healthz" | grep -q ok
# A submitted job streams NDJSON progress and ends with a done event.
curl -sf -X POST "http://$SERVE_ADDR/run?job=table1_design_goals" \
  | tee "$SERVE/run.ndjson" | grep -q '"event":"done"'
grep -q '"status":"ok"' "$SERVE/run.ndjson"
# A repeat of the same job is answered from the cache, off the executor.
curl -sf -X POST "http://$SERVE_ADDR/run?job=table1_design_goals" \
  | grep -q '"role":"cache"'
# Default /metrics stays the line-oriented text report.
curl -sf "http://$SERVE_ADDR/metrics" | grep -q "serve/exec.runs"
# Content negotiation: the Prometheus exposition is well-formed (promlint
# re-validates TYPE lines, sample syntax, and bucket monotonicity) and
# carries the build-info series.
curl -sf -H 'Accept: text/plain; version=0.0.4' "http://$SERVE_ADDR/metrics" \
  > "$SERVE/metrics.prom"
grep -q '^# TYPE ' "$SERVE/metrics.prom"
grep -q 'sparten_build_info{' "$SERVE/metrics.prom"
"$HARNESS_BIN" promlint --file "$SERVE/metrics.prom"
# The trace export is one Chrome trace of every request's causal chain.
curl -sf "http://$SERVE_ADDR/trace" | grep -q '"traceEvents"'
# The accepted event named the request's trace id; remember it for the
# post-drain event-log check.
TRACE_HEX="$(grep -o '"trace":"[0-9a-f]*"' "$SERVE/run.ndjson" | head -1 | cut -d'"' -f4)"
test -n "$TRACE_HEX"
# SIGTERM drains: in-flight work finishes and the exit code is 75.
kill -TERM "$SERVE_PID"
set +e
wait "$SERVE_PID"
SERVE_STATUS=$?
set -e
test "$SERVE_STATUS" -eq 75
grep -q "drained" "$SERVE/serve.out"
# The drain seals every journal: no dangling .jsonl survives.
test -z "$(find "$SERVE/journal" -name '*.jsonl' 2>/dev/null)"
# The drain flushed the buffered event log, every line parses, and the
# executed run's events carry the trace id the client saw.
test -n "$(find "$SERVE/events" -name '*.jsonl')"
"$HARNESS_BIN" events --events-dir "$SERVE/events" > "$SERVE/events.out"
test -s "$SERVE/events.out"
"$HARNESS_BIN" events --events-dir "$SERVE/events" --trace "$TRACE_HEX" \
  | grep -q "\"trace\":\"$TRACE_HEX\""

echo "== fault-campaign smoke (seeded, zero silently-wrong) =="
# The faults command exits non-zero on any silently-wrong or crashed
# trial; grep the coverage footer as a belt-and-braces assertion.
"$HARNESS_BIN" faults --seed 1 --quick \
  | tee /dev/stderr | grep -q "0 silently-wrong, 0 crashed"

echo "== chaos-campaign smoke (hostile sockets, zero invariant violations) =="
# One seeded trial per adversary class (torn body, slow-loris,
# mid-stream disconnect, deadline storm, queue flood) against a real
# server; exits non-zero on any leaked permit, unsealed journal, stuck
# session, or hung thread.
"$HARNESS_BIN" chaos --seed 1 --quick \
  | tee /dev/stderr | grep -q "0 violated, 0 crashed"

echo "== disk-fault smoke (power-cut oracle, zero recovery violations) =="
# One seeded trial per filesystem lie (ENOSPC, short write, fsync
# failure, rename failure, bit rot): run on a fault-injecting VFS, cut
# the power at a seeded op-log prefix, recover with resume + fsck
# --repair, and byte-compare against a clean run. Exits non-zero on any
# recovery violation; the counters line proves faults were injected.
DISKCHAOS_OUT="$("$HARNESS_BIN" diskchaos --seed 1 --quick)"
echo "$DISKCHAOS_OUT" | grep -q "0 violated, 0 crashed"
echo "$DISKCHAOS_OUT" | grep -q "disk.injected="
echo "$DISKCHAOS_OUT" | grep -q "disk.enospc="
echo "$DISKCHAOS_OUT" | grep -q "recovery.repaired="
echo "$DISKCHAOS_OUT"

echo "verify: OK"
