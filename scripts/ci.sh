#!/usr/bin/env bash
# CI entry point: tier-1 in CMakeLists.txt's default RelWithDebInfo build
# (-O2 -g, warnings are errors; full build + every ctest suite, the paper
# report's row gates and its committed PAPER_RESULTS.json among them), a
# compile-only -O3 Release build of every target (warnings are errors),
# then a ThreadSanitizer pass over the concurrency-sensitive targets —
# the thread pool, the parallel pipeline/crawler, the serving frontend,
# and the metrics/trace instruments (tests + a small bench_serve load) —
# then the full ctest under ASan+UBSan, then an observability smoke: bench_serve must answer GET /metrics and
# land the registry snapshot in BENCH_serve.json, plus a QPS-regression
# smoke of its sweep peak against a fixed floor. Fails on any
# ctest regression, -O3 warning, TSan or ASan/UBSan report, or QPS
# collapse.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: RelWithDebInfo build (-O2 -g, warnings are errors) + full test suite =="
# -Werror: gtest and google-benchmark are system packages, so it reaches
# repo code alone, and a new warning fails CI instead of scrolling by. The
# tests run in this build, not an -O3 one, so their asserts stay on.
cmake -B build -S . -DCMAKE_CXX_FLAGS=-Werror
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)"

echo "== -O3 Release build of every target (compile only, warnings are errors) =="
# bench/e2e builds src/ at -O3, where GCC 12 inlines more of libstdc++ and
# warns differently (e.g. -Wstringop-overread on a vector<uint8_t> compare,
# which is why byte-keyed sorts and maps use util::BytesLess, and -Wrestrict
# on `"x" + s`, which is why such strings are appended). Building every
# library, test, bench, example and tool here with -Werror keeps the -O3
# build warning-free, not just the part of it bench/e2e compiles.
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-Werror
cmake --build build-release -j"$(nproc)"

echo "== TSan: thread pool, parallel pipeline, serving frontend, obs, chaos =="
cmake -B build-tsan -S . -DREV_SANITIZE_THREAD=ON
cmake --build build-tsan -j"$(nproc)" --target util_test core_test corpus_test serve_test obs_test chaos_test cascade_test fleet_test bench_serve bench_fleet
./build-tsan/tests/util_test --gtest_filter='ThreadPool.*'
./build-tsan/tests/core_test --gtest_filter='Parallelism.*'
# The corpus equivalence suite under TSan: the columnar store must match
# the serial map-based reference byte for byte at 1 and 8 threads, with no
# races in the batched Finalize() verification (docs/corpus.md).
./build-tsan/tests/corpus_test
# Full serve suite under TSan: includes the Serve equivalence tests (1 vs
# 8 threads, concurrent same-key misses and staples coalescing under the
# shard's miss lock) and the attach-latch regression test, the two raciest
# parts of the serving core.
./build-tsan/tests/serve_test
# The whole obs suite runs under TSan: sharded counters, the lock-free
# histogram, the span collector with 8 ParallelFor workers nesting local
# spans, and the 8-thread exposition stress.
./build-tsan/tests/obs_test
# The chaos suite under TSan: fault injection + retries drive the 8-thread
# crawler through the shared FaultPlan tallies, the caching client, and the
# stale-serve merge — the raciest paths in the fetch stack.
./build-tsan/tests/chaos_test
# The cascade suite under TSan: the ThreadPool-parallel cascade build
# (bit-identical at 1 vs 8 threads) plus the publisher/fleet storm, whose
# polls cross the SimNet mutex and the shared FaultPlan tallies.
./build-tsan/tests/cascade_test
# The fleet suite under TSan: replication pushes, health probes, and the
# soak's threaded clients all cross the SimNet mutex, the ring's enable
# atomics, and the replicas' import locks concurrently.
./build-tsan/tests/fleet_test
# Small fleet soak under TSan: 4 threads of clients against 3 replicas
# through the full storm (outage + latency + shed + corruption), gates on
# (strict mode: zero wrong answers, availability, p99, determinism).
fleet_tsan_dir=$(mktemp -d)
( cd "$fleet_tsan_dir" &&
  REV_FLEET_CERTS=500 REV_FLEET_CLIENTS=4 REV_FLEET_TICKS=12 \
    REV_FLEET_QPT=6 REV_FLEET_FACTORS=2,3 REV_THREADS=4 \
    "$OLDPWD"/build-tsan/bench/bench_fleet > /dev/null ) || {
      echo "bench_fleet soak under TSan failed" >&2; exit 1; }
rm -rf "$fleet_tsan_dir"
# Small closed-loop load under TSan: races between concurrent Serve(),
# observer-driven invalidation, batch refresh, and the lock-free latency
# histogram surface here. Run in a temp dir so the BENCH_serve.json it
# writes never lands on the committed one.
serve_tsan_dir=$(mktemp -d)
( cd "$serve_tsan_dir" &&
  REV_SERVE_CERTS=2000 REV_SERVE_OPS=2000 REV_SERVE_THREADS=4 \
    REV_SERVE_FLOOR=0 "$OLDPWD"/build-tsan/bench/bench_serve > /dev/null ) || {
      echo "bench_serve under TSan failed" >&2; exit 1; }
rm -rf "$serve_tsan_dir"

echo "== ASan+UBSan: full test suite =="
# Every parser and wire format must fail closed without an over-read, and
# the corpus's word-wise DER hashing (util::HashBytes) loads tails with a
# bounded memcpy: the whole ctest runs under AddressSanitizer and
# UndefinedBehaviorSanitizer (any report fails its suite).
cmake -B build-asan -S . -DREV_SANITIZE_ADDRESS=ON
cmake --build build-asan -j"$(nproc)"
ctest --test-dir build-asan --output-on-failure -j"$(nproc)"

echo "== observability smoke: /metrics endpoint + BENCH json metrics block =="
smoke_dir=$(mktemp -d)
( cd "$smoke_dir" &&
  REV_SERVE_CERTS=2000 REV_SERVE_OPS=2000 REV_SERVE_THREADS=2 \
    REV_SERVE_FLOOR=0 "$OLDPWD"/build/bench/bench_serve > bench_serve.out )
grep -q "metrics endpoint: ok" "$smoke_dir"/bench_serve.out || {
  echo "bench_serve did not serve GET /metrics" >&2; exit 1; }
grep -q '"metrics": {"counters":' "$smoke_dir"/BENCH_serve.json || {
  echo "BENCH_serve.json is missing the metrics block" >&2; exit 1; }
grep -q '"serve.latency_ns{frontend=' "$smoke_dir"/BENCH_serve.json || {
  echo "BENCH_serve.json is missing the latency histogram" >&2; exit 1; }

echo "== QPS regression smoke: sweep peak vs the instrumented-baseline floor =="
# The smoke run above is deliberately small (2k certs, 2k ops), so compare
# its per-request sweep peak against a fixed floor — a catastrophic
# regression (accidental serialization, a lock back on the hot path) lands
# well below it even at smoke scale, while run-to-run noise never does.
# 47000 QPS: the sweep peak measured when latency accounting was still a
# mutex-guarded accumulator that serialized the hot path.
python3 - "$smoke_dir"/BENCH_serve.json 47000 <<'PY'
import json, sys
smoke = json.load(open(sys.argv[1]))["results"]
floor = float(sys.argv[2])
peak = max(point["qps"] for point in smoke["sweep"])
if peak < floor:
    sys.exit(f"sweep peak {peak:.0f} QPS regressed below the instrumented "
             f"baseline floor {floor:.0f} QPS")
print(f"sweep peak {peak:.0f} QPS >= floor {floor:.0f} QPS: ok")
PY
rm -rf "$smoke_dir"

echo "== fleet smoke: BENCH_fleet.json baseline + zero wrong answers =="
# The committed baseline must exist and must record a clean sweep, and a
# fresh small strict run must reproduce it: zero wrong revocation answers
# under the storm is part of the CI bar, like the cascade channel's
# exactness gate.
test -f BENCH_fleet.json || {
  echo "BENCH_fleet.json baseline is missing" >&2; exit 1; }
grep -q '"total_wrong_answers": 0' BENCH_fleet.json || {
  echo "committed BENCH_fleet.json records wrong answers" >&2; exit 1; }
fleet_dir=$(mktemp -d)
( cd "$fleet_dir" &&
  REV_FLEET_CERTS=500 REV_FLEET_CLIENTS=4 REV_FLEET_TICKS=12 \
    REV_FLEET_QPT=6 REV_FLEET_FACTORS=2,3 \
    "$OLDPWD"/build/bench/bench_fleet > bench_fleet.out )
grep -q "OK bench_fleet overall" "$fleet_dir"/bench_fleet.out || {
  echo "bench_fleet smoke failed its gates" >&2; exit 1; }
grep -q '"total_wrong_answers": 0' "$fleet_dir"/BENCH_fleet.json || {
  echo "fleet smoke produced wrong revocation answers" >&2; exit 1; }
# The SLO burn-rate engine is part of the CI bar: the smoke's BENCH json
# must carry a non-empty alert timeline whose alerts all land in the storm
# phase — a clean-phase alert is a false page and fails CI outright.
grep -q '"slo": {' "$fleet_dir"/BENCH_fleet.json || {
  echo "BENCH_fleet.json is missing the slo block" >&2; exit 1; }
grep -q '"clean_phase_alerts": 0' "$fleet_dir"/BENCH_fleet.json || {
  echo "fleet smoke paged during the clean phase (false positive)" >&2
  exit 1; }
python3 - "$fleet_dir"/BENCH_fleet.json <<'PY'
import json, sys
slo = json.load(open(sys.argv[1]))["results"]["slo"]
if slo["alerts"] <= 0:
    sys.exit("fleet smoke fired no SLO alerts under the storm")
print(f"slo: {slo['alerts']} alerts, all in the storm phase: ok")
PY
rm -rf "$fleet_dir"

echo "ci OK (tier-1 + paper report gates + -O3 build of every target + TSan + ASan/UBSan: unit suites, obs suite, serve stress, fleet suite + soak, bench_serve load + /metrics smoke + QPS regression + fleet zero-wrong-answers + slo burn-rate gates)"
