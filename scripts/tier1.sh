#!/usr/bin/env bash
# Tier-1 verification: full build + test suite, then the ThreadPool and
# parallel-determinism tests again under ThreadSanitizer (a clean TSan run
# is part of the parallel pipeline/crawler's acceptance bar — see
# docs/parallelism.md).
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j"$(nproc)"
# The ctest includes the paper report: every paper row's predicate, the
# committed PAPER_RESULTS.json reproduced byte for byte, and the docs'
# measured values checked against it.
ctest --test-dir build --output-on-failure -j"$(nproc)"

# End-to-end benchmark smokes (bench/e2e/README.md): each workload runs at
# smoke size with its checks armed — Leaf Set and digest equality on the
# study workloads; parsed, signature-checked OCSP answers and "never good
# after a visible revocation" on the serve workloads. A library change that
# breaks one of those checks fails here, not first in a benchmark run.
cmake -S bench/e2e -B build/e2e -DCMAKE_BUILD_TYPE=Release
cmake --build build/e2e -j4 --target rev_bench
ctest --test-dir build/e2e --output-on-failure

# TSan pass in a separate build tree: races in util::ThreadPool's range
# claiming, the parallel Pipeline::Finalize() (corpus_test's equivalence
# suite and its Leaf Set cases at 1, 4 and 8 threads), and the parallel
# RevocationCrawler::CrawlAll (including the CachingClient / SimNet
# synchronization) surface here.
cmake -B build-tsan -S . -DREV_SANITIZE_THREAD=ON
cmake --build build-tsan -j"$(nproc)" --target util_test core_test corpus_test
./build-tsan/tests/util_test --gtest_filter='ThreadPool.*'
./build-tsan/tests/core_test --gtest_filter='Parallelism.*'
./build-tsan/tests/corpus_test

# Fixed-seed chaos smoke: the seeded fault storm must stay bit-reproducible
# across thread counts (docs/fault-injection.md). The seed is pinned so a
# failure here is replayable verbatim.
REV_CHAOS_SEED=0xC0FFEE ./build/tests/chaos_test \
  --gtest_filter='ChaosStorm.*:ChaosSoak.*'

# Cascade distribution smoke: a scaled-down publisher + fleet run under a
# FaultPlan storm (docs/distribution.md). Exits non-zero if any client
# ever gets a wrong revocation answer, so exactness-under-storm is part of
# the tier-1 bar; the small knobs keep it a smoke, not a bench.
smoke_dir=$(mktemp -d)
( cd "$smoke_dir" &&
  REV_SCALE=0.001 REV_CASCADE_CLIENTS=1500 REV_CASCADE_DAYS=6 \
    "$OLDPWD"/build/bench/bench_cascade > bench_cascade.out )
grep -q "exactness under storm: OK" "$smoke_dir"/bench_cascade.out || {
  echo "bench_cascade smoke failed exactness-under-storm" >&2; exit 1; }
grep -q '"wrong_answers": 0' "$smoke_dir"/BENCH_cascade.json || {
  echo "BENCH_cascade.json records wrong answers" >&2; exit 1; }
rm -rf "$smoke_dir"

# Fig. 11 exactness gate: the three-way comparison's cascade row must
# answer its whole build universe with 0 false positives and 0 false
# negatives (docs/distribution.md); the bench exits non-zero otherwise. The
# empty filter skips its google-benchmark microbenches.
fig11_dir=$(mktemp -d)
( cd "$fig11_dir" &&
  "$OLDPWD"/build/bench/bench_fig11_bloom_tradeoff --benchmark_filter='^$' \
    > bench_fig11.out ) || {
  echo "bench_fig11_bloom_tradeoff: cascade not exact over its universe" >&2
  exit 1; }
rm -rf "$fig11_dir"

# Paper-scale corpus smoke: bench_paper_scale at a reduced certificate
# count, with the throughput floor and peak-RSS ceiling gates armed
# (docs/corpus.md). The floor catches an accidental return to node-per-cert
# storage or per-cert re-parsing on the ingest path; the ceiling catches a
# memory regression in the arena/column layout. The bench exits non-zero on
# a gate violation.
paper_dir=$(mktemp -d)
( cd "$paper_dir" &&
  REV_PAPER_CERTS=200000 REV_PAPER_SCANS=4 REV_PAPER_FLOOR=15000 \
    REV_PAPER_RSS_MB=600 "$OLDPWD"/build/bench/bench_paper_scale \
    > bench_paper_scale.out ) || {
  echo "bench_paper_scale smoke failed its certs/sec or RSS gates" >&2
  exit 1; }
grep -q "gates OK" "$paper_dir"/bench_paper_scale.out || {
  echo "bench_paper_scale did not report its gates" >&2; exit 1; }
grep -q '"ingest_certs_per_sec"' "$paper_dir"/BENCH_paper_scale.json || {
  echo "BENCH_paper_scale.json is missing the throughput field" >&2; exit 1; }
grep -q '"peak_rss_mb"' "$paper_dir"/BENCH_paper_scale.json || {
  echo "BENCH_paper_scale.json is missing the peak-RSS field" >&2; exit 1; }
grep -q '"slo": {' "$paper_dir"/BENCH_paper_scale.json || {
  echo "BENCH_paper_scale.json is missing the slo block" >&2; exit 1; }
rm -rf "$paper_dir"

# Fixed-seed fleet-failover smoke: the replicated serving layer's client
# failover, hedging, and storm soak at the pinned chaos seed — zero wrong
# answers and bit-identity across thread counts (docs/fleet.md).
REV_CHAOS_SEED=0xC0FFEE ./build/tests/fleet_test \
  --gtest_filter='FleetClient.*:FleetSoak.*'

# Fixed-seed stitched-trace smoke: a small fleet soak exports its spans
# (REV_TRACE), and trace2txt must stitch them into cross-node causal trees
# with a critical-path column (docs/observability.md). The seed is pinned,
# so the trace ids — and the trees — are replayable verbatim. The span
# greps match indented tree rows only, never the flat profile above them.
trace_dir=$(mktemp -d)
( cd "$trace_dir" &&
  REV_FLEET_CERTS=400 REV_FLEET_CLIENTS=2 REV_FLEET_TICKS=8 \
    REV_FLEET_QPT=4 REV_FLEET_FACTORS=3 REV_CHAOS_SEED=0xCAFEBABE \
    REV_TRACE="$trace_dir"/dist_trace.json \
    "$OLDPWD"/build/bench/bench_fleet > bench_fleet.out )
test -s "$trace_dir"/dist_trace.json || {
  echo "bench_fleet did not export REV_TRACE spans" >&2; exit 1; }
./build/tools/trace2txt "$trace_dir"/dist_trace.json > "$trace_dir"/trees.txt
grep -q "critical path" "$trace_dir"/trees.txt || {
  echo "trace2txt did not render a critical path" >&2; exit 1; }
grep -Eq "^ +fleet\.query " "$trace_dir"/trees.txt || {
  echo "stitched trees are missing the client root span" >&2; exit 1; }
grep -Eq "^ +serve\.request " "$trace_dir"/trees.txt || {
  echo "stitched trees never crossed onto a replica node" >&2; exit 1; }
rm -rf "$trace_dir"

echo "tier-1 OK (unit suites + paper report gates + e2e smokes + TSan determinism + chaos smoke + cascade smoke + Fig. 11 exactness gate + paper-scale corpus smoke + fleet failover smoke + stitched-trace smoke)"
