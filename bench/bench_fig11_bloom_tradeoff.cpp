// Fig. 11: the Bloom-filter alternative to CRLSets — false-positive rate vs
// number of revocations for filter sizes 256 KB – 16 MB, validated against
// a real filter, plus the Golomb Compressed Set refinement and the
// CRLite-style filter cascade (src/cascade) at equal coverage.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "cascade/cascade.h"
#include "crlset/bloom.h"
#include "crlset/gcs.h"

using namespace rev;

namespace {

// Microbenchmarks for the filter hot paths (run with --benchmark_filter).
void BM_BloomInsert(benchmark::State& state) {
  crlset::BloomFilter filter(256 * 1024 * 8, 7);
  Bytes key(48, 0x42);
  std::uint64_t i = 0;
  for (auto _ : state) {
    key[0] = static_cast<std::uint8_t>(i++);
    filter.Insert(key);
  }
}
BENCHMARK(BM_BloomInsert);

void BM_BloomQuery(benchmark::State& state) {
  crlset::BloomFilter filter(256 * 1024 * 8, 7);
  Bytes key(48, 0x42);
  for (int i = 0; i < 10'000; ++i) {
    key[1] = static_cast<std::uint8_t>(i);
    filter.Insert(key);
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    key[0] = static_cast<std::uint8_t>(i++);
    benchmark::DoNotOptimize(filter.MayContain(key));
  }
}
BENCHMARK(BM_BloomQuery);

}  // namespace

int main(int argc, char** argv) {
  bench::BenchRun run("fig11_bloom_tradeoff");
  bench::PrintHeader(
      "Fig. 11 — Bloom filter capacity/false-positive trade-off vs CRLSet",
      "a 256 KB filter holds an order of magnitude more revocations than "
      "the ~16-25k-entry CRLSet at 1% FPR; 2 MB covers 1.7M revocations "
      "(15% of all CRL entries)");

  // Analytic curves: p = (1 - e^{-kn/m})^k with the filter's own k rule
  // per point.
  const struct {
    const char* label;
    std::size_t bytes;
  } kSizes[] = {{"256KB", 256 * 1024},
                {"512KB", 512 * 1024},
                {"1MB", 1024 * 1024},
                {"2MB", 2 * 1024 * 1024},
                {"16MB", 16 * 1024 * 1024}};

  core::TextTable table({"revocations n", "m=256KB", "m=512KB", "m=1MB",
                         "m=2MB", "m=16MB"});
  for (std::size_t n : {10'000u, 30'000u, 100'000u, 218'000u, 300'000u,
                        1'000'000u, 1'700'000u, 3'000'000u, 10'000'000u}) {
    std::vector<std::string> row = {std::to_string(n)};
    for (const auto& size : kSizes) {
      const std::size_t m_bits = size.bytes * 8;
      const double p = crlset::BloomFilter::ExpectedFpr(
          m_bits, crlset::BloomFilter::OptimalHashCount(m_bits, n), n);
      row.push_back(core::FormatDouble(p, 6));
    }
    table.AddRow(std::move(row));
  }
  std::printf("%s\n", table.Render().c_str());

  // Validate the analytic point the paper highlights: 256 KB, ~1% FPR.
  const std::size_t capacity = 218'000;
  crlset::BloomFilter filter = crlset::BloomFilter::ForCapacity(capacity, 0.01);
  util::Rng rng(11);
  for (std::size_t i = 0; i < capacity; ++i) {
    Bytes key(40);
    rng.Fill(key.data(), key.size());
    filter.Insert(key);
  }
  std::printf("validation: filter of %s holds %zu revocations, measured FPR "
              "%.3f%% (target 1%%)\n",
              util::HumanBytes(static_cast<double>(filter.SizeBytes())).c_str(),
              capacity, 100 * filter.MeasureFpr(200'000, 77));
  std::printf("  -> %.0fx the CRLSet's ~24.9k peak entries at the same "
              "250 KB budget (paper: an order of magnitude)\n",
              static_cast<double>(capacity) / 24'904.0);

  // Golomb Compressed Set comparison (§7.4's closing suggestion).
  std::vector<Bytes> keys;
  keys.reserve(50'000);
  for (int i = 0; i < 50'000; ++i) {
    Bytes key(40);
    rng.Fill(key.data(), key.size());
    keys.push_back(std::move(key));
  }
  const crlset::GolombCompressedSet gcs = crlset::GolombCompressedSet::Build(keys, 7);
  crlset::BloomFilter same_fpr = crlset::BloomFilter::ForCapacity(keys.size(), 1.0 / 128);
  for (const Bytes& key : keys) same_fpr.Insert(key);
  std::printf("\nGolomb Compressed Set over %zu keys @ FPR 2^-7: %s vs Bloom "
              "%s (%.0f%% smaller; Langley's suggested refinement)\n\n",
              keys.size(),
              util::HumanBytes(static_cast<double>(gcs.SizeBytes())).c_str(),
              util::HumanBytes(static_cast<double>(same_fpr.SizeBytes())).c_str(),
              100.0 * (1.0 - static_cast<double>(gcs.SizeBytes()) /
                                 static_cast<double>(same_fpr.SizeBytes())));

  // Three-way comparison at equal coverage: the same revoked population
  // encoded as a plain Bloom filter, a GCS (both probabilistic — a
  // residual FPR survives no matter the budget), and a filter cascade,
  // which spends a little more than level 0 alone to be EXACT against the
  // known-certificate universe it was built from.
  const std::size_t num_revoked = 20'000;
  const std::size_t num_ok = 230'000;
  std::vector<Bytes> revoked, ok;
  revoked.reserve(num_revoked);
  ok.reserve(num_ok);
  for (std::size_t i = 0; i < num_revoked + num_ok; ++i) {
    Bytes key(32);
    rng.Fill(key.data(), key.size());
    (i < num_revoked ? revoked : ok).push_back(std::move(key));
  }

  crlset::BloomFilter bloom =
      crlset::BloomFilter::ForCapacity(num_revoked, 1.0 / 128);
  for (const Bytes& key : revoked) bloom.Insert(key);
  const crlset::GolombCompressedSet gcs7 =
      crlset::GolombCompressedSet::Build(revoked, 7);
  const cascade::FilterCascade casc =
      cascade::FilterCascade::Build(revoked, ok);

  std::size_t bloom_fp = 0, gcs_fp = 0, cascade_fp = 0, cascade_fn = 0;
  for (const Bytes& key : ok) {
    if (bloom.MayContain(key)) ++bloom_fp;
    if (gcs7.MayContain(key)) ++gcs_fp;
    if (casc.IsRevoked(key)) ++cascade_fp;
  }
  for (const Bytes& key : revoked)
    if (!casc.IsRevoked(key)) ++cascade_fn;

  const auto bits_per_rev = [num_revoked](std::size_t bytes) {
    return 8.0 * static_cast<double>(bytes) / static_cast<double>(num_revoked);
  };
  core::TextTable threeway(
      {"scheme", "bytes", "bits/revocation", "FP vs known universe"});
  threeway.AddRow({"Bloom @ 2^-7",
                   std::to_string(bloom.SizeBytes()),
                   core::FormatDouble(bits_per_rev(bloom.SizeBytes()), 2),
                   std::to_string(bloom_fp)});
  threeway.AddRow({"GCS @ 2^-7",
                   std::to_string(gcs7.SizeBytes()),
                   core::FormatDouble(bits_per_rev(gcs7.SizeBytes()), 2),
                   std::to_string(gcs_fp)});
  threeway.AddRow({"cascade (exact)",
                   std::to_string(casc.FilterBytes()),
                   core::FormatDouble(bits_per_rev(casc.FilterBytes()), 2),
                   std::to_string(cascade_fp)});
  std::printf("three-way at equal coverage: %zu revoked among %zu known "
              "certificates\n%s",
              num_revoked, num_revoked + num_ok, threeway.Render().c_str());
  std::printf("  cascade: %zu levels, %zu false negatives (must be 0); "
              "exactness holds only against the build universe\n\n",
              casc.NumLevels(), cascade_fn);

  char results[512];
  std::snprintf(
      results, sizeof results,
      "{\"threeway\": {\"revoked\": %zu, \"universe\": %zu, "
      "\"bloom_bytes\": %zu, \"gcs_bytes\": %zu, \"cascade_bytes\": %zu, "
      "\"bloom_fp\": %zu, \"gcs_fp\": %zu, \"cascade_fp\": %zu, "
      "\"cascade_fn\": %zu, \"cascade_levels\": %zu}}",
      num_revoked, num_revoked + num_ok, bloom.SizeBytes(), gcs7.SizeBytes(),
      casc.FilterBytes(), bloom_fp, gcs_fp, cascade_fp, cascade_fn,
      casc.NumLevels());
  run.SetResults(results);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  // The cascade's exactness against its build universe is the claim the
  // three-way row rests on: a false answer fails the run.
  if (cascade_fp != 0 || cascade_fn != 0) {
    std::printf("cascade exactness: FAILED (%zu false positives, %zu false "
                "negatives)\n", cascade_fp, cascade_fn);
    return 1;
  }
  return 0;
}
