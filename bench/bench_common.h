// Shared scaffolding for the figure/table benches: builds the calibrated
// ecosystem, runs the scan and crawl phases, and provides uniform report
// headers. Every bench accepts the REV_SCALE environment variable
// (default 0.002) to trade fidelity for runtime; structural results are
// stable across scales, absolute counts shrink linearly.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/ca_audit.h"
#include "core/crawler.h"
#include "core/crlset_audit.h"
#include "core/ecosystem.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "core/stapling_audit.h"
#include "core/timeline.h"
#include "obs/distrace.h"
#include "obs/metrics.h"
#include "scan/scanner.h"

namespace rev::bench {

inline double ScaleFromEnv() {
  const char* env = std::getenv("REV_SCALE");
  if (env != nullptr) {
    const double scale = std::atof(env);
    if (scale > 0) return scale;
  }
  return 0.002;
}

// REV_THREADS sizes the Finalize()/CrawlAll() fan-out: 0 (default) uses
// hardware concurrency, 1 forces the exact serial path (docs/parallelism.md).
inline unsigned ThreadsFromEnv() {
  const char* env = std::getenv("REV_THREADS");
  if (env != nullptr) {
    const int threads = std::atoi(env);
    if (threads > 0) return static_cast<unsigned>(threads);
  }
  return 0;
}

// A positive count from env var `name`; unset, zero, negative or
// non-numeric values give `fallback`.
inline std::size_t SizeFromEnv(const char* name, std::size_t fallback) {
  const char* env = std::getenv(name);
  if (env != nullptr) {
    const long long v = std::atoll(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return fallback;
}

// The positive entries of the comma list in env var `name`, e.g. "1,2,4,8";
// `fallback` when the variable is unset or lists no positive entry.
inline std::vector<std::size_t> ListFromEnv(const char* name,
                                            std::vector<std::size_t> fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  const std::string spec = env;
  std::vector<std::size_t> values;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const int v = std::atoi(spec.substr(pos, comma - pos).c_str());
    if (v > 0) values.push_back(static_cast<std::size_t>(v));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return values.empty() ? fallback : values;
}

inline void PrintHeader(const char* experiment, const char* paper_result) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper: %s\n", paper_result);
  std::printf("==============================================================\n\n");
}

// Uniform bench reporting (docs/observability.md): declare one BenchRun at
// the top of main and every bench emits the same BENCH_<name>.json shape —
// wall-time phases, the bench's own results payload, and a snapshot of the
// global metrics registry — and honors REV_TRACE=<file> by exporting the
// collected spans at exit. Phases are recorded by the RAII Phase below
// (World::Build opens its own), so a bench only adds phases for its
// analysis steps.
class BenchRun {
 public:
  explicit BenchRun(std::string name)
      : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {
    current_ = this;
  }

  BenchRun(const BenchRun&) = delete;
  BenchRun& operator=(const BenchRun&) = delete;

  ~BenchRun() {
    if (current_ == this) current_ = nullptr;
    WriteJson();
    obs::DistTraceCollector::Global().ExportFromEnv();
  }

  static BenchRun* Current() { return current_; }

  // Bench-specific payload, inserted verbatim as the "results" value. Must
  // already be valid JSON (object or array).
  void SetResults(std::string json) { results_ = std::move(json); }

  void RecordPhase(const char* name, double seconds) {
    phases_.emplace_back(name, seconds);
  }

  const std::string& json_path() const { return json_path_; }

  // RAII phase: wall time into the enclosing BenchRun (if any) plus an
  // obs::Span so the phase shows up in the REV_TRACE spans. `name` must
  // be a string literal.
  class Phase {
   public:
    explicit Phase(const char* name)
        : name_(name), span_(name), start_(std::chrono::steady_clock::now()) {}

    Phase(const Phase&) = delete;
    Phase& operator=(const Phase&) = delete;

    ~Phase() {
      if (BenchRun* run = BenchRun::Current()) {
        run->RecordPhase(
            name_, std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start_)
                       .count());
      }
    }

   private:
    const char* name_;
    obs::Span span_;
    std::chrono::steady_clock::time_point start_;
  };

 private:
  void WriteJson() {
    json_path_ = "BENCH_" + name_ + ".json";
    FILE* json = std::fopen(json_path_.c_str(), "w");
    if (json == nullptr) return;
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start_)
                            .count();
    std::fprintf(json, "{\n  \"bench\": \"%s\",\n", name_.c_str());
    std::fprintf(json, "  \"wall_seconds\": %.6f,\n", wall);
    std::fprintf(json, "  \"phases\": [");
    for (std::size_t i = 0; i < phases_.size(); ++i) {
      std::fprintf(json, "%s\n    {\"name\": \"%s\", \"seconds\": %.6f}",
                   i == 0 ? "" : ",", phases_[i].first,
                   phases_[i].second);
    }
    std::fprintf(json, "%s],\n", phases_.empty() ? "" : "\n  ");
    std::fprintf(json, "  \"results\": %s,\n",
                 results_.empty() ? "null" : results_.c_str());
    std::fprintf(json, "  \"metrics\": %s\n}\n",
                 obs::MetricsRegistry::Global().DumpJson().c_str());
    std::fclose(json);
    std::printf("wrote %s\n", json_path_.c_str());
  }

  inline static BenchRun* current_ = nullptr;

  std::string name_;
  std::string json_path_;
  std::chrono::steady_clock::time_point start_;
  std::vector<std::pair<const char*, double>> phases_;
  std::string results_;
};

// The full measurement world: ecosystem + weekly scans + daily CRL crawl.
struct World {
  core::EcosystemConfig config;
  std::unique_ptr<core::Ecosystem> eco;
  std::unique_ptr<core::Pipeline> pipeline;
  std::unique_ptr<core::RevocationCrawler> crawler;
  int num_scans = 0;
  int num_crawl_days = 0;

  // `crawl_step_days` > 1 trades Fig. 9/10 granularity for speed in benches
  // that only need final state.
  static World Build(double scale, int crawl_step_days = 1) {
    World world;
    world.config.scale = scale;
    {
      BenchRun::Phase phase("world.build_ecosystem");
      std::fprintf(stderr, "[world] building ecosystem at scale %.4f ...\n",
                   scale);
      world.eco = core::Ecosystem::Build(world.config);
    }
    const core::EcosystemConfig& c = world.eco->config();
    std::fprintf(stderr, "[world] %zu certs, %zu servers, %zu CAs\n",
                 world.eco->total_issued(), world.eco->internet().size(),
                 world.eco->cas().size());

    const unsigned threads = ThreadsFromEnv();
    world.pipeline =
        std::make_unique<core::Pipeline>(world.eco->roots(), threads);
    {
      BenchRun::Phase phase("world.scans");
      for (util::Timestamp t = c.study_start; t <= c.study_end;
           t += 7 * util::kSecondsPerDay) {
        // Streaming ingest: observations flow straight into the columnar
        // corpus; the snapshot is never resident.
        world.pipeline->BeginScan(t);
        scan::StreamCertScan(
            world.eco->internet(), t, [&](const scan::CertObservation& obs) {
              if (!world.pipeline->ObserveDer(obs.Der())) {
                std::fprintf(stderr, "[world] scan rejected ip %u's chain\n",
                             obs.ip);
                std::abort();
              }
            });
        world.pipeline->EndScan();
        ++world.num_scans;
      }
      world.pipeline->Finalize();
      std::fprintf(stderr,
                   "[world] %d scans -> Leaf Set %zu (finalize %.3fs: "
                   "intermediates %.3fs + verify %.3fs)\n",
                   world.num_scans, world.pipeline->LeafSet().size(),
                   world.pipeline->finalize_wall_seconds(),
                   world.pipeline->intermediate_wall_seconds(),
                   world.pipeline->verify_wall_seconds());
    }

    world.crawler =
        std::make_unique<core::RevocationCrawler>(&world.eco->net(), threads);
    {
      BenchRun::Phase phase("world.crawl");
      world.crawler->CollectUrls(*world.pipeline);
      for (util::Timestamp t = c.crawl_start; t <= c.study_end;
           t += crawl_step_days * util::kSecondsPerDay) {
        world.crawler->CrawlAll(t);
        ++world.num_crawl_days;
      }
      std::fprintf(stderr,
                   "[world] crawled %zu CRLs over %d visits, %zu revocations "
                   "(wall %.3fs)\n",
                   world.crawler->crawled().size(), world.num_crawl_days,
                   world.crawler->total_revocations(),
                   world.crawler->crawl_wall_seconds());
    }
    return world;
  }
};

// CRLSet generator configuration matched to the documented pipeline, with
// the per-CRL entry cap following the hidden-population scaling (DESIGN.md).
inline crlset::GeneratorConfig ScaledCrlsetConfig(double scale) {
  crlset::GeneratorConfig config;
  config.max_bytes = 250 * 1024;
  const double hidden_scale = std::min(1.0, scale * 10);
  config.max_entries_per_crl = static_cast<std::size_t>(10'000 * hidden_scale);
  if (config.max_entries_per_crl < 50) config.max_entries_per_crl = 50;
  config.filter_reason_codes = true;
  return config;
}

}  // namespace rev::bench
