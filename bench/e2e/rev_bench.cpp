// rev_bench: the end-to-end benchmark of the revocation-measurement system.
//
//   rev_bench --workload <corpus_load|scan_weekly|ocsp_read|ocsp_churn>
//             [--seed N] [--seconds S] [--trace 0|1] [--spans FILE] [--smoke]
//
// One workload per process. The run generates its inputs from --seed, sets
// the system up several times (setup_s is the median), measures for about
// --seconds, checks every output it can against ground truth, prints a
// table of metrics with their quartiles and prints, as the last line of
// stdout, one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding the end-to-end metrics, or with --trace 1 the per-layer metrics
// of a traced run (spans written to --spans as Chrome-trace JSON).
// A failed check exits 1. bench/e2e/run.py builds this and drives it; see
// bench/e2e/README.md.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.h"

namespace revbench {

namespace {

void Add(std::vector<Metric>& list, std::string name, std::string unit,
         std::vector<double> samples, Pick pick = Pick::kMedian) {
  list.push_back({std::move(name), std::move(unit), std::move(samples), pick});
}

void PrintRows(const char* kind, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::vector<double> v = m.samples;
    const double q1 = Quantile(v, 0.25);
    const double med = Quantile(v, 0.5);
    const double q3 = Quantile(v, 0.75);
    std::printf("  %-8s %-30s %12.6g %12.6g %12.6g %12.6g %4zu  %s\n", kind,
                m.name.c_str(), m.value(), med, q1, q3, m.samples.size(),
                m.unit.c_str());
  }
}

[[noreturn]] void Usage(const char* error) {
  std::fprintf(stderr,
               "rev_bench: %s\nusage: rev_bench --workload "
               "<corpus_load|scan_weekly|ocsp_read|ocsp_churn> [--seed N] "
               "[--seconds S] [--trace 0|1] [--spans FILE] [--smoke]\n",
               error);
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      const std::string text = value();
      char* end = nullptr;
      options.seed = std::strtoull(text.c_str(), &end, 10);
      if (text.empty() || *end != '\0') Usage("--seed must be a whole number");
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      options.trace = value() != "0";
    } else if (arg == "--spans") {
      options.spans_path = value();
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(options.seconds > 0 && options.seconds <= 600))
    Usage("--seconds must be in (0, 600]");
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  // The reference box has 4 cores; never use more, so runs on bigger
  // machines measure the same shape.
  options.threads = std::min(hw, 4u);
  return options;
}

}  // namespace

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

double HeapMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

double Metric::value() const {
  if (samples.empty()) return std::nan("");
  switch (pick) {
    case Pick::kMin:
      return *std::min_element(samples.begin(), samples.end());
    case Pick::kMax:
      return *std::max_element(samples.begin(), samples.end());
    case Pick::kMedian:
      break;
  }
  return Median(samples);
}

void Report::EndToEnd(std::string name, std::string unit,
                      std::vector<double> samples, Pick pick) {
  Add(end_to_end_, std::move(name), std::move(unit), std::move(samples), pick);
}
void Report::PerLayer(std::string name, std::string unit,
                      std::vector<double> samples) {
  Add(per_layer_, std::move(name), std::move(unit), std::move(samples));
}
void Report::Extra(std::string name, std::string unit,
                   std::vector<double> samples) {
  Add(extra_, std::move(name), std::move(unit), std::move(samples));
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  if (errors_ < 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  ++errors_;
}

bool Report::Print(const Options& options) const {
  std::printf("rev_bench workload=%s seed=%llu seconds=%g trace=%d threads=%u%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.threads,
              options.smoke ? " smoke" : "");
  std::printf("  %-8s %-30s %12s %12s %12s %12s %4s  %s\n", "kind", "metric",
              "value", "median", "q1", "q3", "n", "unit");
  PrintRows("end2end", end_to_end_);
  PrintRows("layer", per_layer_);
  PrintRows("detail", extra_);
  std::printf("  checks: %llu failed; operations: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(errors_),
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));

  const std::vector<Metric>& reported = options.trace ? per_layer_ : end_to_end_;
  bool ok = errors_ == 0 && failed_ == 0;
  std::string json = "{\"correct\": ";
  std::string metrics;
  char buf[256];
  for (const Metric& m : reported) {
    const double value = m.value();
    ok = ok && std::isfinite(value);
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(),
                  std::isfinite(value) ? value : 0.0, m.unit.c_str());
    metrics += buf;
  }
  json += ok ? "true" : "false";
  std::snprintf(buf, sizeof(buf), ", \"attempted\": %llu, \"failed\": %llu, ",
                static_cast<unsigned long long>(std::max<std::uint64_t>(1, attempted_)),
                static_cast<unsigned long long>(failed_ + errors_));
  json += buf;
  json += "\"metrics\": {" + metrics + "}}";
  std::fflush(stdout);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return ok;
}

}  // namespace revbench

int main(int argc, char** argv) {
  using namespace revbench;
  const Options options = Parse(argc, argv);
  Report report;
  try {
    if (options.workload == "corpus_load" || options.workload == "scan_weekly") {
      RunStudy(options, report);
    } else if (options.workload == "ocsp_read" ||
               options.workload == "ocsp_churn") {
      RunServe(options, report);
    } else {
      Usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rev_bench: %s\n", e.what());
    return 1;
  }
  return report.Print(options) ? 0 : 1;
}
