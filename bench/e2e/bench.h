// Shared pieces of rev_bench: run options, the result report, and small
// measurement helpers. See README.md for the workloads and metrics.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace revbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;   // measured time per run
  bool trace = false;    // per-layer run: spans on, replays, overhead
  std::string spans_path;  // Chrome-trace output of a traced run
  bool smoke = false;    // tiny sizes, every check, no timing gates
  unsigned threads = 1;  // min(nproc, 4)
};

// Times a run sets the system up; setup_s is the median.
constexpr int kSetupReps = 5;

// How a run reduces a metric's samples to the number it reports. A study
// rep is seconds of work, a run has only a few, and noise on a shared host
// only ever slows a rep down for seconds at a time: study timings report
// their best rep (kMin for a time, kMax for a rate). Serve rounds are
// tenths of a second, a run has dozens, and their best is an outlier: they
// report the median, as do single events such as one revocation.
enum class Pick { kMedian, kMin, kMax };

struct Metric {
  std::string name;
  std::string unit;
  std::vector<double> samples;
  Pick pick = Pick::kMedian;

  double value() const;
};

class Report {
 public:
  // End-to-end and per-layer metrics, in the order BENCHMARK.json lists
  // them. Extra rows are printed for people and never parsed.
  void EndToEnd(std::string name, std::string unit, std::vector<double> samples,
                Pick pick = Pick::kMedian);
  void PerLayer(std::string name, std::string unit, std::vector<double> samples);
  void Extra(std::string name, std::string unit, std::vector<double> samples);

  // Records a failed correctness check; any failure fails the run.
  void Check(bool ok, const std::string& what);
  void Attempted(std::uint64_t n) { attempted_ += n; }
  void Failed(std::uint64_t n) { failed_ += n; }

  // Human-readable table, then the one-line JSON result (the last line of
  // stdout): end-to-end metrics, or per-layer ones for a traced run.
  // Returns the result's "correct": no failure and every value finite.
  bool Print(const Options& options) const;

 private:
  std::vector<Metric> end_to_end_, per_layer_, extra_;
  std::uint64_t attempted_ = 0, failed_ = 0, errors_ = 0;
};

// Study workloads: corpus_load, scan_weekly. Serve workloads: ocsp_read,
// ocsp_churn.
void RunStudy(const Options& options, Report& report);
void RunServe(const Options& options, Report& report);

// --- helpers ---------------------------------------------------------------

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// q-quantile (0..1) of `v` by nearest rank, 0 if empty; reorders `v`.
template <typename T>
double Quantile(std::vector<T>& v, double q) {
  if (v.empty()) return 0;
  const auto k = static_cast<std::size_t>(
      std::llround(q * static_cast<double>(v.size() - 1)));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

inline double Median(std::vector<double> v) { return Quantile(v, 0.5); }

// Peak resident set of this process so far, MB.
double PeakRssMb();
// Bytes malloc currently hands out (live heap), MB.
double HeapMb();

}  // namespace revbench
