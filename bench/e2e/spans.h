// Benchmark-side spans: rev_bench wraps each call it makes into a layer of
// the system in a Span. A span records its name, start, end, parent span and
// the item (scan, chain, request) it worked on. Every span feeds per-name
// totals — count, total time, self time (the span minus the benchmark spans
// nested inside it) and every duration for quantiles; raw spans are kept for
// the first 64 calls of each name per thread and 1 in 256 after that, and
// written as Chrome-trace JSON when the run ends. All of it lives in memory
// until then.
//
// Disabled (the untraced end-to-end runs), a Span costs one relaxed load.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace revbench::trace {

// A span name, registered once per call site:
//   static const trace::Site kSite("core.observe_der");
class Site {
 public:
  explicit Site(const char* name);
  std::uint32_t id() const { return id_; }

 private:
  std::uint32_t id_;
};

void Enable(bool on);  // only while no span is open
bool Enabled();

class Span {
 public:
  explicit Span(const Site& site, std::uint64_t item = 0) {
    if (Enabled()) Begin(site.id(), item);
  }
  ~Span() {
    if (open_) End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void Begin(std::uint32_t name, std::uint64_t item);
  void End();
  bool open_ = false;
};

struct NameStats {
  std::string name;
  std::uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
  double p50_ns = 0;
  double mean_ns() const { return count ? total_ns / static_cast<double>(count) : 0; }
};

// Per-name totals merged over every thread, sorted by name. Call only when
// no traced thread is running.
std::vector<NameStats> Collect();
NameStats Find(const std::vector<NameStats>& all, const std::string& name);

// Writes the kept raw spans as Chrome-trace JSON; false on I/O failure.
bool WriteChromeTrace(const std::string& path);

}  // namespace revbench::trace
