// Process-wide metrics: named instruments cheap enough to update on the
// ~790k-QPS serving hot path, exported as one snapshot.
//
//   Counter    — monotonic, sharded across cache lines so concurrent
//                writers do not bounce one atomic (Add is a relaxed
//                fetch_add on a per-thread-slot shard; Value sums shards).
//   Gauge      — a level (queue depth, in-flight work), same sharding;
//                Add/Sub from any thread, Set for single-writer gauges.
//   Histogram  — lock-free fixed-bucket log2 histogram over uint64 values
//                (latencies in nanoseconds by convention): Record() is a
//                handful of relaxed atomic ops, no mutex anywhere.
//
// Instruments live in a MetricsRegistry keyed by name. Labels ride inside
// the name ("serve.requests{frontend=3}") so the registry stays one flat
// sorted namespace; per-instance objects append an instance label to keep
// their tallies exact when several instances coexist (tests, sweeps).
// Registered instruments are never destroyed, so a `Counter&` obtained
// once may be cached and updated forever without re-locking the registry.
//
// Exposition: DumpText() (one line per instrument, Prometheus-flavoured),
// DumpJson() (a stable schema consumed by the BENCH_*.json metrics block
// and round-trip tested in tests/obs_test.cpp), and Snapshot() for
// programmatic access. See docs/observability.md.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace rev::obs {

namespace internal {

// One cache line per shard so unrelated writers never share a line.
struct alignas(64) PaddedU64 {
  std::atomic<std::uint64_t> v{0};
};
struct alignas(64) PaddedI64 {
  std::atomic<std::int64_t> v{0};
};

// Stable small integer for the calling thread, used to pick a shard.
std::size_t ThreadSlot();

}  // namespace internal

inline constexpr std::size_t kInstrumentShards = 16;  // power of two
static_assert((kInstrumentShards & (kInstrumentShards - 1)) == 0);

// Monotonic counter. Add/Value are safe from any thread; Value() is a sum
// over shards and is exact once concurrent writers have finished (each
// increment lands in exactly one shard).
class Counter {
 public:
  void Add(std::uint64_t n = 1) {
    shards_[internal::ThreadSlot() & (kInstrumentShards - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  std::uint64_t Value() const {
    std::uint64_t total = 0;
    for (const auto& shard : shards_)
      total += shard.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  std::array<internal::PaddedU64, kInstrumentShards> shards_;
};

// A level that can move both ways (queue depth, in-flight requests).
// Add/Sub are sharded like Counter; Set() is for single-writer gauges only
// (it rewrites every shard and can lose a concurrent Add).
class Gauge {
 public:
  void Add(std::int64_t delta) {
    shards_[internal::ThreadSlot() & (kInstrumentShards - 1)].v.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void Sub(std::int64_t delta) { Add(-delta); }

  void Set(std::int64_t value) {
    for (std::size_t i = 1; i < shards_.size(); ++i)
      shards_[i].v.store(0, std::memory_order_relaxed);
    shards_[0].v.store(value, std::memory_order_relaxed);
  }

  std::int64_t Value() const {
    std::int64_t total = 0;
    for (const auto& shard : shards_)
      total += shard.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  std::array<internal::PaddedI64, kInstrumentShards> shards_;
};

// A trace id attached to a histogram bucket: the most recent traced
// request that landed in that bucket, linking "the p99 bucket" to a
// reconstructable distributed trace (see distrace.h). All-zero = none.
struct Exemplar {
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;

  bool valid() const { return (trace_hi | trace_lo) != 0; }
  std::string Hex() const;  // 32 lowercase hex digits
};

// Snapshot of a Histogram at one instant. Bucket i holds values whose
// bit_width is i (bucket 0 is the literal value 0), i.e. bucket i covers
// [2^(i-1), 2^i - 1] for i >= 1.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  // 0 when count == 0
  std::uint64_t max = 0;
  std::array<std::uint64_t, 65> buckets{};
  // exemplars[i] = last traced value recorded into bucket i (if any).
  std::array<Exemplar, 65> exemplars{};

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  // Linear interpolation inside the containing log2 bucket; exact at the
  // bucket boundaries, within a factor of 2 inside. Returns 0 when empty.
  double Quantile(double q) const;

  static std::uint64_t BucketLowerBound(std::size_t i);
  static std::uint64_t BucketUpperBound(std::size_t i);
};

// Lock-free fixed-bucket (log2) histogram over uint64 values. By
// convention durations are recorded in nanoseconds and the instrument name
// carries a `_ns` suffix. Record() performs 3 relaxed fetch_adds plus two
// load-compare(-CAS) min/max updates that almost always skip the CAS after
// warm-up. A concurrent Snapshot() may observe count/sum/buckets at
// slightly different instants; totals are exact once writers quiesce.
class Histogram {
 public:
  void Record(std::uint64_t value);
  // Records `value` `count` times with one pass over the atomics — the
  // cascade fleet records one exposure window for every serial an epoch
  // added without paying per-serial fetch_adds.
  void RecordMany(std::uint64_t value, std::uint64_t count);
  void RecordSeconds(double seconds) {
    Record(seconds <= 0 ? 0 : static_cast<std::uint64_t>(seconds * 1e9));
  }

  // Record() plus an exemplar: remember `trace` as the most recent traced
  // value in the bucket `value` lands in. The exemplar table is tiny and
  // mutex-guarded (traced requests are a slow-path minority); the plain
  // Record() hot path is untouched. A zero trace records no exemplar.
  void RecordWithExemplar(std::uint64_t value, const Exemplar& trace);
  void RecordSecondsWithExemplar(double seconds, const Exemplar& trace) {
    RecordWithExemplar(
        seconds <= 0 ? 0 : static_cast<std::uint64_t>(seconds * 1e9), trace);
  }

  HistogramSnapshot Snapshot() const;
  std::uint64_t Count() const {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, 65> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~0ull};
  std::atomic<std::uint64_t> max_{0};
  mutable std::mutex ex_mu_;  // guards exemplars_ only
  std::array<Exemplar, 65> exemplars_{};
};

// Full registry snapshot, sorted by instrument name for stable output.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    std::int64_t value = 0;
  };
  struct HistogramValue {
    std::string name;
    HistogramSnapshot snapshot;
  };
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry (never destroyed, so references handed out
  // stay valid through static teardown).
  static MetricsRegistry& Global();

  // Create-or-get by full name (labels included, e.g.
  // "serve.requests{frontend=3}"). The returned reference is stable for
  // the registry's lifetime; asking twice returns the same instrument.
  // A name must keep one instrument kind for the process lifetime.
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  // The one way to name a labelled instrument: returns `name{label}`, e.g.
  // GetCounter("serve.requests", "frontend=3") is
  // "serve.requests{frontend=3}". Per-instance instruments take their
  // `kind=N` label (N from NextInstanceId()) through these.
  Counter& GetCounter(std::string_view name, std::string_view label);
  Gauge& GetGauge(std::string_view name, std::string_view label);
  Histogram& GetHistogram(std::string_view name, std::string_view label);

  MetricsSnapshot Snapshot() const;

  // One instrument per line: `name value` for counters/gauges,
  // `name count=… sum=… min=… max=… p50=… p95=… p99=…` for histograms.
  std::string DumpText() const;
  // {"counters":[{"name":…,"value":…},…],"gauges":[…],"histograms":[…]}
  // with histogram buckets as [{"le":…,"count":…},…] (empty buckets
  // omitted). Schema is round-trip tested in tests/obs_test.cpp.
  std::string DumpJson() const;

  std::size_t InstrumentCount() const;

 private:
  mutable std::mutex mu_;  // guards the maps; instrument updates are lock-free
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// ---- Snapshot-level operations (fleet-wide aggregation) --------------------
//
// The fleet scraper (fleet/metricsview.h) pulls each node's DumpJson over
// SimNet, parses it back into a MetricsSnapshot, strips per-instance
// labels, and merges everything into one fleet view — so exposition,
// parsing, and merging all live here next to the schema they share.

// Same exposition formats as the registry methods, over any snapshot.
std::string DumpText(const MetricsSnapshot& snapshot);
std::string DumpJson(const MetricsSnapshot& snapshot);

// Parses the DumpJson schema back into a snapshot (quantile fields are
// recomputable and ignored; bucket indices are recovered from `le`).
// Returns false on any malformed input, leaving *out unspecified.
bool ParseMetricsJson(std::string_view json, MetricsSnapshot* out);

// Merges `src` into `dst` by instrument name: counters/gauges add,
// histograms add buckets/count/sum and widen min/max; a valid src exemplar
// replaces dst's. Output stays name-sorted.
void MergeSnapshot(MetricsSnapshot* dst, const MetricsSnapshot& src);

// "serve.latency_ns{frontend=3}" -> "serve.latency_ns".
std::string StripInstrumentLabel(std::string_view name);
// Re-keys every instrument by its label-stripped name, merging collisions
// (the per-instance tallies of one fleet node fold into one series).
MetricsSnapshot StripLabels(const MetricsSnapshot& snapshot);

// Process-unique id for labelling per-instance instruments:
// `NextInstanceId("frontend")` -> 1, 2, … per kind-independent sequence.
std::uint64_t NextInstanceId();

}  // namespace rev::obs
