// Tracing: one span model for the whole process. Every span is a DistSpan
// in one causal tree, recorded into the one DistTraceCollector.
//
// Two producers share it. Over the simulated fleet, a hedged OCSP query
// crosses a client, two or three replicas and the retry stack; those
// spans live on the *virtual* clock (SimNet seconds), carry explicit
// 128-bit trace ids + 64-bit span ids, and propagate over the wire in a
// W3C-traceparent-style header on net::HttpRequest, so the merged
// Snapshot() of all simulated nodes stitches into one tree. Inside the
// process, the RAII obs::Span below times real work (pipeline.verify,
// crawl.fetch, ...) on the *wall* clock; its spans nest through a
// thread-local current span and form their own traces. One trace never
// mixes the two clocks: a local span never parents a virtual-clock span
// and never reaches a traceparent header.
//
// Determinism is a hard requirement for virtual-clock spans (the fleet
// bench byte-compares its artifacts across thread counts): ids are
// derived from seeded per-request state via splitmix64 — never from wall
// clock, thread ids, or allocation order — and Snapshot() sorts by
// (trace, start, span), so the same seed yields the same trace at any
// thread count.
//
// Span/node names may be dynamic ("replica-3.fleet.sim"): InternName()
// maps equal contents to one stable const char* for the process lifetime,
// so spans stay POD and recording stays allocation-free after warm-up.
//
// Export: DumpJson() ({"spans":[...],"dropped":N}, rendered by
// `tools/trace2txt <file>`) and CriticalPath(), which tiles a root span's
// [start, end] into segments attributed to the deepest span covering each
// instant — the segments sum to the root's duration exactly by
// construction. See docs/observability.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/time.h"

namespace rev::obs {

// Stable interned copy of `s`: equal contents always return the same
// pointer, valid for the process lifetime. Thread-safe.
const char* InternName(std::string_view s);

// 128-bit trace id. All-zero means "no trace".
struct TraceId {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool valid() const { return (hi | lo) != 0; }
  friend bool operator==(const TraceId& a, const TraceId& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const TraceId& a, const TraceId& b) {
    return !(a == b);
  }
  friend bool operator<(const TraceId& a, const TraceId& b) {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }
  std::string Hex() const;  // 32 lowercase hex digits
};

// A span's identity within its trace, as carried by the wire header.
struct SpanContext {
  TraceId trace;
  std::uint64_t span = 0;

  bool valid() const { return trace.valid() && span != 0; }
};

// Deterministic id minting: splitmix64 over caller-provided seeds. The
// caller owns uniqueness of the (seed_a, seed_b) pair (e.g. client seed ×
// query counter); the mix only decorrelates.
TraceId MakeTraceId(std::uint64_t seed_a, std::uint64_t seed_b);
// Child span id from a parent context and a caller-chosen salt (attempt
// index, hop kind). Never returns 0.
std::uint64_t DeriveSpanId(const SpanContext& parent, std::uint64_t salt);
// Root span id for a fresh trace.
std::uint64_t RootSpanId(const TraceId& trace);

// Wire format: "00-<32 hex trace>-<16 hex span>-01", the W3C traceparent
// shape. Parse accepts exactly that shape and rejects all-zero ids.
inline constexpr const char* kTraceparentHeader = "traceparent";
std::string FormatTraceparent(const SpanContext& context);
bool ParseTraceparent(std::string_view header, SpanContext* out);

// Virtual-clock nanoseconds: `now` is SimNet's integer-second timestamp,
// `offset_seconds` the fractional simulated time since it. Fits uint64
// comfortably for the 2015-era epochs the simulation uses.
std::uint64_t VirtualNs(util::Timestamp now, double offset_seconds);

enum class SpanKind : std::uint8_t {
  kInternal = 0,  // in-process work (backoff waits, queue time)
  kClient = 1,    // a wire exchange, observed from the calling side
  kServer = 2,    // request handling, observed on the serving node
};
const char* SpanKindName(SpanKind kind);

// The clock a span's times are on. Every span of one trace shares it.
enum class SpanClock : std::uint8_t {
  kVirtual = 0,  // SimNet virtual time (VirtualNs)
  kWall = 1,     // steady-clock ns since the collector's time base
};
const char* SpanClockName(SpanClock clock);  // "sim" | "wall"

struct DistSpan {
  TraceId trace;
  std::uint64_t span = 0;
  std::uint64_t parent = 0;    // 0 = root
  const char* name = "";       // interned (InternName) or a literal
  const char* node = "";       // which simulated node recorded it
  SpanKind kind = SpanKind::kInternal;
  SpanClock clock = SpanClock::kVirtual;
  // HTTP status of the hop (0 = none/n.a.); negative values carry a
  // net::FetchError for failed exchanges (-1 - int(error)).
  std::int32_t status = 0;
  std::uint64_t start_ns = 0;  // on `clock`
  std::uint64_t end_ns = 0;

  std::uint64_t dur_ns() const {
    return end_ns > start_ns ? end_ns - start_ns : 0;
  }
};

// The process-wide span collector. Disabled by default (one relaxed load
// per would-be span); REV_TRACE=<path> in the environment arms it at
// startup, benches enable it around showcase runs. It stores at most
// kCapacity spans; later ones are counted in dropped(), not stored.
class DistTraceCollector {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 18;

  static DistTraceCollector& Global();

  DistTraceCollector(const DistTraceCollector&) = delete;
  DistTraceCollector& operator=(const DistTraceCollector&) = delete;

  // The flag is a constant-initialized static, so checking it never runs
  // Global()'s initialization guard.
  static void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  static void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  // Drops every stored span and resets dropped().
  void Clear();
  void Record(const DistSpan& span);
  std::size_t size() const;
  std::uint64_t dropped() const;

  // Wall-clock nanoseconds since the collector's time base.
  std::uint64_t NowNs() const;

  // All spans, sorted by (trace, start_ns, span id) — a deterministic
  // order for a deterministic id/timestamp scheme, independent of the
  // thread interleaving that recorded them.
  std::vector<DistSpan> Snapshot() const;
  // Only the spans of `trace`, same order.
  std::vector<DistSpan> SnapshotTrace(const TraceId& trace) const;

  // {"spans":[{"trace":…,"span":…,"parent":…,"name":…,"node":…,"kind":…,
  //   "clock":"sim"|"wall","status":…,"start_ns":…,"dur_ns":…},…],
  //  "dropped":N}
  static std::string DumpJson(const std::vector<DistSpan>& spans,
                              std::uint64_t dropped = 0);
  std::string DumpJson() const { return DumpJson(Snapshot(), dropped()); }
  bool WriteJson(const std::string& path) const;
  // Writes DumpJson() to $REV_TRACE if set; returns whether it wrote.
  bool ExportFromEnv() const;

 private:
  DistTraceCollector();

  static inline std::atomic<bool> enabled_{false};
  std::uint64_t base_ns_ = 0;  // steady_clock at construction
  mutable std::mutex mu_;
  std::vector<DistSpan> spans_;
  std::uint64_t dropped_ = 0;
};

// RAII wall-clock span: `{ obs::Span span("pipeline.verify"); … }`. `name`
// must have static lifetime (a literal or an InternName() pointer).
//
// Disabled at entry, the span costs one relaxed load of enabled() and
// nothing else. Enabled, it nests under the calling thread's open local
// span — or starts a new trace when there is none — and on close records
// a kInternal, kWall DistSpan whose node is the thread ("thread-N").
// Spans must close in the reverse order they opened on a thread, which
// RAII scoping guarantees.
class Span {
 public:
  explicit Span(const char* name) {
    if (DistTraceCollector::enabled()) Open(name);
  }
  ~Span() {
    if (name_ != nullptr) Close();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void Open(const char* name);
  void Close();

  const char* name_ = nullptr;  // nullptr when tracing was off at entry
  SpanContext context_;
  std::uint64_t parent_ = 0;
  std::uint64_t start_ns_ = 0;
};

// One tile of a root span's critical path: [start_ns, end_ns) attributed
// to `span` (the deepest span covering the interval when walking latest-
// ending children first — concurrent hedge legs resolve to whichever leg
// finished last, i.e. the one the caller actually waited on).
struct PathSegment {
  std::uint64_t span = 0;
  const char* name = "";
  const char* node = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  std::uint64_t dur_ns() const {
    return end_ns > start_ns ? end_ns - start_ns : 0;
  }
};

// Critical path of the trace in `spans` (all spans must share one trace;
// the root is the span whose parent is absent). The returned segments are
// ordered by start time and tile the root's [start_ns, end_ns) exactly, so
// their durations sum to the root's duration — the property the fleet
// bench gates on. Empty input (or no root) yields an empty path.
std::vector<PathSegment> CriticalPath(const std::vector<DistSpan>& spans);

}  // namespace rev::obs
