#include "obs/distrace.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <unordered_set>

#include "util/hash.h"

namespace rev::obs {

namespace {

using util::Mix64;

void AppendF(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, std::min<std::size_t>(static_cast<std::size_t>(n),
                                                   sizeof(buf) - 1));
}

char HexDigit(std::uint64_t v) {
  return static_cast<char>(v < 10 ? '0' + v : 'a' + (v - 10));
}

void AppendHex64(std::string& out, std::uint64_t v) {
  for (int shift = 60; shift >= 0; shift -= 4)
    out.push_back(HexDigit((v >> shift) & 0xF));
}

std::uint64_t SteadyNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool ParseHex64(std::string_view s, std::uint64_t* out) {
  if (s.size() != 16) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint64_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') v |= static_cast<std::uint64_t>(c - 'A' + 10);
    else return false;
  }
  *out = v;
  return true;
}

}  // namespace

const char* InternName(std::string_view s) {
  // Node-based set: element addresses are stable across rehashes, so the
  // c_str() handed out lives for the process lifetime. The table is leaked
  // on purpose — interned names may be read from static destructors.
  static std::mutex* mu = new std::mutex();
  static std::unordered_set<std::string>* table =
      new std::unordered_set<std::string>();
  std::lock_guard lock(*mu);
  return table->emplace(s).first->c_str();
}

std::string TraceId::Hex() const {
  std::string out;
  out.reserve(32);
  AppendHex64(out, hi);
  AppendHex64(out, lo);
  return out;
}

TraceId MakeTraceId(std::uint64_t seed_a, std::uint64_t seed_b) {
  TraceId id;
  id.hi = Mix64(seed_a ^ 0x7261CE1Dull);
  id.lo = Mix64(Mix64(seed_b) ^ id.hi);
  if (!id.valid()) id.lo = 1;  // all-zero is the "no trace" sentinel
  return id;
}

std::uint64_t DeriveSpanId(const SpanContext& parent, std::uint64_t salt) {
  const std::uint64_t id =
      Mix64(parent.trace.lo ^ Mix64(parent.span ^ Mix64(salt)));
  return id != 0 ? id : 1;
}

std::uint64_t RootSpanId(const TraceId& trace) {
  const std::uint64_t id = Mix64(trace.hi ^ Mix64(trace.lo));
  return id != 0 ? id : 1;
}

std::string FormatTraceparent(const SpanContext& context) {
  std::string out;
  out.reserve(55);
  out += "00-";
  AppendHex64(out, context.trace.hi);
  AppendHex64(out, context.trace.lo);
  out += '-';
  AppendHex64(out, context.span);
  out += "-01";
  return out;
}

bool ParseTraceparent(std::string_view header, SpanContext* out) {
  // "00-" + 32 hex + "-" + 16 hex + "-01" = 55 chars.
  if (header.size() != 55) return false;
  if (header.substr(0, 3) != "00-" || header[35] != '-' || header[52] != '-')
    return false;
  SpanContext context;
  if (!ParseHex64(header.substr(3, 16), &context.trace.hi)) return false;
  if (!ParseHex64(header.substr(19, 16), &context.trace.lo)) return false;
  if (!ParseHex64(header.substr(36, 16), &context.span)) return false;
  if (!context.valid()) return false;
  *out = context;
  return true;
}

std::uint64_t VirtualNs(util::Timestamp now, double offset_seconds) {
  const std::uint64_t base =
      now > 0 ? static_cast<std::uint64_t>(now) * 1'000'000'000ull : 0;
  if (offset_seconds <= 0) return base;
  return base + static_cast<std::uint64_t>(offset_seconds * 1e9 + 0.5);
}

const char* SpanClockName(SpanClock clock) {
  return clock == SpanClock::kWall ? "wall" : "sim";
}

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kInternal: return "internal";
    case SpanKind::kClient: return "client";
    case SpanKind::kServer: return "server";
  }
  return "?";
}

DistTraceCollector::DistTraceCollector() : base_ns_(SteadyNowNs()) {
  const char* env = std::getenv("REV_TRACE");
  if (env != nullptr && env[0] != '\0') Enable();
}

DistTraceCollector& DistTraceCollector::Global() {
  // Leaked on purpose, like the metrics registry: spans may be recorded
  // from static destructors.
  static DistTraceCollector* collector = new DistTraceCollector();
  return *collector;
}

namespace {
// Constructs the collector before main so REV_TRACE arms it even when the
// first span is a local one, which reads only the enabled flag.
[[maybe_unused]] const DistTraceCollector& kArmFromEnv =
    DistTraceCollector::Global();
}  // namespace

void DistTraceCollector::Clear() {
  std::lock_guard lock(mu_);
  spans_.clear();
  dropped_ = 0;
}

void DistTraceCollector::Record(const DistSpan& span) {
  if (!enabled()) return;
  std::lock_guard lock(mu_);
  if (spans_.size() < kCapacity) {
    spans_.push_back(span);
  } else {
    ++dropped_;
  }
}

std::uint64_t DistTraceCollector::dropped() const {
  std::lock_guard lock(mu_);
  return dropped_;
}

std::uint64_t DistTraceCollector::NowNs() const {
  const std::uint64_t now = SteadyNowNs();
  return now > base_ns_ ? now - base_ns_ : 0;
}

std::size_t DistTraceCollector::size() const {
  std::lock_guard lock(mu_);
  return spans_.size();
}

namespace {

void SortSpans(std::vector<DistSpan>& spans) {
  std::sort(spans.begin(), spans.end(),
            [](const DistSpan& a, const DistSpan& b) {
              if (a.trace != b.trace) return a.trace < b.trace;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.span < b.span;
            });
}

}  // namespace

std::vector<DistSpan> DistTraceCollector::Snapshot() const {
  std::vector<DistSpan> out;
  {
    std::lock_guard lock(mu_);
    out = spans_;
  }
  SortSpans(out);
  return out;
}

std::vector<DistSpan> DistTraceCollector::SnapshotTrace(
    const TraceId& trace) const {
  std::vector<DistSpan> out;
  {
    std::lock_guard lock(mu_);
    for (const DistSpan& span : spans_)
      if (span.trace == trace) out.push_back(span);
  }
  SortSpans(out);
  return out;
}

std::string DistTraceCollector::DumpJson(const std::vector<DistSpan>& spans,
                                         std::uint64_t dropped) {
  std::string out = "{\"spans\":[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const DistSpan& s = spans[i];
    out += "{\"trace\":\"";
    out += s.trace.Hex();
    out += "\",\"span\":\"";
    AppendHex64(out, s.span);
    out += "\",\"parent\":\"";
    AppendHex64(out, s.parent);
    AppendF(out,
            "\",\"name\":\"%s\",\"node\":\"%s\",\"kind\":\"%s\","
            "\"clock\":\"%s\",\"status\":%" PRId32 ",\"start_ns\":%" PRIu64
            ",\"dur_ns\":%" PRIu64 "}%s\n",
            s.name, s.node, SpanKindName(s.kind), SpanClockName(s.clock),
            s.status, s.start_ns, s.dur_ns(), i + 1 < spans.size() ? "," : "");
  }
  AppendF(out, "],\"dropped\":%" PRIu64 "}\n", dropped);
  return out;
}

bool DistTraceCollector::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = DumpJson();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  return ok;
}

bool DistTraceCollector::ExportFromEnv() const {
  const char* path = std::getenv("REV_TRACE");
  if (path == nullptr || path[0] == '\0') return false;
  return WriteJson(path);
}

namespace {

// The calling thread's innermost open local span; invalid when none is open.
thread_local SpanContext tl_current;
// The calling thread's node name, assigned at its first enabled span.
thread_local const char* tl_node = nullptr;

// Feeds local trace and span ids; process-wide, so ids never repeat.
std::atomic<std::uint64_t> local_ids{0};
std::atomic<std::uint32_t> next_thread_number{1};

constexpr std::uint64_t kLocalTraceSeed = 0x10CA17;

}  // namespace

void Span::Open(const char* name) {
  const std::uint64_t n = local_ids.fetch_add(1, std::memory_order_relaxed);
  if (tl_current.valid()) {
    parent_ = tl_current.span;
    context_ = {tl_current.trace, DeriveSpanId(tl_current, n)};
  } else {
    context_.trace = MakeTraceId(kLocalTraceSeed, n);
    context_.span = RootSpanId(context_.trace);
  }
  if (tl_node == nullptr) {
    const std::uint32_t number =
        next_thread_number.fetch_add(1, std::memory_order_relaxed);
    tl_node = InternName("thread-" + std::to_string(number));
  }
  tl_current = context_;
  name_ = name;
  start_ns_ = DistTraceCollector::Global().NowNs();
}

void Span::Close() {
  DistTraceCollector& collector = DistTraceCollector::Global();
  DistSpan span;
  span.trace = context_.trace;
  span.span = context_.span;
  span.parent = parent_;
  span.name = name_;
  span.node = tl_node;
  span.kind = SpanKind::kInternal;
  span.clock = SpanClock::kWall;
  span.start_ns = start_ns_;
  span.end_ns = collector.NowNs();
  tl_current = parent_ != 0 ? SpanContext{context_.trace, parent_}
                            : SpanContext{};
  // Tracing may have been disabled mid-span; Record() then drops it.
  collector.Record(span);
}

namespace {

// Recursive attribution: tile [lo, hi) of `span` between its children and
// itself, walking children latest-end-first so overlapping siblings
// (hedge legs) resolve to the leg that finished last — the one the caller
// actually waited on. Zero-duration spans never claim a tile.
void Attribute(const DistSpan& span,
               const std::map<std::uint64_t, std::vector<const DistSpan*>>&
                   children_of,
               std::uint64_t lo, std::uint64_t hi,
               std::vector<PathSegment>* out) {
  std::vector<const DistSpan*> kids;
  const auto it = children_of.find(span.span);
  if (it != children_of.end()) kids = it->second;
  std::sort(kids.begin(), kids.end(), [](const DistSpan* a, const DistSpan* b) {
    if (a->end_ns != b->end_ns) return a->end_ns > b->end_ns;
    return a->span < b->span;
  });

  std::uint64_t cursor = hi;
  for (const DistSpan* kid : kids) {
    if (cursor <= lo) break;
    const std::uint64_t kid_end = std::min(kid->end_ns, cursor);
    const std::uint64_t kid_start = std::max(kid->start_ns, lo);
    if (kid_end <= kid_start) continue;  // clipped away or zero-duration
    if (kid_end < cursor) {
      // The stretch after this child and before the previous tile is the
      // parent's own time (queueing, local work, waiting gaps).
      out->push_back({span.span, span.name, span.node, kid_end, cursor});
    }
    Attribute(*kid, children_of, kid_start, kid_end, out);
    cursor = kid_start;
  }
  if (cursor > lo) out->push_back({span.span, span.name, span.node, lo, cursor});
}

}  // namespace

std::vector<PathSegment> CriticalPath(const std::vector<DistSpan>& spans) {
  std::vector<PathSegment> out;
  if (spans.empty()) return out;

  std::map<std::uint64_t, const DistSpan*> by_id;
  for (const DistSpan& span : spans) by_id.emplace(span.span, &span);
  const DistSpan* root = nullptr;
  std::map<std::uint64_t, std::vector<const DistSpan*>> children_of;
  for (const DistSpan& span : spans) {
    if (span.parent == 0 || by_id.find(span.parent) == by_id.end()) {
      // Root = the earliest-starting span with no resolvable parent.
      if (root == nullptr || span.start_ns < root->start_ns ||
          (span.start_ns == root->start_ns && span.span < root->span))
        root = &span;
    } else {
      children_of[span.parent].push_back(&span);
    }
  }
  if (root == nullptr || root->end_ns <= root->start_ns) return out;

  Attribute(*root, children_of, root->start_ns, root->end_ns, &out);
  std::sort(out.begin(), out.end(),
            [](const PathSegment& a, const PathSegment& b) {
              return a.start_ns < b.start_ns;
            });
  return out;
}

}  // namespace rev::obs
