#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace rev::obs {

namespace internal {

std::size_t ThreadSlot() {
  // Distinct threads get distinct slots until the counter wraps the shard
  // count; a collision only costs contention, never correctness.
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

}  // namespace internal

std::uint64_t NextInstanceId() {
  static std::atomic<std::uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

// ----------------------------------------------------------------- Exemplar

namespace {

void AppendHex64(std::string& out, std::uint64_t v) {
  for (int shift = 60; shift >= 0; shift -= 4) {
    const std::uint64_t nibble = (v >> shift) & 0xF;
    out.push_back(
        static_cast<char>(nibble < 10 ? '0' + nibble : 'a' + (nibble - 10)));
  }
}

}  // namespace

std::string Exemplar::Hex() const {
  std::string out;
  out.reserve(32);
  AppendHex64(out, trace_hi);
  AppendHex64(out, trace_lo);
  return out;
}

// ---------------------------------------------------------------- Histogram

std::uint64_t HistogramSnapshot::BucketLowerBound(std::size_t i) {
  if (i == 0) return 0;
  return 1ull << (i - 1);
}

std::uint64_t HistogramSnapshot::BucketUpperBound(std::size_t i) {
  if (i == 0) return 0;
  if (i >= 64) return ~0ull;
  return (1ull << i) - 1;
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count - 1);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += buckets[i];
    if (rank < static_cast<double>(cumulative)) {
      const double lo = static_cast<double>(BucketLowerBound(i));
      const double hi = static_cast<double>(BucketUpperBound(i));
      const double frac = (rank - before) / static_cast<double>(buckets[i]);
      return lo + frac * (hi - lo);
    }
  }
  return static_cast<double>(max);
}

void Histogram::Record(std::uint64_t value) {
  const auto bucket =
      static_cast<std::size_t>(value == 0 ? 0 : std::bit_width(value));
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  // min/max: optimistic load first so the steady state is CAS-free.
  std::uint64_t seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

void Histogram::RecordMany(std::uint64_t value, std::uint64_t count) {
  if (count == 0) return;
  const auto bucket =
      static_cast<std::size_t>(value == 0 ? 0 : std::bit_width(value));
  buckets_[bucket].fetch_add(count, std::memory_order_relaxed);
  count_.fetch_add(count, std::memory_order_relaxed);
  sum_.fetch_add(value * count, std::memory_order_relaxed);
  std::uint64_t seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

void Histogram::RecordWithExemplar(std::uint64_t value, const Exemplar& trace) {
  Record(value);
  if (!trace.valid()) return;
  const auto bucket =
      static_cast<std::size_t>(value == 0 ? 0 : std::bit_width(value));
  std::lock_guard lock(ex_mu_);
  exemplars_[bucket] = trace;
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  const std::uint64_t min = min_.load(std::memory_order_relaxed);
  snap.min = (snap.count == 0 || min == ~0ull) ? 0 : min;
  snap.max = max_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < buckets_.size(); ++i)
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  {
    std::lock_guard lock(ex_mu_);
    snap.exemplars = exemplars_;
  }
  return snap;
}

// ----------------------------------------------------------------- Registry

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked on purpose: instruments referenced from static destructors and
  // detached threads must outlive everything.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

namespace {

std::string LabelledName(std::string_view name, std::string_view label) {
  return std::string(name).append("{").append(label).append("}");
}

}  // namespace

Counter& MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view label) {
  return GetCounter(LabelledName(name, label));
}

Gauge& MetricsRegistry::GetGauge(std::string_view name,
                                 std::string_view label) {
  return GetGauge(LabelledName(name, label));
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name,
                                         std::string_view label) {
  return GetHistogram(LabelledName(name, label));
}

std::size_t MetricsRegistry::InstrumentCount() const {
  std::lock_guard lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard lock(mu_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_)
    snap.counters.push_back({name, counter->Value()});
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_)
    snap.gauges.push_back({name, gauge->Value()});
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_)
    snap.histograms.push_back({name, histogram->Snapshot()});
  return snap;
}

namespace {

void AppendF(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, std::min<std::size_t>(static_cast<std::size_t>(n),
                                                   sizeof(buf) - 1));
}

// Instrument names contain only [A-Za-z0-9._{}=,-]; escape defensively
// anyway so DumpJson always emits valid JSON.
std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      AppendF(out, "\\u%04x", c);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

namespace {

// Text exposition is line-oriented; a name containing a newline (hostile
// label value) must not be able to forge extra lines.
std::string TextSanitize(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s)
    out.push_back((c == '\n' || c == '\r') ? ' ' : c);
  return out;
}

}  // namespace

std::string DumpText(const MetricsSnapshot& snap) {
  std::string out;
  for (const auto& c : snap.counters)
    AppendF(out, "%s %" PRIu64 "\n", TextSanitize(c.name).c_str(), c.value);
  for (const auto& g : snap.gauges)
    AppendF(out, "%s %" PRId64 "\n", TextSanitize(g.name).c_str(), g.value);
  for (const auto& h : snap.histograms) {
    AppendF(out,
            "%s count=%" PRIu64 " sum=%" PRIu64 " min=%" PRIu64 " max=%" PRIu64
            " p50=%.1f p95=%.1f p99=%.1f\n",
            TextSanitize(h.name).c_str(), h.snapshot.count, h.snapshot.sum,
            h.snapshot.min, h.snapshot.max, h.snapshot.Quantile(0.50),
            h.snapshot.Quantile(0.95), h.snapshot.Quantile(0.99));
  }
  return out;
}

std::string DumpJson(const MetricsSnapshot& snap) {
  std::string out = "{\"counters\":[";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    const auto& c = snap.counters[i];
    AppendF(out, "%s{\"name\":\"%s\",\"value\":%" PRIu64 "}",
            i == 0 ? "" : ",", JsonEscape(c.name).c_str(), c.value);
  }
  out += "],\"gauges\":[";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    const auto& g = snap.gauges[i];
    AppendF(out, "%s{\"name\":\"%s\",\"value\":%" PRId64 "}",
            i == 0 ? "" : ",", JsonEscape(g.name).c_str(), g.value);
  }
  out += "],\"histograms\":[";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& h = snap.histograms[i];
    const HistogramSnapshot& s = h.snapshot;
    AppendF(out,
            "%s{\"name\":\"%s\",\"count\":%" PRIu64 ",\"sum\":%" PRIu64
            ",\"min\":%" PRIu64 ",\"max\":%" PRIu64
            ",\"p50\":%.1f,\"p95\":%.1f,\"p99\":%.1f,\"buckets\":[",
            i == 0 ? "" : ",", JsonEscape(h.name).c_str(), s.count, s.sum,
            s.min, s.max, s.Quantile(0.50), s.Quantile(0.95), s.Quantile(0.99));
    bool first = true;
    for (std::size_t b = 0; b < s.buckets.size(); ++b) {
      if (s.buckets[b] == 0) continue;
      AppendF(out, "%s{\"le\":%" PRIu64 ",\"count\":%" PRIu64,
              first ? "" : ",", HistogramSnapshot::BucketUpperBound(b),
              s.buckets[b]);
      if (s.exemplars[b].valid())
        AppendF(out, ",\"exemplar\":\"%s\"", s.exemplars[b].Hex().c_str());
      out += "}";
      first = false;
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string MetricsRegistry::DumpText() const { return obs::DumpText(Snapshot()); }

std::string MetricsRegistry::DumpJson() const { return obs::DumpJson(Snapshot()); }

// ------------------------------------------------- Parse / merge / strip

namespace {

// Minimal cursor over the DumpJson schema — not a general JSON parser,
// but tolerant of whitespace and of extra scalar fields (the quantiles,
// future additions) so the format can evolve without breaking scrapers.
struct JsonCursor {
  std::string_view s;
  std::size_t i = 0;

  void SkipWs() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                            s[i] == '\r'))
      ++i;
  }
  bool Consume(char c) {
    SkipWs();
    if (i >= s.size() || s[i] != c) return false;
    ++i;
    return true;
  }
  bool Peek(char c) {
    SkipWs();
    return i < s.size() && s[i] == c;
  }
  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (i < s.size() && s[i] != '"') {
      char c = s[i++];
      if (c == '\\' && i < s.size()) {
        const char esc = s[i++];
        if (esc == 'u') {
          // Only \u00XX is ever emitted (control chars); decode the byte.
          if (i + 4 > s.size()) return false;
          unsigned v = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = s[i++];
            v <<= 4;
            if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          c = static_cast<char>(v);
        } else {
          c = esc;
        }
      }
      out->push_back(c);
    }
    return Consume('"');
  }
  // Accepts any JSON number; fills the unsigned value when the token is a
  // plain non-negative integer (all the fields we keep are).
  bool ParseNumber(std::uint64_t* out_u64, std::int64_t* out_i64) {
    SkipWs();
    const std::size_t start = i;
    bool negative = false;
    if (i < s.size() && s[i] == '-') {
      negative = true;
      ++i;
    }
    std::uint64_t v = 0;
    bool integral = i < s.size();
    while (i < s.size() && ((s[i] >= '0' && s[i] <= '9') || s[i] == '.' ||
                            s[i] == 'e' || s[i] == 'E' || s[i] == '+' ||
                            s[i] == '-')) {
      if (s[i] >= '0' && s[i] <= '9') {
        v = v * 10 + static_cast<std::uint64_t>(s[i] - '0');
      } else {
        integral = false;
      }
      ++i;
    }
    if (i == start) return false;
    if (out_u64 != nullptr) *out_u64 = (integral && !negative) ? v : 0;
    if (out_i64 != nullptr && integral) {
      *out_i64 = negative ? -static_cast<std::int64_t>(v)
                          : static_cast<std::int64_t>(v);
    }
    return true;
  }
  bool SkipValue() {
    SkipWs();
    if (Peek('"')) {
      std::string ignored;
      return ParseString(&ignored);
    }
    return ParseNumber(nullptr, nullptr);
  }
};

bool ParseExemplarHex(std::string_view hex, Exemplar* out) {
  if (hex.size() != 32) return false;
  std::uint64_t parts[2] = {0, 0};
  for (int half = 0; half < 2; ++half) {
    for (int k = 0; k < 16; ++k) {
      const char c = hex[static_cast<std::size_t>(half * 16 + k)];
      parts[half] <<= 4;
      if (c >= '0' && c <= '9') parts[half] |= static_cast<std::uint64_t>(c - '0');
      else if (c >= 'a' && c <= 'f') parts[half] |= static_cast<std::uint64_t>(c - 'a' + 10);
      else return false;
    }
  }
  out->trace_hi = parts[0];
  out->trace_lo = parts[1];
  return true;
}

bool ParseBuckets(JsonCursor& cur, HistogramSnapshot* snap) {
  if (!cur.Consume('[')) return false;
  if (cur.Consume(']')) return true;
  do {
    if (!cur.Consume('{')) return false;
    std::uint64_t le = 0, count = 0;
    Exemplar exemplar;
    do {
      std::string key;
      if (!cur.ParseString(&key) || !cur.Consume(':')) return false;
      if (key == "le") {
        if (!cur.ParseNumber(&le, nullptr)) return false;
      } else if (key == "count") {
        if (!cur.ParseNumber(&count, nullptr)) return false;
      } else if (key == "exemplar") {
        std::string hex;
        if (!cur.ParseString(&hex)) return false;
        if (!ParseExemplarHex(hex, &exemplar)) return false;
      } else {
        if (!cur.SkipValue()) return false;
      }
    } while (cur.Consume(','));
    if (!cur.Consume('}')) return false;
    // Bucket index from the upper bound: le = 2^i - 1, so bit_width(le)
    // recovers i (le == ~0 covers every index >= 64).
    const std::size_t index =
        le == 0 ? 0
                : std::min<std::size_t>(
                      64, static_cast<std::size_t>(std::bit_width(le)));
    snap->buckets[index] += count;
    if (exemplar.valid()) snap->exemplars[index] = exemplar;
  } while (cur.Consume(','));
  return cur.Consume(']');
}

}  // namespace

bool ParseMetricsJson(std::string_view json, MetricsSnapshot* out) {
  *out = MetricsSnapshot{};
  JsonCursor cur{json};
  if (!cur.Consume('{')) return false;
  do {
    std::string section;
    if (!cur.ParseString(&section) || !cur.Consume(':') || !cur.Consume('['))
      return false;
    if (cur.Consume(']')) continue;
    do {
      if (!cur.Consume('{')) return false;
      std::string name;
      std::uint64_t value = 0;
      std::int64_t ivalue = 0;
      HistogramSnapshot hist;
      do {
        std::string key;
        if (!cur.ParseString(&key) || !cur.Consume(':')) return false;
        if (key == "name") {
          if (!cur.ParseString(&name)) return false;
        } else if (key == "value") {
          if (!cur.ParseNumber(&value, &ivalue)) return false;
        } else if (key == "count") {
          if (!cur.ParseNumber(&hist.count, nullptr)) return false;
        } else if (key == "sum") {
          if (!cur.ParseNumber(&hist.sum, nullptr)) return false;
        } else if (key == "min") {
          if (!cur.ParseNumber(&hist.min, nullptr)) return false;
        } else if (key == "max") {
          if (!cur.ParseNumber(&hist.max, nullptr)) return false;
        } else if (key == "buckets") {
          if (!ParseBuckets(cur, &hist)) return false;
        } else {
          if (!cur.SkipValue()) return false;  // p50/p95/p99, future fields
        }
      } while (cur.Consume(','));
      if (!cur.Consume('}')) return false;
      if (section == "counters") {
        out->counters.push_back({std::move(name), value});
      } else if (section == "gauges") {
        out->gauges.push_back({std::move(name), ivalue});
      } else if (section == "histograms") {
        out->histograms.push_back({std::move(name), hist});
      }
    } while (cur.Consume(','));
    if (!cur.Consume(']')) return false;
  } while (cur.Consume(','));
  return cur.Consume('}');
}

namespace {

void MergeHistogram(HistogramSnapshot* dst, const HistogramSnapshot& src) {
  if (src.count == 0) return;
  if (dst->count == 0) {
    dst->min = src.min;
    dst->max = src.max;
  } else {
    dst->min = std::min(dst->min, src.min);
    dst->max = std::max(dst->max, src.max);
  }
  dst->count += src.count;
  dst->sum += src.sum;
  for (std::size_t i = 0; i < dst->buckets.size(); ++i) {
    dst->buckets[i] += src.buckets[i];
    if (src.exemplars[i].valid()) dst->exemplars[i] = src.exemplars[i];
  }
}

}  // namespace

void MergeSnapshot(MetricsSnapshot* dst, const MetricsSnapshot& src) {
  const auto merge = [](auto& dst_vec, const auto& src_vec, auto&& combine) {
    for (const auto& entry : src_vec) {
      auto it = std::lower_bound(
          dst_vec.begin(), dst_vec.end(), entry.name,
          [](const auto& a, const std::string& name) { return a.name < name; });
      if (it != dst_vec.end() && it->name == entry.name) {
        combine(*it, entry);
      } else {
        dst_vec.insert(it, entry);
      }
    }
  };
  // DumpJson emits name-sorted sections, but a hand-built dst may not be:
  // normalize first so lower_bound is valid.
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(dst->counters.begin(), dst->counters.end(), by_name);
  std::sort(dst->gauges.begin(), dst->gauges.end(), by_name);
  std::sort(dst->histograms.begin(), dst->histograms.end(), by_name);
  merge(dst->counters, src.counters,
        [](auto& d, const auto& s) { d.value += s.value; });
  merge(dst->gauges, src.gauges,
        [](auto& d, const auto& s) { d.value += s.value; });
  merge(dst->histograms, src.histograms,
        [](auto& d, const auto& s) { MergeHistogram(&d.snapshot, s.snapshot); });
}

std::string StripInstrumentLabel(std::string_view name) {
  const std::size_t open = name.find('{');
  if (open == std::string_view::npos) return std::string(name);
  const std::size_t close = name.find('}', open);
  if (close == std::string_view::npos) return std::string(name);
  std::string out(name.substr(0, open));
  out.append(name.substr(close + 1));
  return out;
}

MetricsSnapshot StripLabels(const MetricsSnapshot& snapshot) {
  MetricsSnapshot renamed;
  renamed.counters = snapshot.counters;
  renamed.gauges = snapshot.gauges;
  renamed.histograms = snapshot.histograms;
  for (auto& c : renamed.counters) c.name = StripInstrumentLabel(c.name);
  for (auto& g : renamed.gauges) g.name = StripInstrumentLabel(g.name);
  for (auto& h : renamed.histograms) h.name = StripInstrumentLabel(h.name);
  MetricsSnapshot out;
  MergeSnapshot(&out, renamed);
  return out;
}

}  // namespace rev::obs
