// trace2txt: render span JSON written by obs::DistTraceCollector
// (REV_TRACE=<file>) as a terminal-friendly report:
//  - a flat profile per span name and clock: count, total, mean and max
//    duration — where the time went;
//  - each trace rendered as its causal tree, its clock ("sim" or "wall")
//    in the header, with a per-hop critical-path column — the share of the
//    root's latency attributed to each span by obs::CriticalPath, '*'
//    marking the spans on the path.
//
//   trace2txt trace.json
//
// The parser targets the collector's own output: one span object per
// line. It is not a general JSON parser; feeding it traces from other
// producers may miss spans.
#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "obs/distrace.h"

namespace {

// Extracts `"key":<value>` from one span line. Returns false if absent.
bool FindRaw(const std::string& line, const char* key, std::string& out) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  std::size_t begin = at + needle.size();
  std::size_t end = begin;
  if (begin < line.size() && line[begin] == '"') {
    ++begin;
    end = line.find('"', begin);
    if (end == std::string::npos) return false;
  } else {
    while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  }
  out = line.substr(begin, end - begin);
  return true;
}

bool ParseHex64(const std::string& hex, std::uint64_t* out) {
  if (hex.empty() || hex.size() > 16) return false;
  std::uint64_t value = 0;
  for (const char c : hex) {
    value <<= 4;
    if (c >= '0' && c <= '9') value |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      value |= static_cast<std::uint64_t>(c - 'a' + 10);
    else
      return false;
  }
  *out = value;
  return true;
}

// One span object per line, the DistTraceCollector::DumpJson shape.
bool ParseDistSpanLine(const std::string& line, rev::obs::DistSpan& span) {
  std::string value;
  if (!FindRaw(line, "trace", value) || value.size() != 32) return false;
  if (!ParseHex64(value.substr(0, 16), &span.trace.hi)) return false;
  if (!ParseHex64(value.substr(16), &span.trace.lo)) return false;
  if (!FindRaw(line, "span", value) || !ParseHex64(value, &span.span))
    return false;
  if (!FindRaw(line, "parent", value) || !ParseHex64(value, &span.parent))
    return false;
  if (!FindRaw(line, "name", value)) return false;
  span.name = rev::obs::InternName(value);
  if (!FindRaw(line, "node", value)) return false;
  span.node = rev::obs::InternName(value);
  if (FindRaw(line, "kind", value)) {
    span.kind = value == "client" ? rev::obs::SpanKind::kClient
                : value == "server" ? rev::obs::SpanKind::kServer
                                    : rev::obs::SpanKind::kInternal;
  }
  if (FindRaw(line, "clock", value) && value == "wall")
    span.clock = rev::obs::SpanClock::kWall;
  if (FindRaw(line, "status", value))
    span.status = static_cast<std::int32_t>(std::atol(value.c_str()));
  if (FindRaw(line, "start_ns", value))
    span.start_ns = std::strtoull(value.c_str(), nullptr, 10);
  if (FindRaw(line, "dur_ns", value))
    span.end_ns = span.start_ns + std::strtoull(value.c_str(), nullptr, 10);
  return true;
}

void PrintProfile(const std::vector<rev::obs::DistSpan>& spans) {
  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
  };
  std::map<std::pair<std::string, std::string>, Agg> by_name;
  for (const auto& span : spans) {
    Agg& agg = by_name[{span.name, rev::obs::SpanClockName(span.clock)}];
    ++agg.count;
    agg.total_ns += span.dur_ns();
    agg.max_ns = std::max(agg.max_ns, span.dur_ns());
  }
  std::vector<std::pair<std::pair<std::string, std::string>, Agg>> rows(
      by_name.begin(), by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.total_ns > b.second.total_ns;
  });

  std::printf("%-36s %-5s %10s %12s %12s %12s\n", "span", "clock", "count",
              "total(ms)", "mean(us)", "max(us)");
  for (const auto& [key, agg] : rows) {
    std::printf("%-36s %-5s %10" PRIu64 " %12.3f %12.2f %12.2f\n",
                key.first.c_str(), key.second.c_str(), agg.count,
                static_cast<double>(agg.total_ns) / 1e6,
                static_cast<double>(agg.total_ns) /
                    static_cast<double>(agg.count) / 1e3,
                static_cast<double>(agg.max_ns) / 1e3);
  }
}

void PrintDistTree(const std::vector<rev::obs::DistSpan>& spans,
                   const rev::obs::DistSpan& span,
                   const std::map<std::uint64_t, std::uint64_t>& crit_ns,
                   std::uint64_t trace_start_ns, unsigned depth) {
  const auto crit = crit_ns.find(span.span);
  const double crit_ms =
      crit == crit_ns.end() ? 0.0 : static_cast<double>(crit->second) / 1e6;
  std::printf("  %*s%-*s %-22s %-8s %6" PRId32 " %11.3f %11.3f %11.3f%s\n",
              static_cast<int>(depth * 2), "",
              static_cast<int>(depth * 2 >= 28 ? 1 : 28 - depth * 2),
              span.name, span.node, rev::obs::SpanKindName(span.kind),
              span.status,
              static_cast<double>(span.start_ns - trace_start_ns) / 1e6,
              static_cast<double>(span.dur_ns()) / 1e6, crit_ms,
              crit == crit_ns.end() ? "" : " *");
  // Children in start order (ties by span id): the collector's snapshot
  // order, so the tree is stable across runs.
  for (const auto& child : spans) {
    if (child.parent == span.span) {
      PrintDistTree(spans, child, crit_ns, trace_start_ns, depth + 1);
    }
  }
}

void PrintDistTraces(const std::vector<rev::obs::DistSpan>& all,
                     std::size_t limit) {
  // Group by trace id; input order already clusters one trace together
  // (DumpJson sorts by trace first).
  std::vector<std::pair<std::size_t, std::size_t>> traces;  // [begin, end)
  for (std::size_t i = 0; i < all.size();) {
    std::size_t j = i;
    while (j < all.size() && all[j].trace == all[i].trace) ++j;
    traces.emplace_back(i, j);
    i = j;
  }
  std::printf("%zu trace%s\n", traces.size(), traces.size() == 1 ? "" : "s");
  if (traces.size() > limit)
    std::printf("(rendering the first %zu — pipe through a pager or filter "
                "the json for more)\n",
                limit);

  for (std::size_t t = 0; t < std::min(limit, traces.size()); ++t) {
    const std::vector<rev::obs::DistSpan> spans(
        all.begin() + static_cast<std::ptrdiff_t>(traces[t].first),
        all.begin() + static_cast<std::ptrdiff_t>(traces[t].second));
    const auto path = rev::obs::CriticalPath(spans);
    // Per-span critical-path share: segments attributed to the same span
    // sum into its column.
    std::map<std::uint64_t, std::uint64_t> crit_ns;
    std::uint64_t path_total = 0;
    for (const auto& segment : path) {
      crit_ns[segment.span] += segment.dur_ns();
      path_total += segment.dur_ns();
    }
    // Roots: spans whose parent is absent from this trace.
    std::map<std::uint64_t, bool> present;
    for (const auto& span : spans) present[span.span] = true;
    std::uint64_t trace_start = spans.empty() ? 0 : spans.front().start_ns;
    for (const auto& span : spans)
      trace_start = std::min(trace_start, span.start_ns);

    std::printf(
        "\ntrace %s (%s): %zu spans, critical path %zu hop%s / %.3fms\n",
        spans.front().trace.Hex().c_str(),
        rev::obs::SpanClockName(spans.front().clock), spans.size(),
        path.size(), path.size() == 1 ? "" : "s",
        static_cast<double>(path_total) / 1e6);
    std::printf("  %-28s %-22s %-8s %6s %11s %11s %11s\n", "span", "node",
                "kind", "status", "start(ms)", "dur(ms)", "crit(ms)");
    for (const auto& span : spans) {
      if (span.parent == 0 || !present[span.parent])
        PrintDistTree(spans, span, crit_ns, trace_start, 0);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: trace2txt <trace.json>\n");
    return 2;
  }
  const char* path = argv[1];
  FILE* f = std::fopen(path, "r");
  if (f == nullptr) {
    std::fprintf(stderr, "trace2txt: cannot open %s\n", path);
    return 1;
  }

  std::vector<rev::obs::DistSpan> spans;
  std::uint64_t dropped = 0;
  char buffer[4096];
  while (std::fgets(buffer, sizeof buffer, f) != nullptr) {
    const std::string line = buffer;
    rev::obs::DistSpan span;
    if (ParseDistSpanLine(line, span)) {
      spans.push_back(span);
    } else {
      std::string value;
      if (FindRaw(line, "dropped", value))
        dropped = std::strtoull(value.c_str(), nullptr, 10);
    }
  }
  std::fclose(f);

  if (spans.empty()) {
    std::fprintf(stderr, "trace2txt: no spans in %s\n", path);
    return 1;
  }
  std::printf("%s: %zu spans", path, spans.size());
  if (dropped > 0)
    std::printf(" (%" PRIu64 " dropped past the collector's capacity)",
                dropped);
  std::printf("\n\n");
  PrintProfile(spans);
  std::printf("\n");
  PrintDistTraces(spans, 20);
  return 0;
}
