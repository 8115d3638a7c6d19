#include "spans.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>

#include "bench.h"

namespace revbench::trace {

namespace {

std::atomic<bool> g_enabled{false};

struct PerName {
  std::uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
  std::vector<std::uint32_t> durations;
};

struct Raw {
  std::uint32_t name, tid;
  std::uint64_t id, parent, item;
  std::int64_t start, end;
};

struct Open {
  std::uint32_t name;
  std::uint64_t id, parent, item;
  std::int64_t start;
  std::int64_t child_ns;
  bool keep;
};

struct ThreadBuf {
  std::uint32_t tid = 0;
  std::uint64_t next_id = 0;
  std::vector<Open> stack;
  std::vector<PerName> per_name;
  std::vector<Raw> raw;
};

struct Registry {
  std::mutex mu;
  std::vector<std::string> names;
  // Buffers outlive their threads so Collect() can read them after join.
  std::vector<std::unique_ptr<ThreadBuf>> threads;
};

Registry& Reg() {
  static Registry registry;
  return registry;
}

thread_local ThreadBuf* t_buf = nullptr;

ThreadBuf& Mine() {
  if (t_buf == nullptr) {
    Registry& reg = Reg();
    std::lock_guard lock(reg.mu);
    reg.threads.push_back(std::make_unique<ThreadBuf>());
    t_buf = reg.threads.back().get();
    t_buf->tid = static_cast<std::uint32_t>(reg.threads.size());
  }
  return *t_buf;
}

void AppendEscaped(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

}  // namespace

Site::Site(const char* name) {
  Registry& reg = Reg();
  std::lock_guard lock(reg.mu);
  const auto it = std::find(reg.names.begin(), reg.names.end(), name);
  id_ = static_cast<std::uint32_t>(it - reg.names.begin());
  if (it == reg.names.end()) reg.names.emplace_back(name);
}

void Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Span::Begin(std::uint32_t name, std::uint64_t item) {
  ThreadBuf& buf = Mine();
  if (buf.per_name.size() <= name) buf.per_name.resize(name + 1);
  const std::uint64_t count = buf.per_name[name].count;
  const std::uint64_t parent = buf.stack.empty() ? 0 : buf.stack.back().id;
  const std::uint64_t id = (std::uint64_t{buf.tid} << 40) | ++buf.next_id;
  buf.stack.push_back(
      {name, id, parent, item, NowNs(), 0, count < 64 || count % 256 == 0});
  open_ = true;
}

void Span::End() {
  const std::int64_t end = NowNs();
  ThreadBuf& buf = Mine();
  const Open open = buf.stack.back();
  buf.stack.pop_back();
  const std::int64_t duration = end - open.start;
  PerName& stats = buf.per_name[open.name];
  ++stats.count;
  stats.total_ns += static_cast<double>(duration);
  stats.self_ns += static_cast<double>(duration - open.child_ns);
  stats.durations.push_back(static_cast<std::uint32_t>(std::min<std::int64_t>(
      duration, std::numeric_limits<std::uint32_t>::max())));
  if (!buf.stack.empty()) buf.stack.back().child_ns += duration;
  if (open.keep)
    buf.raw.push_back({open.name, buf.tid, open.id, open.parent, open.item,
                       open.start, end});
}

std::vector<NameStats> Collect() {
  Registry& reg = Reg();
  std::lock_guard lock(reg.mu);
  std::vector<NameStats> out;
  for (std::uint32_t name = 0; name < reg.names.size(); ++name) {
    NameStats stats;
    stats.name = reg.names[name];
    std::vector<std::uint32_t> durations;
    for (const auto& buf : reg.threads) {
      if (buf->per_name.size() <= name) continue;
      const PerName& per = buf->per_name[name];
      stats.count += per.count;
      stats.total_ns += per.total_ns;
      stats.self_ns += per.self_ns;
      durations.insert(durations.end(), per.durations.begin(),
                       per.durations.end());
    }
    if (stats.count == 0) continue;
    stats.p50_ns = Quantile(durations, 0.5);
    out.push_back(std::move(stats));
  }
  std::sort(out.begin(), out.end(),
            [](const NameStats& a, const NameStats& b) { return a.name < b.name; });
  return out;
}

NameStats Find(const std::vector<NameStats>& all, const std::string& name) {
  for (const NameStats& stats : all)
    if (stats.name == name) return stats;
  NameStats none;
  none.name = name;
  return none;
}

bool WriteChromeTrace(const std::string& path) {
  Registry& reg = Reg();
  std::lock_guard lock(reg.mu);
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const auto& buf : reg.threads)
    for (const Raw& raw : buf->raw) origin = std::min(origin, raw.start);

  std::string out = "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  bool first = true;
  char num[160];
  for (const auto& buf : reg.threads) {
    for (const Raw& raw : buf->raw) {
      if (!first) out += ",\n";
      first = false;
      out += "{\"name\": \"";
      AppendEscaped(out, reg.names[raw.name]);
      std::snprintf(num, sizeof(num),
                    "\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"ts\": %.3f, "
                    "\"dur\": %.3f, ",
                    raw.tid, static_cast<double>(raw.start - origin) / 1e3,
                    static_cast<double>(raw.end - raw.start) / 1e3);
      out += num;
      std::snprintf(num, sizeof(num),
                    "\"args\": {\"id\": %llu, \"parent\": %llu, \"item\": %llu}}",
                    static_cast<unsigned long long>(raw.id),
                    static_cast<unsigned long long>(raw.parent),
                    static_cast<unsigned long long>(raw.item));
      out += num;
    }
  }
  out += "\n]}\n";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace revbench::trace
