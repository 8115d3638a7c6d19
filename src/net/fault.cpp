#include "net/fault.h"

#include "obs/metrics.h"
#include "util/hash.h"

namespace rev::net {

namespace {

// The per-exchange decision hash: pure function of (seed, rule, url, now).
std::uint64_t DecisionHash(std::uint64_t seed, std::size_t rule_index,
                           std::string_view host, std::string_view path,
                           util::Timestamp now) {
  std::uint64_t h = util::Mix64(seed ^ (0xA5A5A5A5ull + rule_index));
  h = util::MixString(host, h);
  h = util::MixString(path, h);
  return util::Mix64(h ^ static_cast<std::uint64_t>(now));
}

bool TargetMatches(const FaultRule& rule, std::string_view host,
                   std::string_view path) {
  if (rule.target.empty()) return true;
  if (rule.target == host) return true;
  // "host/path-prefix" form.
  std::string_view target = rule.target;
  if (target.size() <= host.size() || !target.starts_with(host) ||
      target[host.size()] != '/')
    return false;
  return path.starts_with(target.substr(host.size()));
}

obs::Counter& KindCounter(FaultKind kind) {
  // One registry counter per kind, fetched once (instruments are never
  // destroyed, so the references stay valid forever).
  static std::array<obs::Counter*, kNumFaultKinds>* counters = [] {
    auto* array = new std::array<obs::Counter*, kNumFaultKinds>;
    for (std::size_t i = 0; i < kNumFaultKinds; ++i)
      (*array)[i] = &obs::MetricsRegistry::Global().GetCounter(
          "net.faults_injected",
          std::string("kind=") + FaultKindName(static_cast<FaultKind>(i)));
    return array;
  }();
  return *(*counters)[static_cast<std::size_t>(kind)];
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kTimeout: return "timeout";
    case FaultKind::kOutage: return "outage";
    case FaultKind::kFlap: return "flap";
    case FaultKind::kHttpError: return "http-error";
    case FaultKind::kTruncate: return "truncate";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kLatency: return "latency";
  }
  return "?";
}

bool FaultPlan::Fires(const FaultRule& rule, std::size_t index,
                      std::string_view host, std::string_view path,
                      util::Timestamp now) const {
  if (now < rule.start || now >= rule.end) return false;
  if (!TargetMatches(rule, host, path)) return false;
  if (rule.kind == FaultKind::kFlap) {
    const std::int64_t period = rule.up_seconds + rule.down_seconds;
    if (period <= 0) return false;
    std::int64_t phase = now % period;
    if (phase < 0) phase += period;
    if (phase < rule.up_seconds) return false;  // wave is up: no fault
  }
  if (rule.probability >= 1.0) return true;
  if (rule.probability <= 0.0) return false;
  return util::UnitFromHash(DecisionHash(seed_, index, host, path, now)) <
         rule.probability;
}

void FaultPlan::Count(FaultKind kind) {
  injected_[static_cast<std::size_t>(kind)].fetch_add(
      1, std::memory_order_relaxed);
  KindCounter(kind).Increment();
}

std::uint64_t FaultPlan::total_injected() const {
  std::uint64_t total = 0;
  for (const auto& tally : injected_)
    total += tally.load(std::memory_order_relaxed);
  return total;
}

bool FaultPlan::ApplyBefore(std::string_view host, std::string_view path,
                            util::Timestamp now, double timeout_seconds,
                            double rtt_seconds, FetchResult* result) {
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const FaultRule& rule = rules_[i];
    if (rule.kind != FaultKind::kTimeout && rule.kind != FaultKind::kOutage &&
        rule.kind != FaultKind::kFlap)
      continue;
    if (!Fires(rule, i, host, path, now)) continue;
    Count(rule.kind);
    if (rule.kind == FaultKind::kTimeout) {
      result->error = FetchError::kTimeout;
      result->elapsed_seconds = timeout_seconds;
    } else {
      // Outage and flap-down: the host refuses quickly — cheap to observe,
      // so retry/backoff (not the timeout budget) dominates recovery.
      result->error = FetchError::kConnectionRefused;
      result->elapsed_seconds = rtt_seconds;
    }
    return true;
  }
  return false;
}

void FaultPlan::ApplyAfter(std::string_view host, std::string_view path,
                           util::Timestamp now, FetchResult* result) {
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const FaultRule& rule = rules_[i];
    switch (rule.kind) {
      case FaultKind::kTimeout:
      case FaultKind::kOutage:
      case FaultKind::kFlap:
        continue;  // pre-exchange kinds
      default:
        break;
    }
    if (!Fires(rule, i, host, path, now)) continue;
    Count(rule.kind);
    switch (rule.kind) {
      case FaultKind::kHttpError: {
        result->response.status = rule.http_status;
        result->response.body.clear();
        result->response.max_age = 0;
        result->response.retry_after =
            rule.http_status == 503 ? rule.retry_after : 0;
        break;
      }
      case FaultKind::kTruncate: {
        const double keep =
            rule.keep_fraction < 0 ? 0
                                   : (rule.keep_fraction > 1 ? 1
                                                             : rule.keep_fraction);
        result->response.body.resize(static_cast<std::size_t>(
            static_cast<double>(result->response.body.size()) * keep));
        break;
      }
      case FaultKind::kCorrupt: {
        Bytes& body = result->response.body;
        if (body.empty()) break;
        std::uint64_t h = DecisionHash(seed_ ^ 0xC0DEull, i, host, path, now);
        for (std::size_t b = 0; b < rule.corrupt_bytes; ++b) {
          h = util::Mix64(h);
          body[h % body.size()] ^= static_cast<std::uint8_t>(1 + (h >> 32) % 255);
        }
        break;
      }
      case FaultKind::kLatency: {
        result->elapsed_seconds *= rule.latency_factor;
        break;
      }
      default:
        break;
    }
  }
}

}  // namespace rev::net
