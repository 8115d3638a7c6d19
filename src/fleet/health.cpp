#include "fleet/health.h"

#include <utility>

#include "fleet/replica.h"

namespace rev::fleet {

namespace {

constexpr int kDownAfter = 2;  // consecutive failed probes to evict
constexpr int kUpAfter = 2;    // consecutive good probes to (re)admit
constexpr double kProbeTimeoutSeconds = 1.0;

}  // namespace

HealthMonitor::HealthMonitor(HashRing* ring)
    : ring_(ring),
      metrics_label_("monitor=" + std::to_string(obs::NextInstanceId())),
      probes_(obs::MetricsRegistry::Global().GetCounter("fleet.health.probes",
                                                        metrics_label_)),
      probe_failures_(obs::MetricsRegistry::Global().GetCounter(
          "fleet.health.probe_failures", metrics_label_)),
      marked_down_(obs::MetricsRegistry::Global().GetCounter(
          "fleet.health.marked_down", metrics_label_)),
      marked_up_(obs::MetricsRegistry::Global().GetCounter(
          "fleet.health.marked_up", metrics_label_)) {}

void HealthMonitor::AddTarget(std::string host) {
  targets_.push_back({.host = std::move(host)});
}

std::size_t HealthMonitor::ProbeAll(net::SimNet& net, util::Timestamp now) {
  std::size_t transitions = 0;
  for (Target& target : targets_) {
    probes_.Increment();
    const net::FetchResult result =
        net.Get("http://" + target.host + Replica::kHealthPath, now,
                kProbeTimeoutSeconds);
    const std::string body(result.response.body.begin(),
                           result.response.body.end());
    const bool healthy = result.ok() && body.rfind("ok epoch=", 0) == 0 &&
                         body.find("warmed=1") != std::string::npos;
    if (healthy) {
      target.consecutive_bad = 0;
      if (target.consecutive_ok < kUpAfter) ++target.consecutive_ok;
      if (!target.admitted && target.consecutive_ok >= kUpAfter) {
        target.admitted = true;
        ring_->SetEnabled(target.host, true);
        marked_up_.Increment();
        ++transitions;
      }
    } else {
      probe_failures_.Increment();
      target.consecutive_ok = 0;
      if (target.consecutive_bad < kDownAfter) ++target.consecutive_bad;
      if (target.admitted && target.consecutive_bad >= kDownAfter) {
        target.admitted = false;
        ring_->SetEnabled(target.host, false);
        marked_down_.Increment();
        ++transitions;
      }
    }
  }
  return transitions;
}

bool HealthMonitor::IsUp(const std::string& host) const {
  for (const Target& target : targets_)
    if (target.host == host) return target.admitted;
  return false;
}

HealthMonitor::Counters HealthMonitor::counters() const {
  Counters counters;
  counters.probes = probes_.Value();
  counters.probe_failures = probe_failures_.Value();
  counters.marked_down = marked_down_.Value();
  counters.marked_up = marked_up_.Value();
  return counters;
}

}  // namespace rev::fleet
