#include "fleet/health.h"

#include <utility>

#include "fleet/replica.h"
#include "util/rng.h"
#include "util/wire.h"

namespace rev::fleet {

HealthMonitor::HealthMonitor(HashRing* ring, HealthOptions options)
    : ring_(ring),
      options_(options),
      metrics_label_("monitor=" + std::to_string(obs::NextInstanceId())),
      probes_(obs::MetricsRegistry::Global().GetCounter("fleet.health.probes",
                                                        metrics_label_)),
      probe_failures_(obs::MetricsRegistry::Global().GetCounter(
          "fleet.health.probe_failures", metrics_label_)),
      marked_down_(obs::MetricsRegistry::Global().GetCounter(
          "fleet.health.marked_down", metrics_label_)),
      marked_up_(obs::MetricsRegistry::Global().GetCounter(
          "fleet.health.marked_up", metrics_label_)) {
  if (options_.down_after < 1) options_.down_after = 1;
  if (options_.up_after < 1) options_.up_after = 1;
}

void HealthMonitor::AddTarget(std::string host) {
  Target target;
  target.host = std::move(host);
  if (options_.probe_spread_seconds > 0) {
    // Per-target stream forked off the seed: stable across rounds, distinct
    // across targets.
    util::Rng rng(options_.seed ^ util::wire::Fnv1a(BytesView(
                      reinterpret_cast<const std::uint8_t*>(
                          target.host.data()),
                      target.host.size())));
    target.probe_offset = static_cast<std::int64_t>(
        rng.NextBelow(static_cast<std::uint64_t>(
            options_.probe_spread_seconds + 1)));
  }
  targets_.push_back(std::move(target));
}

std::size_t HealthMonitor::ProbeAll(net::SimNet& net, util::Timestamp now) {
  std::size_t transitions = 0;
  for (Target& target : targets_) {
    probes_.Increment();
    const net::FetchResult result =
        net.Get("http://" + target.host + Replica::kHealthPath,
                now + target.probe_offset, options_.probe_timeout_seconds);
    const std::string body(result.response.body.begin(),
                           result.response.body.end());
    const bool healthy = result.ok() && body.rfind("ok epoch=", 0) == 0 &&
                         body.find("warmed=1") != std::string::npos;
    if (healthy) {
      target.consecutive_bad = 0;
      if (target.consecutive_ok < options_.up_after) ++target.consecutive_ok;
      if (!target.admitted && target.consecutive_ok >= options_.up_after) {
        target.admitted = true;
        ring_->SetEnabled(target.host, true);
        marked_up_.Increment();
        ++transitions;
      }
    } else {
      probe_failures_.Increment();
      target.consecutive_ok = 0;
      if (target.consecutive_bad < options_.down_after)
        ++target.consecutive_bad;
      if (target.admitted && target.consecutive_bad >= options_.down_after) {
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
