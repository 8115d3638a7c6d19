#include "core/stapling_audit.h"

#include <map>

namespace rev::core {

StaplingStats ComputeStaplingStats(const scan::HandshakeScanSnapshot& scan) {
  StaplingStats stats;
  struct CertAgg {
    bool ev = false;
    std::uint64_t servers = 0;
    std::uint64_t stapled = 0;
  };
  std::map<Bytes, CertAgg, util::BytesLess> per_cert;

  for (const scan::HandshakeObservation& obs : scan.observations) {
    if (!obs.leaf || !obs.leaf->IsFresh(scan.time)) continue;
    ++stats.servers_total;
    if (obs.sent_staple) ++stats.servers_stapled;
    CertAgg& agg = per_cert[obs.leaf->Fingerprint()];
    agg.ev = obs.leaf->IsEv();
    ++agg.servers;
    if (obs.sent_staple) ++agg.stapled;
  }

  for (const auto& [fp, agg] : per_cert) {
    ++stats.fresh_certs;
    const bool any = agg.stapled > 0;
    const bool all = agg.stapled == agg.servers;
    if (any) ++stats.certs_any_staple;
    if (any && all) ++stats.certs_all_staple;
    if (agg.ev) {
      ++stats.ev_fresh_certs;
      if (any) ++stats.ev_certs_any_staple;
      if (any && all) ++stats.ev_certs_all_staple;
    }
  }
  return stats;
}

std::vector<double> StaplingRepeatCurve(scan::Internet& internet,
                                        util::Timestamp t, int max_requests,
                                        std::size_t sample,
                                        std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::size_t> alive;
  for (std::size_t i = 0; i < internet.size(); ++i) {
    if (internet.server(i).AliveAt(t)) alive.push_back(i);
  }
  // Partial Fisher–Yates to pick `sample` distinct servers.
  const std::size_t take = std::min(sample, alive.size());
  for (std::size_t i = 0; i < take; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.NextBelow(alive.size() - i));
    std::swap(alive[i], alive[j]);
  }

  std::vector<std::size_t> first_staple_at(static_cast<std::size_t>(max_requests) + 1, 0);
  std::size_t ever_stapled = 0;
  for (std::size_t i = 0; i < take; ++i) {
    const int attempts = scan::AttemptsUntilStaple(internet.server(alive[i]),
                                                   t, max_requests);
    if (attempts > 0) {
      ++ever_stapled;
      ++first_staple_at[static_cast<std::size_t>(attempts)];
    }
  }

  std::vector<double> curve;
  std::size_t cumulative = 0;
  for (int n = 1; n <= max_requests; ++n) {
    cumulative += first_staple_at[static_cast<std::size_t>(n)];
    curve.push_back(ever_stapled ? static_cast<double>(cumulative) /
                                       static_cast<double>(ever_stapled)
                                 : 0);
  }
  return curve;
}

}  // namespace rev::core
