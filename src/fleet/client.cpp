#include "fleet/client.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "serve/status_index.h"

namespace rev::fleet {

namespace {

// Span-id salt for per-replica legs (failover attempts, hedges, panic
// re-walks); combined with a per-query leg counter so no two legs of one
// query collide.
constexpr std::uint64_t kLegSalt = 0xF1EE7A77ull;

// Replicas tried per query (preference-list length).
constexpr std::size_t kMaxReplicas = 3;
// Per-attempt exchange timeout.
constexpr double kTimeoutSeconds = 2.0;
// Floor on the client-side mark-down a 503 Retry-After causes.
constexpr std::int64_t kMarkdownFloorSeconds = 1;

}  // namespace

FleetClient::FleetClient(net::SimNet* net, const HashRing* ring,
                         FleetClientOptions options)
    : net_(net), ring_(ring), options_(std::move(options)) {}

FleetClient::Attempt FleetClient::TryReplica(const std::string& host,
                                             BytesView request_der,
                                             BytesView key, util::Timestamp now,
                                             const obs::SpanContext* ctx) {
  net::HttpRequest request;
  request.method = "POST";
  request.host = host;
  // Not `= "/"`: GCC 12 reports a false -Wrestrict on that assignment.
  request.path = std::string(1, '/');
  request.body.assign(request_der.begin(), request_der.end());
  if (ctx != nullptr) {
    request.headers[obs::kTraceparentHeader] = obs::FormatTraceparent(*ctx);
  }
  const net::FetchResult result = net_->Fetch(request, now, kTimeoutSeconds);

  Attempt attempt;
  attempt.elapsed_seconds = result.elapsed_seconds;
  attempt.slow = result.elapsed_seconds > kHedgeBudgetSeconds;
  if (result.error == net::FetchError::kOk && result.response.status == 503) {
    // Honor the shed hint: skip this replica until the hint expires.
    counters_.shed_503++;
    const std::int64_t wait =
        std::max(result.response.retry_after, kMarkdownFloorSeconds);
    marked_down_until_[host] = now + wait;
    return attempt;
  }
  if (result.error != net::FetchError::kOk || result.response.status != 200)
    return attempt;

  const auto parsed = ocsp::ParseOcspResponse(result.response.body);
  if (!parsed || parsed->status != ocsp::ResponseStatus::kSuccessful) {
    counters_.invalid_bodies++;
    return attempt;
  }
  // The answer must be about the certificate we asked about, and (when the
  // responder key is pinned) carry a verifying signature — a storm-corrupted
  // body that happens to parse is rejected here, never believed.
  if (parsed->single.cert_id.serial != serve::SerialOfKey(key)) {
    counters_.invalid_bodies++;
    return attempt;
  }
  if (options_.responder_key &&
      !ocsp::VerifyOcspSignature(*parsed, *options_.responder_key)) {
    counters_.invalid_bodies++;
    return attempt;
  }
  attempt.valid = true;
  attempt.status = parsed->single.status;
  attempt.produced_at = parsed->produced_at;
  return attempt;
}

FleetClient::QueryResult FleetClient::Query(BytesView request_der,
                                            BytesView key,
                                            util::Timestamp now) {
  counters_.queries++;
  QueryResult qr;

  obs::DistTraceCollector& collector = obs::DistTraceCollector::Global();
  const bool traced = collector.enabled();
  obs::SpanContext root_ctx;
  std::uint64_t leg_counter = 0;
  if (traced) {
    // One trace per query, seeded deterministically; every failover and
    // hedge leg below shares it.
    qr.trace_id = obs::MakeTraceId(options_.trace_seed, ++trace_counter_);
    root_ctx = obs::SpanContext{qr.trace_id, obs::RootSpanId(qr.trace_id)};
  }
  // Emits the root "fleet.query" span on every exit path, once
  // qr.elapsed_seconds holds the client-observed latency — the span the
  // critical-path extractor tiles against that latency.
  struct RootSpanGuard {
    bool traced;
    obs::DistTraceCollector& collector;
    const obs::SpanContext& ctx;
    util::Timestamp now;
    const QueryResult& qr;
    ~RootSpanGuard() {
      if (!traced) return;
      obs::DistSpan span;
      span.trace = ctx.trace;
      span.span = ctx.span;
      span.parent = 0;
      span.name = "fleet.query";
      span.node = "client";
      span.kind = obs::SpanKind::kInternal;
      span.status = qr.ok ? 200 : 0;
      span.start_ns = obs::VirtualNs(now, 0);
      span.end_ns = obs::VirtualNs(now, qr.elapsed_seconds);
      collector.Record(span);
    }
  } root_guard{traced, collector, root_ctx, now, qr};
  // One leg = one replica attempt. The leg span covers the attempt on the
  // continuous virtual clock (`offset` = elapsed seconds since the query
  // started), and its context rides the wire so the exchange and server
  // spans stitch under it.
  const auto try_leg = [&](const std::string& host, util::Timestamp at,
                           double offset, const char* name) {
    if (!traced) return TryReplica(host, request_der, key, at, nullptr);
    const obs::SpanContext leg{
        root_ctx.trace, obs::DeriveSpanId(root_ctx, kLegSalt + leg_counter++)};
    const Attempt attempt = TryReplica(host, request_der, key, at, &leg);
    obs::DistSpan span;
    span.trace = root_ctx.trace;
    span.span = leg.span;
    span.parent = root_ctx.span;
    span.name = name;
    span.node = obs::InternName(host);
    span.kind = obs::SpanKind::kInternal;
    span.status = attempt.valid ? 200 : 0;
    span.start_ns = obs::VirtualNs(now, offset);
    span.end_ns = obs::VirtualNs(now, offset + attempt.elapsed_seconds);
    collector.Record(span);
    return attempt;
  };

  auto prefs = ring_->PreferenceList(key, kMaxReplicas);
  // The ring can offer nothing (health marked everything down); fall
  // straight through to last-resort routing below with an empty walk.
  // Skip client-marked-down replicas — unless that would leave nothing to
  // try, in which case desperation overrides the marks.
  std::vector<const std::string*> candidates;
  candidates.reserve(prefs.size());
  for (const std::string* host : prefs) {
    const auto it = marked_down_until_.find(*host);
    if (it != marked_down_until_.end() && now < it->second) {
      counters_.markdown_skips++;
      continue;
    }
    candidates.push_back(host);
  }
  if (candidates.empty()) candidates = prefs;

  const std::string* primary = prefs.empty() ? nullptr : prefs.front();
  double elapsed = 0;
  std::vector<const std::string*> tried;
  const auto accept = [&](const std::string& host, const Attempt& attempt,
                          double total_elapsed) {
    qr.ok = true;
    qr.status = attempt.status;
    qr.produced_at = attempt.produced_at;
    qr.elapsed_seconds = total_elapsed;
    qr.served_by = host;
    qr.failed_over = (primary == nullptr || host != *primary);
    counters_.answered++;
  };

  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const std::string& host = *candidates[i];
    const auto at = now + static_cast<util::Timestamp>(elapsed);
    if (i > 0) counters_.failovers++;
    tried.push_back(candidates[i]);
    const Attempt first = try_leg(host, at, elapsed, "fleet.attempt");
    qr.replicas_tried++;

    if (first.valid && !first.slow) {
      accept(host, first, elapsed + first.elapsed_seconds);
      return qr;
    }
    if (!first.valid && !first.slow) {
      // Fast failure (refused / 503 / bad body): plain failover.
      elapsed += first.elapsed_seconds;
      continue;
    }

    // Slow attempt (timeout or latency storm): hedge to the next replica
    // at the budget mark, take whichever answer lands first.
    if (i + 1 < candidates.size()) {
      const std::string& hedge_host = *candidates[i + 1];
      counters_.hedges++;
      qr.hedged = true;
      tried.push_back(candidates[i + 1]);
      const auto hedge_at =
          now + static_cast<util::Timestamp>(elapsed + kHedgeBudgetSeconds);
      const Attempt second =
          try_leg(hedge_host, hedge_at, elapsed + kHedgeBudgetSeconds,
                  "fleet.hedge");
      qr.replicas_tried++;
      const double first_done = first.elapsed_seconds;
      const double second_done = kHedgeBudgetSeconds + second.elapsed_seconds;
      if (second.valid && (!first.valid || second_done < first_done)) {
        counters_.hedge_wins++;
        accept(hedge_host, second, elapsed + second_done);
        return qr;
      }
      if (first.valid) {
        accept(host, first, elapsed + first_done);
        return qr;
      }
      // Both lost: both ran concurrently, so the client waited for the
      // later of the two before moving on past both replicas.
      elapsed += std::max(first_done, second_done);
      ++i;
      continue;
    }
    if (first.valid) {
      accept(host, first, elapsed + first.elapsed_seconds);
      return qr;
    }
    elapsed += first.elapsed_seconds;
  }

  // Last-resort (panic) routing: every admitted candidate failed, so walk
  // the ring again with health marks ignored and try the replicas not yet
  // touched. A health-evicted replica may still hold a valid signed answer
  // — stale at worst, and validation above rejects anything worse.
  const auto everyone =
      ring_->PreferenceList(key, ring_->node_count(), /*include_disabled=*/true);
  for (const std::string* host : everyone) {
    bool already = false;
    for (const std::string* seen : tried)
      if (*seen == *host) { already = true; break; }
    if (already) continue;
    counters_.last_resort++;
    counters_.failovers++;
    const auto at = now + static_cast<util::Timestamp>(elapsed);
    const Attempt attempt = try_leg(*host, at, elapsed, "fleet.attempt");
    qr.replicas_tried++;
    if (attempt.valid) {
      accept(*host, attempt, elapsed + attempt.elapsed_seconds);
      return qr;
    }
    elapsed += attempt.elapsed_seconds;
  }

  counters_.exhausted++;
  qr.elapsed_seconds = elapsed;
  return qr;
}

}  // namespace rev::fleet
