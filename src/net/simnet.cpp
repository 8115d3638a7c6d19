#include "net/simnet.h"

#include "net/fault.h"
#include "obs/distrace.h"
#include "obs/metrics.h"

namespace rev::net {

namespace {

// Span-id salt for the wire exchange itself; the caller's per-attempt
// context (FetchWithRetry) keeps retries of one request distinct.
constexpr std::uint64_t kExchangeSalt = 0xE8C4A27Dull;

// Every fetch in the process lands in one of four status classes, plus a
// bytes counter — the fleet's bandwidth finally visible in one place.
struct FetchMetrics {
  obs::Counter& class_2xx;
  obs::Counter& class_4xx;
  obs::Counter& class_5xx;
  obs::Counter& class_err;
  obs::Counter& bytes;

  static FetchMetrics& Get() {
    // Leaked: counters outlive static teardown (registry semantics).
    static FetchMetrics* metrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      return new FetchMetrics{reg.GetCounter("net.fetch", "class=2xx"),
                              reg.GetCounter("net.fetch", "class=4xx"),
                              reg.GetCounter("net.fetch", "class=5xx"),
                              reg.GetCounter("net.fetch", "class=err"),
                              reg.GetCounter("net.fetch.bytes")};
    }();
    return *metrics;
  }
};

void CountFetch(const FetchResult& result) {
  FetchMetrics& m = FetchMetrics::Get();
  if (result.error != FetchError::kOk) {
    m.class_err.Increment();
  } else {
    switch (result.response.status / 100) {
      case 2: m.class_2xx.Increment(); break;
      case 4: m.class_4xx.Increment(); break;
      case 5: m.class_5xx.Increment(); break;
      default: m.class_err.Increment(); break;
    }
  }
  if (result.bytes_transferred > 0) m.bytes.Add(result.bytes_transferred);
}

}  // namespace

void SimNet::AddHost(std::string_view hostname, HttpHandler handler,
                     HostProfile profile) {
  std::lock_guard<std::mutex> lock(mu_);
  Host& host = hosts_[std::string(hostname)];
  host.handler = std::move(handler);
  host.profile = profile;
}

void SimNet::RemoveHost(std::string_view hostname) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = hosts_.find(hostname);
  if (it != hosts_.end()) hosts_.erase(it);
}

bool SimNet::HasHost(std::string_view hostname) const {
  std::lock_guard<std::mutex> lock(mu_);
  return hosts_.find(hostname) != hosts_.end();
}

void SimNet::SetDnsFailure(std::string_view hostname, bool fail) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = hosts_.find(hostname);
  if (it != hosts_.end()) it->second.dns_failure = fail;
}

void SimNet::SetUnresponsive(std::string_view hostname, bool unresponsive) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = hosts_.find(hostname);
  if (it != hosts_.end()) it->second.unresponsive = unresponsive;
}

void SimNet::SetFaultPlan(FaultPlan* plan) {
  std::lock_guard<std::mutex> lock(mu_);
  fault_plan_ = plan;
}

FetchResult SimNet::Fetch(const HttpRequest& request, util::Timestamp now,
                          double timeout_seconds) {
  obs::DistTraceCollector& collector = obs::DistTraceCollector::Global();
  obs::SpanContext parent;
  bool traced = false;
  if (collector.enabled()) {
    const auto it = request.headers.find(obs::kTraceparentHeader);
    traced = it != request.headers.end() &&
             obs::ParseTraceparent(it->second, &parent);
  }

  FetchResult result;
  if (traced) {
    // The exchange gets its own span id; the handler sees *that* context,
    // so server-side spans parent under the hop that carried them.
    const obs::SpanContext exchange{parent.trace,
                                    obs::DeriveSpanId(parent, kExchangeSalt)};
    HttpRequest forwarded = request;
    forwarded.headers[obs::kTraceparentHeader] =
        obs::FormatTraceparent(exchange);
    result = DoFetch(forwarded, now, timeout_seconds);

    obs::DistSpan span;
    span.trace = parent.trace;
    span.span = exchange.span;
    span.parent = parent.span;
    span.name = "net.exchange";
    span.node = obs::InternName(request.host);
    span.kind = obs::SpanKind::kClient;
    span.status = result.error == FetchError::kOk
                      ? result.response.status
                      : -1 - static_cast<std::int32_t>(result.error);
    span.start_ns = obs::VirtualNs(now, 0);
    span.end_ns = obs::VirtualNs(now, result.elapsed_seconds);
    collector.Record(span);
  } else {
    result = DoFetch(request, now, timeout_seconds);
  }
  CountFetch(result);
  return result;
}

FetchResult SimNet::DoFetch(const HttpRequest& request, util::Timestamp now,
                            double timeout_seconds) {
  // One lock spans the whole exchange: the handler may mutate CA state.
  std::lock_guard<std::mutex> lock(mu_);
  FetchResult result;
  ++total_requests_;

  auto it = hosts_.find(request.host);
  if (it == hosts_.end() || it->second.dns_failure) {
    result.error = FetchError::kDnsFailure;
    // A failed lookup costs roughly one resolver round trip.
    result.elapsed_seconds = 0.050;
    return result;
  }
  const Host& host = it->second;
  if (host.unresponsive) {
    result.error = FetchError::kTimeout;
    result.elapsed_seconds = timeout_seconds;
    return result;
  }
  if (!host.handler) {
    result.error = FetchError::kConnectionRefused;
    result.elapsed_seconds = host.profile.rtt_seconds;
    return result;
  }

  // Pre-exchange faults (timeout/outage/flap-down) consume the request
  // before the handler runs, like a connection that never forms.
  if (fault_plan_ != nullptr &&
      fault_plan_->ApplyBefore(request.host, request.path, now,
                               timeout_seconds, host.profile.rtt_seconds,
                               &result))
    return result;

  result.response = host.handler(request, now);

  // Cost model: DNS (1 RTT) + TCP handshake (1 RTT) + request/response
  // (1 RTT) + transfer time for the response body.
  const double transfer =
      static_cast<double>(result.response.body.size()) * 8.0 /
      host.profile.bandwidth_bps;
  result.elapsed_seconds = 3.0 * host.profile.rtt_seconds + transfer;

  // Post-exchange faults mutate the finished response (5xx substitution,
  // truncation, corruption) and/or inflate elapsed time; the timeout check
  // below therefore sees the inflated value.
  if (fault_plan_ != nullptr)
    fault_plan_->ApplyAfter(request.host, request.path, now, &result);

  const std::size_t wire_bytes =
      request.body.size() + result.response.body.size();
  result.bytes_transferred = wire_bytes;
  total_bytes_ += wire_bytes;

  if (result.elapsed_seconds > timeout_seconds) {
    result.error = FetchError::kTimeout;
    result.elapsed_seconds = timeout_seconds;
  }
  return result;
}

FetchResult SimNet::Get(std::string_view url, util::Timestamp now,
                        double timeout_seconds) {
  auto parsed = ParseUrl(url);
  if (!parsed) {
    FetchResult result;
    result.error = FetchError::kDnsFailure;
    return result;
  }
  HttpRequest request;
  request.method = "GET";
  request.host = parsed->host;
  request.path = parsed->path;
  return Fetch(request, now, timeout_seconds);
}

FetchResult SimNet::Post(std::string_view url, BytesView body,
                         util::Timestamp now, double timeout_seconds) {
  auto parsed = ParseUrl(url);
  if (!parsed) {
    FetchResult result;
    result.error = FetchError::kDnsFailure;
    return result;
  }
  HttpRequest request;
  request.method = "POST";
  request.host = parsed->host;
  request.path = parsed->path;
  request.body.assign(body.begin(), body.end());
  return Fetch(request, now, timeout_seconds);
}

std::uint64_t SimNet::total_requests() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_requests_;
}

std::uint64_t SimNet::total_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_bytes_;
}

void SimNet::ResetCounters() {
  std::lock_guard<std::mutex> lock(mu_);
  total_requests_ = 0;
  total_bytes_ = 0;
}

}  // namespace rev::net
