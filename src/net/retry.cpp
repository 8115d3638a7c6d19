#include "net/retry.h"

#include <algorithm>
#include <cmath>

#include "net/url.h"
#include "obs/distrace.h"
#include "obs/metrics.h"
#include "util/hash.h"

namespace rev::net {

namespace {

// Span-id salts: each retry attempt (and each backoff wait) gets a
// distinct child of the caller's span, so the exchange spans SimNet
// records underneath never collide across attempts.
constexpr std::uint64_t kAttemptSalt = 0xA77E3B9Dull;
constexpr std::uint64_t kBackoffSalt = 0xBAC0FF5Dull;

struct RetryMetrics {
  obs::Counter& retries;
  obs::Counter& gave_up;
  obs::Counter& corrupt_bodies;
  obs::Histogram& backoff_ns;

  static RetryMetrics& Get() {
    static RetryMetrics* metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      return new RetryMetrics{
          registry.GetCounter("net.retries"),
          registry.GetCounter("net.fetch_gave_up"),
          registry.GetCounter("net.corrupt_bodies"),
          registry.GetHistogram("net.backoff_delay_ns"),
      };
    }();
    return *metrics;
  }
};

}  // namespace

double BackoffDelay(const RetryPolicy& policy, std::string_view key,
                    int attempt) {
  if (attempt <= 0) return 0;
  if (policy.initial_backoff_seconds <= 0) return 0;
  // jitter = 1 would make the window [0, base] and the non-decreasing
  // invariant unsatisfiable by any finite multiplier; 0.9 keeps the
  // required multiplier at most 10.
  const double jitter = std::clamp(policy.jitter, 0.0, 0.9);
  // The low edge of attempt k+1's window must clear the high edge of
  // attempt k's: multiplier * (1 - jitter) >= 1. A config below that bound
  // would silently produce *decreasing* backoff, so clamp up to the
  // smallest compliant multiplier instead of honoring it.
  const double multiplier =
      std::max({policy.backoff_multiplier, 1.0, 1.0 / (1.0 - jitter)});

  double base = policy.initial_backoff_seconds;
  for (int i = 1; i < attempt; ++i) {
    // Once even the low edge of the jitter window clears the cap, every
    // later delay is exactly the cap — stop multiplying (and never
    // overflow).
    if (base * (1.0 - jitter) >= policy.max_backoff_seconds)
      return policy.max_backoff_seconds;
    base *= multiplier;
  }

  std::uint64_t h = util::MixString(key, util::Mix64(policy.seed ^ 0x5E77ull));
  h = util::Mix64(h ^ static_cast<std::uint64_t>(attempt));
  const double jittered = base * (1.0 - jitter * util::UnitFromHash(h));
  return std::min(jittered, policy.max_backoff_seconds);
}

bool IsRetryable(const FetchResult& result) {
  switch (result.error) {
    case FetchError::kTimeout:
    case FetchError::kConnectionRefused:
    case FetchError::kCorruptBody:
      return true;
    case FetchError::kDnsFailure:
      return false;  // NXDOMAIN is definitive
    case FetchError::kOk:
      break;
  }
  // 5xx is transient in general, but 501 Not Implemented and 505 HTTP
  // Version Not Supported are the server saying "this request shape will
  // never work here" — retrying the identical request cannot help, so they
  // are terminal like 4xx (tests/net_test.cpp pins both).
  const int status = result.response.status;
  if (status == 501 || status == 505) return false;
  return status >= 500;
}

RetryResult FetchWithRetry(SimNet& net, const HttpRequest& request,
                           util::Timestamp now, const RetryPolicy& policy,
                           double timeout_seconds,
                           const ResponseValidator& validate) {
  RetryResult out;
  RetryMetrics& metrics = RetryMetrics::Get();
  const std::string key = request.host + request.path;
  const int max_attempts = std::max(1, policy.max_attempts);

  obs::DistTraceCollector& collector = obs::DistTraceCollector::Global();
  obs::SpanContext parent;
  bool traced = false;
  if (collector.enabled()) {
    const auto it = request.headers.find(obs::kTraceparentHeader);
    traced = it != request.headers.end() &&
             obs::ParseTraceparent(it->second, &parent);
  }
  HttpRequest traced_request;  // copied once; header rewritten per attempt
  if (traced) traced_request = request;

  double elapsed = 0;
  std::int64_t pending_retry_after = 0;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    double wait = 0;
    if (attempt > 0) {
      // A 503's Retry-After is a lower bound on the wait, never a
      // replacement for the (possibly longer) computed backoff.
      wait = std::max(BackoffDelay(policy, key, attempt),
                      static_cast<double>(pending_retry_after));
      if (traced && wait > 0) {
        obs::DistSpan span;
        span.trace = parent.trace;
        span.span = obs::DeriveSpanId(
            parent, kBackoffSalt + static_cast<std::uint64_t>(attempt));
        span.parent = parent.span;
        span.name = "net.backoff";
        span.node = "client";
        span.kind = obs::SpanKind::kInternal;
        span.start_ns = obs::VirtualNs(now, elapsed);
        span.end_ns = obs::VirtualNs(now, elapsed + wait);
        collector.Record(span);
      }
      elapsed += wait;
      out.backoff_seconds += wait;
      metrics.retries.Increment();
      metrics.backoff_ns.RecordSeconds(wait);
    }

    // Each attempt happens on the simulated clock at `now` plus everything
    // spent so far, so fault windows and flap phases see honest time.
    const util::Timestamp at = now + static_cast<util::Timestamp>(elapsed);
    const HttpRequest* to_send = &request;
    obs::SpanContext attempt_ctx;
    if (traced) {
      // Each attempt is a distinct child span; SimNet's exchange span
      // parents under it, so retries never share exchange span ids.
      attempt_ctx = {parent.trace,
                     obs::DeriveSpanId(
                         parent, kAttemptSalt +
                                     static_cast<std::uint64_t>(attempt))};
      traced_request.headers[obs::kTraceparentHeader] =
          obs::FormatTraceparent(attempt_ctx);
      to_send = &traced_request;
    }
    FetchResult fetch = net.Fetch(*to_send, at, timeout_seconds);
    if (fetch.ok() && validate && !validate(fetch.response)) {
      fetch.error = FetchError::kCorruptBody;
      metrics.corrupt_bodies.Increment();
    }
    if (traced) {
      obs::DistSpan span;
      span.trace = parent.trace;
      span.span = attempt_ctx.span;
      span.parent = parent.span;
      span.name = "net.attempt";
      span.node = "client";
      span.kind = obs::SpanKind::kInternal;
      span.status = fetch.error == FetchError::kOk
                        ? fetch.response.status
                        : -1 - static_cast<std::int32_t>(fetch.error);
      span.start_ns = obs::VirtualNs(at, 0);
      span.end_ns = obs::VirtualNs(at, fetch.elapsed_seconds);
      collector.Record(span);
    }
    elapsed += fetch.elapsed_seconds;
    out.total_bytes += fetch.bytes_transferred;
    out.attempts = attempt + 1;
    out.schedule.push_back({at, wait, fetch.elapsed_seconds, fetch.error,
                            fetch.response.status, fetch.response.retry_after});

    pending_retry_after =
        fetch.response.status == 503 ? fetch.response.retry_after : 0;
    const bool retryable = IsRetryable(fetch);
    out.fetch = std::move(fetch);
    if (!retryable) break;  // success or a definitive failure
    if (attempt + 1 == max_attempts) {
      out.gave_up = true;
      metrics.gave_up.Increment();
    }
  }

  out.total_elapsed_seconds = elapsed;
  out.finished_at = now + static_cast<util::Timestamp>(elapsed);
  return out;
}

RetryResult GetWithRetry(SimNet& net, std::string_view url,
                         util::Timestamp now, const RetryPolicy& policy,
                         double timeout_seconds,
                         const ResponseValidator& validate) {
  auto parsed = ParseUrl(url);
  if (!parsed) {
    RetryResult out;
    out.fetch.error = FetchError::kDnsFailure;
    out.finished_at = now;
    return out;
  }
  HttpRequest request;
  request.method = "GET";
  request.host = parsed->host;
  request.path = parsed->path;
  return FetchWithRetry(net, request, now, policy, timeout_seconds, validate);
}

RetryResult PostWithRetry(SimNet& net, std::string_view url, BytesView body,
                          util::Timestamp now, const RetryPolicy& policy,
                          double timeout_seconds,
                          const ResponseValidator& validate) {
  auto parsed = ParseUrl(url);
  if (!parsed) {
    RetryResult out;
    out.fetch.error = FetchError::kDnsFailure;
    out.finished_at = now;
    return out;
  }
  HttpRequest request;
  request.method = "POST";
  request.host = parsed->host;
  request.path = parsed->path;
  request.body.assign(body.begin(), body.end());
  return FetchWithRetry(net, request, now, policy, timeout_seconds, validate);
}

}  // namespace rev::net
