// Capped exponential backoff with deterministic jitter for the simulated
// fetch stack.
//
// Every client of SimNet that must survive a FaultPlan storm — the CRL
// crawler, the caching client, the browser's revocation checks, load
// clients of the serving frontend — routes its exchanges through
// FetchWithRetry(). Retries happen on *transient* failures (timeouts,
// refused connections, 5xx, and caller-detected corrupt bodies); NXDOMAIN
// is definitive and never retried, and so are 501 Not Implemented and 505
// HTTP Version Not Supported — 5xx codes that condemn the request shape,
// not the moment. A 503's Retry-After hint is honored as
// a lower bound on the next attempt (the client side of the serve
// frontend's load shedding).
//
// Time stays simulated: each attempt happens at `now + elapsed so far`,
// where elapsed accumulates both the per-attempt exchange costs and the
// backoff waits. Jitter is a pure function of (policy seed, key, attempt),
// so a retried crawl is exactly as reproducible as an unretried one
// (docs/fault-injection.md).
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "net/simnet.h"
#include "util/time.h"

namespace rev::net {

struct RetryPolicy {
  // Total attempts including the first; 1 disables retrying.
  int max_attempts = 3;
  double initial_backoff_seconds = 1.0;
  // Delay grows by this factor per retry. Delays are non-decreasing only
  // when multiplier >= 1/(1 - jitter) — the low edge of the next jitter
  // window must clear the high edge of the current one — so BackoffDelay
  // clamps any smaller configured value up to that bound rather than
  // silently producing decreasing backoff (property_test pins both the
  // guarantee and the clamp).
  double backoff_multiplier = 2.0;
  double max_backoff_seconds = 60.0;
  // Delay is drawn from [(1 - jitter) * base, base]; 0 = no jitter.
  // Effective jitter is clamped to [0, 0.9]: at 1.0 the window floor hits
  // zero and no finite multiplier could keep delays ordered.
  double jitter = 0.5;
  // Decorrelates jitter streams between independent clients.
  std::uint64_t seed = 0;

  static RetryPolicy None() {
    RetryPolicy policy;
    policy.max_attempts = 1;
    return policy;
  }
};

// The jittered backoff before retry attempt `attempt` (attempt 1 = first
// retry). Pure function of its inputs, and non-decreasing in `attempt` up
// to the cap for EVERY policy: configs whose multiplier violates
// multiplier >= 1/(1 - jitter) are clamped to the smallest compliant
// multiplier rather than honored.
double BackoffDelay(const RetryPolicy& policy, std::string_view key,
                    int attempt);

// Classifies a completed exchange: true when another attempt could help.
// (DNS failure and 4xx are definitive; timeout/refused/5xx are not.)
bool IsRetryable(const FetchResult& result);

// Caller-supplied body check, run on every 200 response. Returning false
// marks the attempt failed-retryable with FetchError::kCorruptBody — the
// hook by which truncated, bit-flipped or forged CRL and OCSP bodies,
// caught by the crawler's parse and signature checks, re-enter the retry
// loop.
using ResponseValidator = std::function<bool(const HttpResponse&)>;

struct RetryResult {
  FetchResult fetch;  // the final attempt (elapsed covers that attempt only)
  int attempts = 1;
  // Simulated elapsed over the whole sequence: every attempt's exchange
  // cost plus every backoff wait. This is what callers account as the
  // fetch's cost.
  double total_elapsed_seconds = 0;
  double backoff_seconds = 0;  // the waits alone
  // Wire bytes summed over every attempt (failed attempts included).
  std::uint64_t total_bytes = 0;
  // Virtual time at which the sequence ended (now + total elapsed).
  util::Timestamp finished_at = 0;
  // Retries exhausted while the failure stayed retryable.
  bool gave_up = false;

  // Per-attempt schedule, for tests and honest accounting.
  struct Attempt {
    util::Timestamp at = 0;        // virtual start time of the attempt
    double wait_before = 0;        // backoff slept before it (0 for first)
    double elapsed_seconds = 0;    // the exchange's own cost
    FetchError error = FetchError::kOk;
    int http_status = 0;
    std::int64_t retry_after = 0;  // hint carried by this attempt's response
  };
  std::vector<Attempt> schedule;

  bool ok() const { return fetch.ok(); }
};

// Executes `request` with retries under `policy`. The validator (optional)
// vets every 200 body; `key` for jitter derivation is the request URL.
RetryResult FetchWithRetry(SimNet& net, const HttpRequest& request,
                           util::Timestamp now, const RetryPolicy& policy,
                           double timeout_seconds = 10.0,
                           const ResponseValidator& validate = nullptr);

// GET / POST conveniences mirroring SimNet::Get/Post.
RetryResult GetWithRetry(SimNet& net, std::string_view url,
                         util::Timestamp now, const RetryPolicy& policy,
                         double timeout_seconds = 10.0,
                         const ResponseValidator& validate = nullptr);
RetryResult PostWithRetry(SimNet& net, std::string_view url, BytesView body,
                          util::Timestamp now, const RetryPolicy& policy,
                          double timeout_seconds = 10.0,
                          const ResponseValidator& validate = nullptr);

}  // namespace rev::net
