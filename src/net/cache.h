// A client-side HTTP cache keyed by URL, honoring the response's max_age.
//
// Browsers cache CRLs and OCSP responses; the paper observes 95% of CRLs
// expire within 24 hours, limiting the bandwidth savings (§5.2). The cache
// makes that dynamic measurable.
//
// Get() is safe to call from multiple threads (the revocation crawler fans
// CRL fetches out across a ThreadPool); lookups use the map's transparent
// comparator so no temporary std::string is built on the hot path, and
// expired entries are erased when encountered so a months-long simulated
// crawl cannot grow the cache without bound.
#pragma once

#include <map>
#include <mutex>
#include <string>

#include "net/retry.h"
#include "net/simnet.h"
#include "obs/metrics.h"

namespace rev::net {

class CachingClient {
 public:
  explicit CachingClient(SimNet* net);

  struct Result {
    FetchResult fetch;   // elapsed is 0 for cache hits; for a retried
                         // fetch it covers the whole sequence (attempt
                         // costs + backoff waits)
    bool from_cache = false;
    int attempts = 0;    // network attempts made (0 for cache hits)
  };

  // GETs the URL, serving from cache when a fresh entry exists. Thread-safe.
  Result Get(std::string_view url, util::Timestamp now,
             double timeout_seconds = 10.0);

  // Retrying form: on a cache miss the fetch runs under `retry` through
  // FetchWithRetry, with `validate` vetting every 200 body before it can
  // be cached (a corrupt CRL must never poison the cache). One *logical*
  // fetch counts exactly one miss no matter how many attempts it took —
  // the hit/miss/eviction counters stay meaningful under storms
  // (tests/net_test.cpp pins this).
  Result Get(std::string_view url, util::Timestamp now,
             const RetryPolicy& retry,
             const ResponseValidator& validate = nullptr,
             double timeout_seconds = 10.0);

  // Erases every entry whose lifetime ended at or before `now`; returns the
  // number removed. Get() already evicts lazily on access — this sweeps
  // entries for URLs that are never requested again.
  std::size_t PruneExpired(util::Timestamp now);

  // Cache management. Clear() drops entries but — like every registry
  // counter — never rewinds the tallies: hits/misses/evictions are
  // monotonic over the client's lifetime (tests/obs_test.cpp pins this).
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    cache_.clear();
  }
  std::size_t EntryCount() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cache_.size();
  }
  std::uint64_t hits() const { return hits_.Value(); }
  std::uint64_t misses() const { return misses_.Value(); }
  std::uint64_t evictions() const { return evictions_.Value(); }

 private:
  struct Entry {
    HttpResponse response;
    util::Timestamp expires = 0;
  };

  SimNet* net_;
  mutable std::mutex mu_;  // guards cache_; counters are lock-free
  std::map<std::string, Entry, std::less<>> cache_;
  // Registry instruments labelled per instance ("net.cache.hits{client=N}")
  // so several clients in one process keep exact separate tallies while
  // still showing up in the global /metrics exposition.
  std::string metrics_label_;
  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& evictions_;
};

}  // namespace rev::net
