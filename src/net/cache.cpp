#include "net/cache.h"

namespace rev::net {

CachingClient::CachingClient(SimNet* net)
    : net_(net),
      metrics_label_("client=" + std::to_string(obs::NextInstanceId())),
      hits_(obs::MetricsRegistry::Global().GetCounter("net.cache.hits",
                                                      metrics_label_)),
      misses_(obs::MetricsRegistry::Global().GetCounter("net.cache.misses",
                                                        metrics_label_)),
      evictions_(obs::MetricsRegistry::Global().GetCounter(
          "net.cache.evictions", metrics_label_)) {}

CachingClient::Result CachingClient::Get(std::string_view url,
                                         util::Timestamp now,
                                         double timeout_seconds) {
  return Get(url, now, RetryPolicy::None(), nullptr, timeout_seconds);
}

CachingClient::Result CachingClient::Get(std::string_view url,
                                         util::Timestamp now,
                                         const RetryPolicy& retry,
                                         const ResponseValidator& validate,
                                         double timeout_seconds) {
  Result result;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(url);  // heterogeneous: no temporary string
    if (it != cache_.end()) {
      if (now < it->second.expires) {
        hits_.Increment();
        result.from_cache = true;
        result.fetch.error = FetchError::kOk;
        result.fetch.response = it->second.response;
        result.fetch.elapsed_seconds = 0;
        return result;
      }
      // Stale: erase now rather than leaving a dead entry behind (the
      // refetch below may fail or come back uncacheable).
      cache_.erase(it);
      evictions_.Increment();
    }
    // One logical fetch = one miss: the retry loop below may hit the
    // network several times, but the counter moves exactly once.
    misses_.Increment();
  }
  // Network I/O happens outside the lock; SimNet serializes internally.
  RetryResult fetched =
      GetWithRetry(*net_, url, now, retry, timeout_seconds, validate);
  result.attempts = fetched.attempts;
  result.fetch = std::move(fetched.fetch);
  // The caller accounts the whole sequence (attempts + backoff) as this
  // fetch's simulated cost; per-attempt detail stays in the retry layer.
  result.fetch.elapsed_seconds = fetched.total_elapsed_seconds;
  result.fetch.bytes_transferred = fetched.total_bytes;
  if (result.fetch.ok() && result.fetch.response.max_age > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    // The std::string is built only when actually storing a new entry.
    cache_.insert_or_assign(
        std::string(url),
        Entry{result.fetch.response, now + result.fetch.response.max_age});
  }
  return result;
}

std::size_t CachingClient::PruneExpired(util::Timestamp now) {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t removed = 0;
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (now >= it->second.expires) {
      it = cache_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  // Monotonic accounting: a sweep only ever *adds* to the eviction tally,
  // exactly like the lazy erase-on-access path.
  evictions_.Add(removed);
  return removed;
}

}  // namespace rev::net
