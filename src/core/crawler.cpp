#include "core/crawler.h"

#include <chrono>

#include "net/retry.h"
#include "net/url.h"
#include "obs/distrace.h"
#include "obs/metrics.h"

namespace rev::core {

namespace {

// Retry policy for every CRL/OCSP exchange (docs/fault-injection.md). A
// daily crawl can afford to wait out a 5xx burst or a flap: four attempts
// with minutes-scale caps before falling back to the previous snapshot.
constexpr net::RetryPolicy kCrawlRetry{.max_attempts = 4,
                                       .initial_backoff_seconds = 5,
                                       .backoff_multiplier = 2,
                                       .max_backoff_seconds = 300,
                                       .jitter = 0.5};

}  // namespace

// Per-crawler instruments, labelled "crawler=N" (docs/observability.md):
// the one tally behind bytes_downloaded(), fetch_failures(), retries() and
// stale_served(), plus a latency histogram over the *real* wall time of
// each fetch+parse (the simulated network cost stays in seconds_spent()).
struct RevocationCrawler::Instruments {
  explicit Instruments(
      std::string_view label,
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global())
      : fetch_ok(registry.GetCounter("crawl.fetch_ok", label)),
        fetch_fail(registry.GetCounter("crawl.fetch_fail", label)),
        bytes_downloaded(registry.GetCounter("crawl.bytes_downloaded", label)),
        revocations(
            registry.GetCounter("crawl.revocations_discovered", label)),
        ocsp_queries(registry.GetCounter("crawl.ocsp_queries", label)),
        retries(registry.GetCounter("crawl.retries", label)),
        stale_served(registry.GetCounter("crawl.stale_served", label)),
        fetch_ns(registry.GetHistogram("crawl.fetch_ns", label)) {}

  obs::Counter& fetch_ok;
  obs::Counter& fetch_fail;
  obs::Counter& bytes_downloaded;
  obs::Counter& revocations;
  obs::Counter& ocsp_queries;
  obs::Counter& retries;
  obs::Counter& stale_served;
  obs::Histogram& fetch_ns;
};

RevocationCrawler::RevocationCrawler(net::SimNet* net, unsigned threads)
    : net_(net),
      client_(net),
      threads_(threads),
      metrics_(std::make_unique<Instruments>(
          "crawler=" + std::to_string(obs::NextInstanceId()))) {}

RevocationCrawler::~RevocationCrawler() = default;

std::uint64_t RevocationCrawler::bytes_downloaded() const {
  return metrics_->bytes_downloaded.Value();
}

std::uint64_t RevocationCrawler::fetch_failures() const {
  return metrics_->fetch_fail.Value();
}

std::uint64_t RevocationCrawler::retries() const {
  return metrics_->retries.Value();
}

std::uint64_t RevocationCrawler::stale_served() const {
  return metrics_->stale_served.Value();
}

void RevocationCrawler::set_threads(unsigned threads) {
  threads_ = threads;
  pool_.reset();  // rebuilt at the new size on the next CrawlAll
}

void RevocationCrawler::CollectUrls(const Pipeline& pipeline) {
  // Columnar walk: URLs are interned ids, so dedup by id first and build a
  // std::string only once per distinct URL.
  const CertCorpus& corpus = pipeline.corpus();
  std::set<std::uint32_t> url_ids;
  for (const CertCorpus::Row row : pipeline.LeafSet()) {
    for (const std::uint32_t id : corpus.crl_url_ids(row)) url_ids.insert(id);
  }
  for (const std::uint32_t id : url_ids) AddUrl(std::string(corpus.url(id)));
  for (const x509::CertPtr& cert : pipeline.IntermediateSet()) {
    for (const std::string& url : cert->tbs.crl_urls) AddUrl(url);
  }
}

void RevocationCrawler::AddUrl(const std::string& url) {
  // The paper only follows http[s] URLs (ldap:// and file:// are ignored).
  if (net::IsFetchable(url)) urls_.insert(url);
}

std::size_t RevocationCrawler::CrawlAll(util::Timestamp now) {
  obs::Span visit_span("crawl.visit");
  const auto wall_start = std::chrono::steady_clock::now();

  // Phase 1 — fan out: fetch + parse every URL, one slot per URL. Workers
  // touch only their own slot; the cache, the simulated network, and the
  // crawler state they share are either internally synchronized (client_,
  // net_) or not written until the merge below.
  struct Outcome {
    net::CachingClient::Result result;
    std::optional<crl::Crl> parsed;
  };
  const std::vector<std::string> urls(urls_.begin(), urls_.end());
  std::vector<Outcome> outcomes(urls.size());
  if (!pool_) pool_ = std::make_unique<util::ThreadPool>(threads_);
  pool_->ParallelFor(urls.size(), [&](std::size_t i) {
    obs::Span fetch_span("crawl.fetch");
    const auto fetch_start = std::chrono::steady_clock::now();
    Outcome& out = outcomes[i];
    // The parse-as-validator makes truncated/bit-corrupted bodies
    // retryable and keeps them out of the HTTP cache.
    out.result = client_.Get(urls[i], now, kCrawlRetry,
                             [](const net::HttpResponse& response) {
                               return crl::ParseCrl(response.body).has_value();
                             });
    if (out.result.fetch.ok())
      out.parsed = crl::ParseCrl(out.result.fetch.response.body);
    metrics_->fetch_ns.RecordSeconds(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      fetch_start)
            .count());
  });

  // Phase 2 — deterministic merge in URL-sorted order (the order the old
  // serial loop used): counter accumulation (including the floating-point
  // seconds sum) and revocation-DB insertion are byte-identical to the
  // serial run at any thread count.
  std::size_t new_entries = 0;
  Instruments& metrics = *metrics_;
  for (std::size_t i = 0; i < urls.size(); ++i) {
    const std::string& url = urls[i];
    Outcome& out = outcomes[i];
    seconds_spent_ += out.result.fetch.elapsed_seconds;
    if (out.result.attempts > 1)
      metrics.retries.Add(static_cast<std::uint64_t>(out.result.attempts - 1));
    if (!out.result.fetch.ok() || !out.parsed) {
      // Exhausted retries (or an unparseable body that survived them):
      // count the failure, and if a previous crawl produced a snapshot,
      // keep serving it marked stale — revocations already learned must
      // not vanish because an endpoint is having a bad day.
      metrics.fetch_fail.Increment();
      ++url_failures_[url];
      auto stale_it = crawled_.find(url);
      if (stale_it != crawled_.end()) {
        stale_it->second.stale = true;
        ++stale_it->second.stale_crawls;
        stale_it->second.stale_age_seconds =
            now - stale_it->second.last_good_fetch;
        metrics.stale_served.Increment();
      }
      continue;
    }
    if (!out.result.from_cache)
      metrics.bytes_downloaded.Add(out.result.fetch.response.body.size());

    metrics.fetch_ok.Increment();
    crl::Crl& parsed = *out.parsed;

    CrawledCrl& crawled = crawled_[url];
    crawled.url = url;
    crawled.issuer_name_der = parsed.tbs.issuer.Encode();
    crawled.size_bytes = parsed.der.size();
    crawled.num_entries = parsed.tbs.entries.size();
    crawled.this_update = parsed.tbs.this_update;
    crawled.next_update = parsed.tbs.next_update;
    crawled.stale = false;
    crawled.stale_age_seconds = 0;
    crawled.last_good_fetch = now;

    for (const crl::CrlEntry& entry : parsed.tbs.entries) {
      RevocationInfo info;
      info.revoked_at = entry.revocation_date;
      info.reason = entry.reason;
      info.first_seen_in_crl = now;
      if (db_.Insert(crawled.issuer_name_der, entry.serial, info))
        ++new_entries;
    }
    crawled.crl = std::move(parsed);
  }
  metrics.revocations.Add(new_entries);
  crawl_wall_seconds_ += std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - wall_start)
                             .count();
  return new_entries;
}

std::optional<ocsp::CertStatus> RevocationCrawler::QueryOcsp(
    const x509::Certificate& cert, const x509::Certificate& issuer,
    util::Timestamp now) {
  obs::Span span("crawl.ocsp_query");
  for (const std::string& url : cert.tbs.ocsp_urls) {
    if (!net::IsFetchable(url)) continue;
    metrics_->ocsp_queries.Increment();
    ocsp::OcspRequest request;
    request.cert_ids = {ocsp::MakeCertId(issuer, cert.tbs.serial)};
    const net::RetryResult retried = net::PostWithRetry(
        *net_, url, ocsp::EncodeOcspRequest(request), now, kCrawlRetry,
        /*timeout_seconds=*/10.0, [](const net::HttpResponse& response) {
          return ocsp::ParseOcspResponse(response.body).has_value();
        });
    seconds_spent_ += retried.total_elapsed_seconds;
    if (retried.attempts > 1)
      metrics_->retries.Add(static_cast<std::uint64_t>(retried.attempts - 1));
    const net::FetchResult& fetch = retried.fetch;
    if (!fetch.ok()) {
      metrics_->fetch_fail.Increment();
      ++url_failures_[url];
      continue;
    }
    metrics_->bytes_downloaded.Add(fetch.response.body.size());
    auto response = ocsp::ParseOcspResponse(fetch.response.body);
    if (!response || response->status != ocsp::ResponseStatus::kSuccessful)
      continue;
    if (response->single.status == ocsp::CertStatus::kRevoked) {
      RevocationInfo info;
      info.revoked_at = response->single.revocation_time;
      info.reason = response->single.reason;
      info.first_seen_in_crl = now;
      db_.Insert(cert.tbs.issuer.Encode(), cert.tbs.serial, info);
    }
    return response->single.status;
  }
  return std::nullopt;
}

const RevocationInfo* RevocationCrawler::Lookup(
    const x509::Name& issuer, const x509::Serial& serial) const {
  return db_.Lookup(issuer.Encode(), serial);
}

std::size_t RevocationCrawler::total_revocations() const { return db_.size(); }

std::map<x509::ReasonCode, std::size_t> RevocationCrawler::ReasonCodeHistogram()
    const {
  std::map<x509::ReasonCode, std::size_t> histogram;
  for (const auto& [key, info] : db_.entries()) ++histogram[info.reason];
  return histogram;
}

}  // namespace rev::core
