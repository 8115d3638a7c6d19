#include "core/crawler.h"

#include <algorithm>
#include <chrono>
#include <set>

#include "crl/crl.h"
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

// The CRL in `body` if it parses, names one of `issuers` and verifies under
// that issuer's key.
template <typename Issuers>
std::optional<crl::CrlView> AcceptCrl(BytesView body, const Issuers& issuers) {
  std::optional<crl::CrlView> view = crl::ParseCrlView(body);
  if (!view) return std::nullopt;
  for (const auto& issuer : issuers)
    if (std::ranges::equal(view->issuer_der, issuer.name_der) &&
        crl::VerifyCrlSignature(*view, issuer.key))
      return view;
  return std::nullopt;
}

// The OCSP response in `body` if it parses and, when successful, is signed
// by `key` and answers `asked`. An error response carries neither.
std::optional<ocsp::OcspResponse> AcceptOcspResponse(
    BytesView body, const crypto::PublicKey& key, const ocsp::CertId& asked) {
  std::optional<ocsp::OcspResponse> response = ocsp::ParseOcspResponse(body);
  if (response && response->status == ocsp::ResponseStatus::kSuccessful &&
      (!ocsp::VerifyOcspSignature(*response, key) ||
       response->single.cert_id != asked))
    return std::nullopt;
  return response;
}

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
  // The certificates that may sign a CRL, by subject name: roots first,
  // then Intermediate Set members, the order Finalize matches them in.
  std::map<Bytes, std::vector<const x509::Certificate*>, util::BytesLess>
      by_subject;
  for (const x509::CertPtr& root : pipeline.roots().all())
    by_subject[root->tbs.subject.Encode()].push_back(root.get());
  for (const x509::CertPtr& cert : pipeline.IntermediateSet())
    by_subject[cert->tbs.subject.Encode()].push_back(cert.get());
  const auto add = [&](const std::string& url, BytesView issuer_name) {
    const auto it = by_subject.find(issuer_name);
    if (it == by_subject.end()) return;
    for (const x509::Certificate* issuer : it->second) AddUrl(url, *issuer);
  };

  // Columnar walk: URLs and names are interned ids, so dedup (URL, issuer
  // name) pairs by id first and build a std::string only once per pair.
  const CertCorpus& corpus = pipeline.corpus();
  std::set<std::pair<std::uint32_t, std::uint32_t>> url_issuers;
  for (const CertCorpus::Row row : pipeline.LeafSet()) {
    for (const std::uint32_t id : corpus.crl_url_ids(row))
      url_issuers.emplace(id, corpus.issuer_id(row));
  }
  for (const auto& [url_id, name_id] : url_issuers)
    add(std::string(corpus.url(url_id)), corpus.name_der(name_id));
  for (const x509::CertPtr& cert : pipeline.IntermediateSet()) {
    const Bytes issuer_name = cert->tbs.issuer.Encode();
    for (const std::string& url : cert->tbs.crl_urls) add(url, issuer_name);
  }
}

void RevocationCrawler::AddUrl(const std::string& url,
                               const x509::Certificate& issuer) {
  // The paper only follows http[s] URLs (ldap:// and file:// are ignored).
  if (!net::IsFetchable(url)) return;
  Issuer candidate{issuer.tbs.subject.Encode(), issuer.tbs.public_key};
  std::vector<Issuer>& issuers = urls_[url];
  if (std::ranges::find(issuers, candidate) == issuers.end())
    issuers.push_back(std::move(candidate));
}

std::size_t RevocationCrawler::CrawlAll(util::Timestamp now) {
  obs::Span visit_span("crawl.visit");
  const auto wall_start = std::chrono::steady_clock::now();

  // Phase 1 — fan out: fetch + verify every URL, one slot per URL. Workers
  // touch only their own slot; the cache, the simulated network, and the
  // crawler state they share are either internally synchronized (client_,
  // net_) or not written until the merge below.
  struct Outcome {
    net::CachingClient::Result result;
    std::optional<crl::CrlView> crl;  // aliases result's body
  };
  std::vector<const decltype(urls_)::value_type*> urls;
  urls.reserve(urls_.size());
  for (const auto& url : urls_) urls.push_back(&url);
  std::vector<Outcome> outcomes(urls.size());
  if (!pool_) pool_ = std::make_unique<util::ThreadPool>(threads_);
  pool_->ParallelFor(urls.size(), [&](std::size_t i) {
    obs::Span fetch_span("crawl.fetch");
    const auto fetch_start = std::chrono::steady_clock::now();
    Outcome& out = outcomes[i];
    const auto& [url, issuers] = *urls[i];
    // The validator keeps only a CRL one of the URL's issuers signed, so a
    // truncated, corrupted or forged body is retried and never cached. The
    // view it keeps aliases the body, which the fetch result moves along
    // but never copies.
    out.result = client_.Get(url, now, kCrawlRetry,
                             [&](const net::HttpResponse& response) {
                               out.crl = AcceptCrl(response.body, issuers);
                               return out.crl.has_value();
                             });
    // A cache hit skips the validator: it was accepted when it was stored.
    if (out.result.from_cache)
      out.crl = crl::ParseCrlView(out.result.fetch.response.body);
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
    const std::string& url = urls[i]->first;
    Outcome& out = outcomes[i];
    seconds_spent_ += out.result.fetch.elapsed_seconds;
    if (out.result.attempts > 1)
      metrics.retries.Add(static_cast<std::uint64_t>(out.result.attempts - 1));
    if (!out.result.fetch.ok() || !out.crl) {
      // Exhausted retries (every body unverifiable or no body at all):
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
    const crl::CrlView& crl = *out.crl;

    CrawledCrl& crawled = crawled_[url];
    crawled.url = url;
    crawled.issuer_name_der.assign(crl.issuer_der.begin(),
                                   crl.issuer_der.end());
    crawled.size_bytes = crl.der.size();
    crawled.num_entries = crl.num_entries;
    crawled.this_update = crl.this_update;
    crawled.next_update = crl.next_update;
    crawled.stale = false;
    crawled.stale_age_seconds = 0;
    crawled.last_good_fetch = now;

    for (const crl::CrlEntryView& entry : crl.entries) {
      RevocationInfo info;
      info.revoked_at = entry.revocation_date;
      info.reason = entry.reason;
      info.first_seen_in_crl = now;
      if (db_.Insert(crl.issuer_der, entry.serial, info)) ++new_entries;
    }
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
    // As for CRLs, the validator keeps only an answer the issuer signed,
    // here to the question asked; anything else is retried.
    std::optional<ocsp::OcspResponse> response;
    const net::RetryResult retried = net::PostWithRetry(
        *net_, url, ocsp::EncodeOcspRequest(request), now, kCrawlRetry,
        /*timeout_seconds=*/10.0, [&](const net::HttpResponse& http) {
          response = AcceptOcspResponse(http.body, issuer.tbs.public_key,
                                        request.cert_ids.front());
          return response.has_value();
        });
    seconds_spent_ += retried.total_elapsed_seconds;
    if (retried.attempts > 1)
      metrics_->retries.Add(static_cast<std::uint64_t>(retried.attempts - 1));
    const net::FetchResult& fetch = retried.fetch;
    if (!fetch.ok() || !response) {
      metrics_->fetch_fail.Increment();
      ++url_failures_[url];
      continue;
    }
    metrics_->bytes_downloaded.Add(fetch.response.body.size());
    if (response->status != ocsp::ResponseStatus::kSuccessful) continue;
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
