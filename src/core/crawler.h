// The revocation crawler (§3.2): downloads every CRL distribution point
// named by the Leaf and Intermediate Sets once per day over the simulated
// network, and queries OCSP responders for the certificates that carry no
// CRL pointer. Builds a revocation database keyed by (issuer name, serial).
//
// CrawlAll() fans fetch+parse out per URL across a util::ThreadPool and
// merges the per-URL results into `crawled_` / the revocation database in
// URL-sorted order, so the database, the counters, and the Fig. 5/6/9
// series are byte-identical at every thread count (docs/parallelism.md).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/revocation_db.h"
#include "net/cache.h"
#include "net/simnet.h"
#include "ocsp/ocsp.h"
#include "util/thread_pool.h"
#include "x509/certificate.h"

namespace rev::core {

// Snapshot of the latest CRL accepted from one URL: what the Fig. 5/6/9
// analyses read of it. Its entries went into the revocation database.
struct CrawledCrl {
  std::string url;
  Bytes issuer_name_der;
  std::size_t size_bytes = 0;
  std::size_t num_entries = 0;
  util::Timestamp this_update = 0;
  util::Timestamp next_update = 0;

  // Degradation state (docs/fault-injection.md): when a crawl exhausts its
  // retries for this URL, the last good snapshot above keeps serving and is
  // marked stale with honest age accounting — the per-URL staleness series
  // feeding the Fig. 10 vulnerability-window analysis.
  bool stale = false;
  std::uint64_t stale_crawls = 0;        // lifetime count of stale serves
  util::Timestamp last_good_fetch = 0;   // crawl time of the snapshot above
  std::int64_t stale_age_seconds = 0;    // now - last_good_fetch, last crawl
};

class RevocationCrawler {
 public:
  // `threads` sizes the CrawlAll() fan-out: 0 = hardware concurrency,
  // 1 = the exact serial path.
  explicit RevocationCrawler(net::SimNet* net, unsigned threads = 0);
  ~RevocationCrawler();  // out of line: Instruments is incomplete here

  // Registers the CRL URLs of every certificate in the pipeline's Leaf and
  // Intermediate sets, each with the certificates that may sign its CRL:
  // the roots and Intermediate Set members whose subject is the issuer name
  // of a certificate naming the URL (the name match Finalize verifies by).
  // Call once after Pipeline::Finalize().
  void CollectUrls(const Pipeline& pipeline);

  // Registers `url` with `issuer` as one certificate that may sign its CRL.
  void AddUrl(const std::string& url, const x509::Certificate& issuer);

  // Crawls all registered CRLs at `now` (honoring HTTP cache lifetimes via
  // nextUpdate). A body is accepted only if it parses, names one of its
  // URL's issuers and verifies under that issuer's key; any other body is a
  // corrupt one (FetchError::kCorruptBody), retried and never cached.
  // Returns the number of *new* revocation entries discovered.
  std::size_t CrawlAll(util::Timestamp now);

  // Queries the OCSP responder for one certificate (used for the 642
  // CRL-less certificates, §3.2). Requires the issuer certificate: a
  // successful response counts only if `issuer`'s key signed it and it
  // answers the CertID asked; any other is a corrupt body.
  std::optional<ocsp::CertStatus> QueryOcsp(const x509::Certificate& cert,
                                            const x509::Certificate& issuer,
                                            util::Timestamp now);

  // Lookup: revocation info for (issuer, serial), or nullptr.
  const RevocationInfo* Lookup(const x509::Name& issuer,
                               const x509::Serial& serial) const;

  const std::map<std::string, CrawledCrl>& crawled() const { return crawled_; }
  // The full revocation database, keyed (issuer name DER, serial) — exposed
  // so determinism tests can compare two crawls byte for byte. Same map
  // type and iteration order as before the RevocationDb extraction.
  const RevocationDb::Map& revocations() const { return db_.entries(); }
  // The database itself, for analyses that run against a RevocationDb
  // directly (Table 1 / timeline / CRLSet columnar overloads).
  const RevocationDb& db() const { return db_; }
  std::size_t total_revocations() const;

  // §4.2: histogram of CRL reason codes across all discovered revocations
  // (the paper finds the vast majority carry no reason code at all).
  std::map<x509::ReasonCode, std::size_t> ReasonCodeHistogram() const;

  // Bandwidth/latency spent crawling (§5.2 cost analysis), CRL and OCSP
  // exchanges alike. These are *simulated* network costs and are merged
  // deterministically, so they match the serial run bit for bit. The
  // counts read this crawler's `crawl.*{crawler=N}` instruments.
  std::uint64_t bytes_downloaded() const;
  double seconds_spent() const { return seconds_spent_; }
  std::uint64_t fetch_failures() const;

  // Degradation/retry accounting, merged deterministically like the cost
  // counters above. `retries()` counts extra attempts beyond the first;
  // `stale_served()` counts crawls where a URL fell back to its last good
  // snapshot; `url_failures()` is the per-URL failed-crawl series
  // (including URLs that never produced a snapshot at all).
  std::uint64_t retries() const;
  std::uint64_t stale_served() const;
  const std::map<std::string, std::uint64_t>& url_failures() const {
    return url_failures_;
  }

  unsigned threads() const { return threads_; }
  void set_threads(unsigned threads);

  // Cost accounting: real wall time spent inside CrawlAll() across all
  // visits (the parallel-speedup counterpart of seconds_spent()).
  double crawl_wall_seconds() const { return crawl_wall_seconds_; }

 private:
  net::SimNet* net_;
  net::CachingClient client_;
  unsigned threads_;
  std::unique_ptr<util::ThreadPool> pool_;  // created on first CrawlAll
  // A certificate that may sign a URL's CRL: its subject and its key.
  struct Issuer {
    Bytes name_der;
    crypto::PublicKey key;
    friend bool operator==(const Issuer&, const Issuer&) = default;
  };
  std::map<std::string, std::vector<Issuer>> urls_;
  std::map<std::string, CrawledCrl> crawled_;
  RevocationDb db_;
  double seconds_spent_ = 0;
  double crawl_wall_seconds_ = 0;
  std::map<std::string, std::uint64_t> url_failures_;

  struct Instruments;
  std::unique_ptr<Instruments> metrics_;
};

}  // namespace rev::core
