// Chaos suite: deterministic fault-injection storms over the fetch stack
// (docs/fault-injection.md).
//
// The contract under test: a seeded net::FaultPlan makes the simulated
// network misbehave — intermittent timeouts, 5xx bursts, flapping hosts,
// truncated and bit-corrupted bodies, latency inflation, hard outages —
// while the retry/degradation layer (net::FetchWithRetry, the crawler's
// stale-snapshot fallback) rides the storm out, and the whole run stays
// bit-reproducible: same seed ⇒ identical revocation database, staleness
// series, and counters at every thread count. scripts/ci.sh runs this
// suite under ThreadSanitizer (storms exercise the thread pool and the
// shared caches concurrently); scripts/tier1.sh runs the fixed-seed storm
// as a smoke with REV_CHAOS_SEED.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "ca/ca.h"
#include "core/crawler.h"
#include "core/ecosystem.h"
#include "core/pipeline.h"
#include "crl/crl.h"
#include "ingest_util.h"
#include "net/cache.h"
#include "net/fault.h"
#include "net/retry.h"
#include "ocsp/ocsp.h"
#include "ocsp/responder.h"
#include "scan/scanner.h"
#include "serve/frontend.h"
#include "util/rng.h"

namespace rev {
namespace {

constexpr std::int64_t kDay = util::kSecondsPerDay;
constexpr util::Timestamp kNow = 1'420'000'000;

// Storm seed, overridable so scripts/tier1.sh can pin a known seed for its
// smoke run (and anyone can replay a failing storm by exporting it).
std::uint64_t StormSeed() {
  if (const char* env = std::getenv("REV_CHAOS_SEED"))
    return std::strtoull(env, nullptr, 0);
  return 0xC0FFEE;
}

// The mixed storm used by the determinism and soak tests: every §3.2/§5
// unavailability flavor at once, plus a one-day hard outage pinned to the
// fourth crawl so the stale-serve path is guaranteed to fire.
void AddStormRules(net::FaultPlan& plan, util::Timestamp crawl_start) {
  net::FaultRule timeouts;
  timeouts.kind = net::FaultKind::kTimeout;
  timeouts.probability = 0.12;
  plan.AddRule(timeouts);

  net::FaultRule burst;
  burst.kind = net::FaultKind::kHttpError;
  burst.http_status = 503;
  burst.retry_after = 45;
  burst.probability = 0.10;
  plan.AddRule(burst);

  net::FaultRule corrupt;
  corrupt.kind = net::FaultKind::kCorrupt;
  corrupt.probability = 0.06;
  corrupt.corrupt_bytes = 3;
  plan.AddRule(corrupt);

  net::FaultRule truncate;
  truncate.kind = net::FaultKind::kTruncate;
  truncate.probability = 0.05;
  truncate.keep_fraction = 0.4;
  plan.AddRule(truncate);

  net::FaultRule latency;
  latency.kind = net::FaultKind::kLatency;
  latency.probability = 0.10;
  latency.latency_factor = 4.0;
  plan.AddRule(latency);

  // Period deliberately co-prime with the 7-day crawl cadence so the wave
  // phase differs crawl to crawl.
  net::FaultRule flap;
  flap.kind = net::FaultKind::kFlap;
  flap.up_seconds = static_cast<std::int64_t>(2.6 * kDay);
  flap.down_seconds = static_cast<std::int64_t>(1.7 * kDay);
  flap.probability = 0.8;
  plan.AddRule(flap);

  net::FaultRule outage;
  outage.kind = net::FaultKind::kOutage;
  outage.start = crawl_start + 3 * 7 * kDay - kDay / 2;
  outage.end = outage.start + kDay;
  plan.AddRule(outage);
}

// ------------------------------------------------- storm determinism ----

// The acceptance bar: a fixed-seed chaos storm over the full crawler is
// bit-reproducible — two runs, and threads=1 vs threads=8, produce
// identical revocation databases, stale-serve series, retry counters, and
// per-kind fault tallies.
TEST(ChaosStorm, DeterministicAcrossThreadCountsAndRuns) {
  struct Run {
    std::unique_ptr<core::Ecosystem> eco;
    std::unique_ptr<core::Pipeline> pipeline;
    std::unique_ptr<core::RevocationCrawler> crawler;
    std::unique_ptr<net::FaultPlan> plan;
  };
  auto build = [](unsigned threads) {
    Run run;
    core::EcosystemConfig config;
    config.scale = 0.001;
    config.seed = 11;
    run.eco = core::Ecosystem::Build(config);
    const core::EcosystemConfig& c = run.eco->config();
    run.pipeline = std::make_unique<core::Pipeline>(run.eco->roots(), threads);
    for (util::Timestamp t = c.study_start; t <= c.study_end; t += 14 * kDay)
      IngestSnapshot(*run.pipeline, scan::RunCertScan(run.eco->internet(), t));
    run.pipeline->Finalize();

    run.plan = std::make_unique<net::FaultPlan>(StormSeed());
    AddStormRules(*run.plan, c.crawl_start);
    run.eco->net().SetFaultPlan(run.plan.get());

    run.crawler =
        std::make_unique<core::RevocationCrawler>(&run.eco->net(), threads);
    run.crawler->CollectUrls(*run.pipeline);
    for (util::Timestamp t = c.crawl_start; t <= c.study_end; t += 7 * kDay)
      run.crawler->CrawlAll(t);
    run.eco->net().SetFaultPlan(nullptr);
    return run;
  };

  const Run serial = build(1);
  const Run parallel = build(8);
  const Run replay = build(8);

  // The storm actually stormed, and the resilience layer actually worked.
  EXPECT_GT(serial.plan->total_injected(), 0u);
  EXPECT_GT(serial.crawler->retries(), 0u);
  EXPECT_GT(serial.crawler->stale_served(), 0u);
  EXPECT_GT(serial.crawler->fetch_failures(), 0u);
  EXPECT_GT(serial.crawler->total_revocations(), 0u);

  // Each crawler's counts are its own: they agree with tallies only that
  // crawler keeps. Counters shared by the three crawlers in this process
  // would read the sum of all three runs here.
  for (const Run* run : {&serial, &parallel, &replay}) {
    std::uint64_t url_failures = 0;
    for (const auto& [url, failures] : run->crawler->url_failures())
      url_failures += failures;
    EXPECT_EQ(run->crawler->fetch_failures(), url_failures);
    std::uint64_t stale_crawls = 0;
    for (const auto& [url, crawled] : run->crawler->crawled())
      stale_crawls += crawled.stale_crawls;
    EXPECT_EQ(run->crawler->stale_served(), stale_crawls);
  }

  auto expect_identical = [](const Run& a, const Run& b) {
    // Fault tallies, per kind.
    for (std::size_t k = 0; k < net::kNumFaultKinds; ++k)
      EXPECT_EQ(a.plan->injected(static_cast<net::FaultKind>(k)),
                b.plan->injected(static_cast<net::FaultKind>(k)))
          << net::FaultKindName(static_cast<net::FaultKind>(k));

    // Cost, failure, retry, and staleness counters — exact, doubles
    // included (the merge order is fixed).
    EXPECT_EQ(a.crawler->bytes_downloaded(), b.crawler->bytes_downloaded());
    EXPECT_EQ(a.crawler->seconds_spent(), b.crawler->seconds_spent());
    EXPECT_EQ(a.crawler->fetch_failures(), b.crawler->fetch_failures());
    EXPECT_EQ(a.crawler->retries(), b.crawler->retries());
    EXPECT_EQ(a.crawler->stale_served(), b.crawler->stale_served());
    EXPECT_EQ(a.crawler->url_failures(), b.crawler->url_failures());

    // The crawled-CRL snapshots, staleness series included.
    ASSERT_EQ(a.crawler->crawled().size(), b.crawler->crawled().size());
    auto ia = a.crawler->crawled().begin();
    auto ib = b.crawler->crawled().begin();
    for (; ia != a.crawler->crawled().end(); ++ia, ++ib) {
      ASSERT_EQ(ia->first, ib->first);
      EXPECT_EQ(ia->second.url, ib->second.url);
      EXPECT_EQ(ia->second.issuer_name_der, ib->second.issuer_name_der);
      EXPECT_EQ(ia->second.size_bytes, ib->second.size_bytes);
      EXPECT_EQ(ia->second.num_entries, ib->second.num_entries);
      EXPECT_EQ(ia->second.this_update, ib->second.this_update);
      EXPECT_EQ(ia->second.next_update, ib->second.next_update);
      EXPECT_EQ(ia->second.stale, ib->second.stale);
      EXPECT_EQ(ia->second.stale_crawls, ib->second.stale_crawls);
      EXPECT_EQ(ia->second.last_good_fetch, ib->second.last_good_fetch);
      EXPECT_EQ(ia->second.stale_age_seconds, ib->second.stale_age_seconds);
    }

    // The revocation database, byte for byte.
    ASSERT_EQ(a.crawler->revocations().size(), b.crawler->revocations().size());
    auto ra = a.crawler->revocations().begin();
    auto rb = b.crawler->revocations().begin();
    for (; ra != a.crawler->revocations().end(); ++ra, ++rb) {
      ASSERT_EQ(ra->first, rb->first);
      EXPECT_EQ(ra->second.revoked_at, rb->second.revoked_at);
      EXPECT_EQ(ra->second.reason, rb->second.reason);
      EXPECT_EQ(ra->second.first_seen_in_crl, rb->second.first_seen_in_crl);
    }
  };

  expect_identical(serial, parallel);  // threads=1 vs threads=8
  expect_identical(parallel, replay);  // same seed, run twice
}

// ---------------------------------------------------- flapping recovery ----

TEST(ChaosRetry, FlappingHostRecoversThroughBackoff) {
  net::SimNet net;
  net.AddHost("flap.sim", [](const net::HttpRequest&, util::Timestamp) {
    net::HttpResponse response;
    response.body = ToBytes("alive");
    return response;
  });
  net::FaultPlan plan(7);
  net::FaultRule flap;
  flap.kind = net::FaultKind::kFlap;
  flap.up_seconds = 60;
  flap.down_seconds = 60;
  plan.AddRule(flap);
  net.SetFaultPlan(&plan);

  // t=90 sits in the down half-wave [60, 120).
  EXPECT_FALSE(net.Get("http://flap.sim/x", 90).ok());

  net::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_seconds = 20;
  policy.backoff_multiplier = 2;
  policy.jitter = 0;  // exact schedule: attempts at t=90, 110, 150
  const net::RetryResult result =
      net::GetWithRetry(net, "http://flap.sim/x", 90, policy);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.attempts, 3);
  EXPECT_FALSE(result.gave_up);
  ASSERT_EQ(result.schedule.size(), 3u);
  EXPECT_EQ(result.schedule[0].error, net::FetchError::kConnectionRefused);
  EXPECT_EQ(result.schedule[1].error, net::FetchError::kConnectionRefused);
  EXPECT_EQ(result.schedule[2].error, net::FetchError::kOk);
  // Recovery happened after the wave came back up at t=120.
  EXPECT_GE(result.schedule[2].at, 120);
  EXPECT_EQ(ToString(result.fetch.response.body), "alive");
}

// ------------------------------------------- corrupt body -> retry -> ok ----

TEST(ChaosRetry, CorruptedBodyRejectedRetriedAndNeverCached) {
  net::SimNet net;
  net.AddHost("c.sim", [](const net::HttpRequest&, util::Timestamp) {
    net::HttpResponse response;
    response.body = ToBytes("GOODBODY");
    response.max_age = 3600;
    return response;
  });
  net::FaultPlan plan(StormSeed());
  net::FaultRule corrupt;
  corrupt.kind = net::FaultKind::kCorrupt;
  corrupt.corrupt_bytes = 1;
  corrupt.start = 1000;  // only the first attempt falls in the window
  corrupt.end = 1001;
  plan.AddRule(corrupt);
  net.SetFaultPlan(&plan);

  net::CachingClient client(&net);
  net::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_seconds = 5;
  policy.jitter = 0;
  const auto validate = [](const net::HttpResponse& response) {
    return ToString(response.body) == "GOODBODY";
  };

  const auto result = client.Get("http://c.sim/x", 1000, policy, validate);
  EXPECT_TRUE(result.fetch.ok());
  EXPECT_EQ(result.attempts, 2);  // corrupt at t=1000, clean at t=1005
  EXPECT_EQ(ToString(result.fetch.response.body), "GOODBODY");
  EXPECT_EQ(client.misses(), 1u);  // one logical fetch = one miss
  EXPECT_EQ(client.hits(), 0u);
  EXPECT_EQ(plan.injected(net::FaultKind::kCorrupt), 1u);

  // Only the clean body made it into the cache.
  const auto again = client.Get("http://c.sim/x", 1010, policy, validate);
  EXPECT_TRUE(again.from_cache);
  EXPECT_EQ(ToString(again.fetch.response.body), "GOODBODY");
  EXPECT_EQ(client.hits(), 1u);
  EXPECT_EQ(client.misses(), 1u);
}

// ---------------------------------------------- crawler stale fallback ----

TEST(ChaosCrawler, StaleSnapshotServesThroughOutage) {
  util::Rng rng(42);
  ca::CertificateAuthority::Options options;
  options.name = "Stale";
  options.domain = "stale.sim";
  auto root = ca::CertificateAuthority::CreateRoot(options, rng, kNow - 400 * kDay);
  net::SimNet net;
  root->RegisterEndpoints(&net);

  ca::CertificateAuthority::IssueOptions issue;
  issue.common_name = "victim.sim";
  issue.not_before = kNow - 30 * kDay;
  const x509::CertPtr leaf = root->Issue(issue, rng);
  ASSERT_TRUE(root->Revoke(leaf->tbs.serial, kNow - 5 * kDay,
                           x509::ReasonCode::kKeyCompromise));

  core::RevocationCrawler crawler(&net, 1);
  const std::string url = root->CrlUrl(root->ShardForSerial(leaf->tbs.serial));
  crawler.AddUrl(url, *root->cert());

  // Day 0: a clean crawl captures the revocation.
  EXPECT_GE(crawler.CrawlAll(kNow), 1u);
  ASSERT_TRUE(crawler.crawled().contains(url));
  EXPECT_FALSE(crawler.crawled().at(url).stale);
  EXPECT_EQ(crawler.crawled().at(url).last_good_fetch, kNow);
  ASSERT_NE(crawler.Lookup(root->cert()->tbs.subject, leaf->tbs.serial),
            nullptr);

  // Day 1: hard outage. Retries exhaust, but the day-0 snapshot keeps
  // serving — marked stale, with honest age accounting — and the
  // revocation does not vanish.
  net::FaultPlan plan(3);
  net::FaultRule outage;
  outage.kind = net::FaultKind::kOutage;
  outage.start = kNow + kDay - 3600;
  outage.end = kNow + kDay + 3600;
  plan.AddRule(outage);
  net.SetFaultPlan(&plan);

  EXPECT_EQ(crawler.CrawlAll(kNow + kDay), 0u);
  const core::CrawledCrl& crawled = crawler.crawled().at(url);
  EXPECT_TRUE(crawled.stale);
  EXPECT_EQ(crawled.stale_crawls, 1u);
  EXPECT_EQ(crawled.stale_age_seconds, kDay);
  EXPECT_EQ(crawled.last_good_fetch, kNow);
  EXPECT_EQ(crawler.stale_served(), 1u);
  EXPECT_EQ(crawler.fetch_failures(), 1u);
  EXPECT_EQ(crawler.url_failures().at(url), 1u);
  EXPECT_GT(crawler.retries(), 0u);  // it did try before degrading
  const core::RevocationInfo* info =
      crawler.Lookup(root->cert()->tbs.subject, leaf->tbs.serial);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->revoked_at, kNow - 5 * kDay);

  // Day 2: the endpoint recovers; staleness clears.
  net.SetFaultPlan(nullptr);
  crawler.CrawlAll(kNow + 2 * kDay);
  EXPECT_FALSE(crawler.crawled().at(url).stale);
  EXPECT_EQ(crawler.crawled().at(url).stale_age_seconds, 0);
  EXPECT_EQ(crawler.crawled().at(url).last_good_fetch, kNow + 2 * kDay);
  EXPECT_EQ(crawler.crawled().at(url).stale_crawls, 1u);  // lifetime tally
}

// ------------------------------------------- only verified status counts ----

// A self-signed CA certificate whose key is derived from `name`.
x509::Certificate SimCa(const std::string& name) {
  x509::TbsCertificate tbs;
  tbs.serial = x509::Serial{0x01};
  tbs.issuer = tbs.subject = x509::Name::Make(name, "Chaos");
  tbs.not_before = 0;
  tbs.not_after = kNow + 100 * kDay;
  tbs.public_key = crypto::SimKeyFromLabel(name).Public();
  tbs.basic_constraints = {true, -1};
  return x509::SignCertificate(tbs, crypto::SimKeyFromLabel(name));
}

// A SimNet host that answers every path with `*body`, uncacheable.
void ServeBody(net::SimNet& net, const std::string& host, const Bytes* body) {
  net.AddHost(host, [body](const net::HttpRequest&, util::Timestamp) {
    net::HttpResponse response;
    response.body = *body;
    return response;
  });
}

// Ten entries signed by `signer`, under `issuer_name`.
crl::Crl TenEntryCrl(const x509::Name& issuer_name,
                     const crypto::KeyPair& signer) {
  crl::TbsCrl tbs;
  tbs.issuer = issuer_name;
  tbs.this_update = kNow;
  tbs.next_update = kNow + kDay;
  tbs.crl_number = 3;
  for (std::uint8_t i = 0; i < 10; ++i)
    tbs.entries.push_back({x509::Serial{0x40, i}, kNow - (i + 1) * kDay,
                           i % 3 == 0 ? x509::ReasonCode::kKeyCompromise
                                      : x509::ReasonCode::kNoReasonCode});
  return crl::SignCrl(tbs, signer);
}

// Every one-bit mutant of a signed CRL is served to the crawler, one crawl
// each: none may put an entry in the database, and each must count as a
// failed fetch. Neither may a CRL signed by the wrong key, nor one whose
// issuer is the CA of another URL, signed by that CA. The signed original
// is then accepted whole. No storm seed is involved.
TEST(ChaosCrawler, OnlyCrlsTheirIssuerSignedAreRecorded) {
  const x509::Certificate ca = SimCa("Verified CA");
  const x509::Certificate other = SimCa("Other CA");
  const crl::Crl original =
      TenEntryCrl(ca.tbs.subject, crypto::SimKeyFromLabel("Verified CA"));
  Bytes served;
  Bytes served_other = TenEntryCrl(other.tbs.subject,
                                   crypto::SimKeyFromLabel("Other CA")).der;
  net::SimNet net;
  ServeBody(net, "crl.verified.sim", &served);
  ServeBody(net, "crl.other.sim", &served_other);
  const std::string url = "http://crl.verified.sim/1.crl";
  core::RevocationCrawler crawler(&net, 1);
  crawler.AddUrl(url, ca);
  crawler.AddUrl("http://crl.other.sim/1.crl", other);

  // The database entries under `ca`'s name.
  const Bytes ca_name = ca.tbs.subject.Encode();
  const auto ca_revocations = [&] {
    return std::ranges::count_if(crawler.revocations(), [&](const auto& kv) {
      return kv.first.first == ca_name;
    });
  };

  util::Timestamp now = kNow;
  std::uint64_t failures = crawler.fetch_failures();
  const auto expect_rejected = [&](const std::string& what) {
    crawler.CrawlAll(now);
    now += 3600;
    EXPECT_EQ(ca_revocations(), 0) << what;
    EXPECT_EQ(crawler.total_revocations(), 10u) << what;  // the other CA's
    failures += 1;  // the other URL's CRL is accepted every time
    EXPECT_EQ(crawler.fetch_failures(), failures) << what;
    EXPECT_EQ(crawler.url_failures().at(url), failures) << what;
    EXPECT_FALSE(crawler.crawled().contains(url)) << what;
  };

  std::size_t parsed = 0;
  for (std::size_t bit = 0; bit < 8 * original.der.size(); ++bit) {
    served = original.der;
    served[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    parsed += crl::ParseCrlView(served).has_value();
    expect_rejected("bit " + std::to_string(bit));
    if (HasFailure()) return;
  }
  // Many mutants still parse (a flipped bit in a serial or a date keeps the
  // DER valid): the signature is what rejects them.
  EXPECT_GT(parsed, 8 * original.der.size() / 4);

  served = TenEntryCrl(ca.tbs.subject, crypto::SimKeyFromLabel("Forger")).der;
  expect_rejected("signed by the wrong key");
  served = served_other;
  expect_rejected("another URL's CA");

  served = original.der;
  EXPECT_EQ(crawler.CrawlAll(now), 10u);
  EXPECT_EQ(crawler.fetch_failures(), failures);
  ASSERT_EQ(ca_revocations(), 10);
  for (const crl::CrlEntry& entry : original.tbs.entries) {
    const core::RevocationInfo* info =
        crawler.Lookup(ca.tbs.subject, entry.serial);
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->revoked_at, entry.revocation_date);
    EXPECT_EQ(info->reason, entry.reason);
  }
  EXPECT_EQ(crawler.crawled().at(url).num_entries, 10u);
  EXPECT_EQ(crawler.crawled().at(url).size_bytes, original.der.size());
}

// QueryOcsp records a status only from a response the issuer signed that
// answers the CertID it sent.
TEST(ChaosCrawler, OnlyVerifiedOcspAnswersAreRecorded) {
  const x509::Certificate ca = SimCa("Ocsp CA");
  const crypto::KeyPair ca_key = crypto::SimKeyFromLabel("Ocsp CA");
  x509::Certificate leaf;
  leaf.tbs.serial = x509::Serial{0x51};
  leaf.tbs.issuer = ca.tbs.subject;
  leaf.tbs.ocsp_urls = {"http://ocsp.verified.sim/"};

  const auto revoked_answer = [&](const x509::Serial& serial,
                                  const crypto::KeyPair& signer) {
    ocsp::SingleResponse single;
    single.cert_id = ocsp::MakeCertId(ca, serial);
    single.status = ocsp::CertStatus::kRevoked;
    single.revocation_time = kNow - kDay;
    single.this_update = kNow;
    return ocsp::SignOcspResponse(single, kNow, signer).der;
  };
  Bytes served;
  net::SimNet net;
  ServeBody(net, "ocsp.verified.sim", &served);
  core::RevocationCrawler crawler(&net, 1);

  served = revoked_answer(leaf.tbs.serial, crypto::SimKeyFromLabel("Forger"));
  EXPECT_FALSE(crawler.QueryOcsp(leaf, ca, kNow));
  served = revoked_answer(x509::Serial{0x52}, ca_key);
  EXPECT_FALSE(crawler.QueryOcsp(leaf, ca, kNow));
  EXPECT_EQ(crawler.total_revocations(), 0u);
  EXPECT_EQ(crawler.fetch_failures(), 2u);

  served = revoked_answer(leaf.tbs.serial, ca_key);
  EXPECT_EQ(crawler.QueryOcsp(leaf, ca, kNow), ocsp::CertStatus::kRevoked);
  ASSERT_NE(crawler.Lookup(ca.tbs.subject, leaf.tbs.serial), nullptr);
  EXPECT_EQ(crawler.total_revocations(), 1u);
}

// ----------------------------------------------------------- soak loop ----

// Bounded soak: a month of simulated daily crawls under the mixed storm,
// with one fresh revocation per day. The invariant mirrors serve_test's
// shed-never-wrong-status: no matter what the storm does, the crawler's
// database never reports a status that disagrees with CA ground truth,
// and never loses an entry it once learned.
TEST(ChaosSoak, StatusNeverFlipsToAWrongValueUnderStorm) {
  constexpr int kDays = 30;
  util::Rng rng(1234);
  ca::CertificateAuthority::Options options;
  options.name = "Soak";
  options.domain = "soak.sim";
  auto root = ca::CertificateAuthority::CreateRoot(options, rng, kNow - 400 * kDay);
  net::SimNet net;
  root->RegisterEndpoints(&net);

  std::vector<x509::CertPtr> leaves;
  for (int i = 0; i < kDays; ++i) {
    ca::CertificateAuthority::IssueOptions issue;
    issue.common_name = "soak" + std::to_string(i) + ".sim";
    issue.not_before = kNow - 30 * kDay;
    leaves.push_back(root->Issue(issue, rng));
  }

  net::FaultPlan plan(StormSeed() ^ 0x50AB);
  AddStormRules(plan, kNow);
  net.SetFaultPlan(&plan);

  core::RevocationCrawler crawler(&net, 1);
  for (int shard = 0; shard < 1; ++shard)
    crawler.AddUrl(root->CrlUrl(shard), *root->cert());

  // Our Revoke() calls, and the crawler's reports.
  std::map<x509::Serial, util::Timestamp, util::BytesLess> truth;
  std::map<x509::Serial, util::Timestamp, util::BytesLess> ever_seen;
  for (int day = 0; day < kDays; ++day) {
    const util::Timestamp today = kNow + day * kDay;
    const x509::Serial& serial = leaves[static_cast<std::size_t>(day)]->tbs.serial;
    ASSERT_TRUE(root->Revoke(serial, today, x509::ReasonCode::kSuperseded));
    truth[serial] = today;

    crawler.CrawlAll(today + 3600);

    // Every database entry agrees with ground truth...
    for (const auto& [key, info] : crawler.revocations()) {
      const auto it = truth.find(key.second);
      ASSERT_NE(it, truth.end()) << "crawler invented a revocation";
      EXPECT_EQ(info.revoked_at, it->second) << "revocation time flipped";
    }
    // ...and nothing once learned is ever lost or changed.
    for (const auto& [serial_seen, when] : ever_seen) {
      const core::RevocationInfo* info =
          crawler.Lookup(root->cert()->tbs.subject, serial_seen);
      ASSERT_NE(info, nullptr) << "entry vanished mid-storm";
      EXPECT_EQ(info->revoked_at, when);
    }
    for (const auto& [key, info] : crawler.revocations())
      ever_seen.emplace(key.second, info.revoked_at);
  }

  // Calm after the storm: one clean crawl catches the database up to the
  // full ground truth and clears every stale flag.
  net.SetFaultPlan(nullptr);
  crawler.CrawlAll(kNow + kDays * kDay);
  EXPECT_EQ(crawler.total_revocations(), truth.size());
  for (const auto& [url, crawled] : crawler.crawled())
    EXPECT_FALSE(crawled.stale) << url;
}

// ------------------------------------------ serve shedding, client side ----

// The client side of the serve frontend's load shedding: a 503 with
// Retry-After must push the next attempt past the hint, and the retry then
// succeeds once capacity frees up — the stack rides out overload without
// the caller doing anything.
TEST(ChaosServe, RetryAfterRidesOutShedding) {
  const x509::Certificate issuer = [] {
    x509::TbsCertificate tbs;
    tbs.serial = x509::Serial{0x21};
    tbs.issuer = tbs.subject = x509::Name::Make("Chaos Serve CA", "Test");
    tbs.not_before = 0;
    tbs.not_after = kNow + 100 * kDay;
    tbs.public_key = crypto::SimKeyFromLabel("chaos-serve").Public();
    tbs.basic_constraints = {true, -1};
    return x509::SignCertificate(tbs, crypto::SimKeyFromLabel("chaos-serve"));
  }();
  ocsp::Responder responder(issuer, crypto::SimKeyFromLabel("chaos-serve"));
  responder.AddCertificate(x509::Serial{0x01});

  serve::FrontendOptions options;
  options.num_shards = 1;
  options.per_shard_queue = 1;
  options.retry_after_seconds = 7;
  serve::Frontend frontend(options);
  frontend.AttachResponder(&responder);

  net::SimNet net;
  int calls = 0;
  net.AddHost("shed.sim", [&](const net::HttpRequest& request,
                              util::Timestamp now) {
    const net::HttpResponse response = frontend.HandleHttp(request, now);
    // Capacity frees up after the first (shed) exchange.
    if (++calls == 1) frontend.ExitShard(0);
    return response;
  });
  ASSERT_TRUE(frontend.TryEnterShard(0));  // saturate the only slot

  ocsp::OcspRequest request;
  request.cert_ids = {ocsp::MakeCertId(issuer, x509::Serial{0x01})};
  net::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_seconds = 1;  // Retry-After (7s) must win
  policy.jitter = 0;
  const net::RetryResult result = net::PostWithRetry(
      net, "http://shed.sim/", ocsp::EncodeOcspRequest(request), kNow, policy);

  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.attempts, 2);
  ASSERT_EQ(result.schedule.size(), 2u);
  EXPECT_EQ(result.schedule[0].http_status, 503);
  EXPECT_EQ(result.schedule[0].retry_after, 7);
  // Retry-After is a lower bound on the wait, not a suggestion.
  EXPECT_GE(result.schedule[1].wait_before, 7.0);
  EXPECT_GE(result.schedule[1].at - result.schedule[0].at, 7);
  auto parsed = ocsp::ParseOcspResponse(*&result.fetch.response.body);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->status, ocsp::ResponseStatus::kSuccessful);
  EXPECT_EQ(parsed->single.status, ocsp::CertStatus::kGood);
  EXPECT_EQ(frontend.counters().shed, 1u);
}

// --------------------------------------------- rule interaction order ----

// Three rules on the SAME url in the SAME window: outage + corruption +
// latency. The precedence contract (docs/fault-injection.md):
//   1. Pre-exchange kinds (timeout/outage/flap) are checked first, in
//      registration order; the FIRST one that fires consumes the exchange
//      — the handler never runs and no post-exchange rule applies.
//   2. If no pre-exchange rule fires, EVERY firing post-exchange rule
//      (http-error/truncate/corrupt/latency) applies, in registration
//      order.
// Registration order is deliberately corrupt -> latency -> outage here:
// precedence comes from the kind, not from AddRule order.
TEST(ChaosPrecedence, OutageCorruptLatencySameUrlSameWindow) {
  const auto make_plan = [](net::FaultPlan& plan) {
    net::FaultRule corrupt;
    corrupt.target = "triple.sim";
    corrupt.kind = net::FaultKind::kCorrupt;
    corrupt.corrupt_bytes = 4;
    corrupt.start = kNow;
    corrupt.end = kNow + 300;
    plan.AddRule(corrupt);
    net::FaultRule slow;
    slow.target = "triple.sim";
    slow.kind = net::FaultKind::kLatency;
    slow.latency_factor = 20.0;
    slow.start = kNow;
    slow.end = kNow + 300;
    plan.AddRule(slow);
    net::FaultRule outage;
    outage.target = "triple.sim";
    outage.kind = net::FaultKind::kOutage;
    outage.start = kNow;
    outage.end = kNow + 100;  // lifts before the other two
    plan.AddRule(outage);
  };
  const auto make_net = [](net::SimNet& net) {
    net.AddHost("triple.sim", [](const net::HttpRequest&, util::Timestamp) {
      net::HttpResponse response;
      response.body.assign(64, 0xAB);
      return response;
    });
  };

  // Clean baseline for body and elapsed.
  net::SimNet clean;
  make_net(clean);
  const auto baseline = clean.Get("http://triple.sim/x", kNow);
  ASSERT_TRUE(baseline.ok());

  net::SimNet net;
  make_net(net);
  net::FaultPlan plan(StormSeed());
  make_plan(plan);
  net.SetFaultPlan(&plan);

  // Inside the overlap, the outage wins although it was registered LAST:
  // connection refused, fast, and neither corruption nor latency is even
  // tallied — the exchange they would act on never happened.
  const auto refused = net.Get("http://triple.sim/x", kNow + 50);
  EXPECT_EQ(refused.error, net::FetchError::kConnectionRefused);
  EXPECT_LT(refused.elapsed_seconds, baseline.elapsed_seconds);
  EXPECT_EQ(plan.injected(net::FaultKind::kOutage), 1u);
  EXPECT_EQ(plan.injected(net::FaultKind::kCorrupt), 0u);
  EXPECT_EQ(plan.injected(net::FaultKind::kLatency), 0u);

  // After the outage lifts, BOTH survivors apply to the one exchange:
  // the body is corrupted and the elapsed time is inflated 20x.
  const auto mangled = net.Get("http://triple.sim/x", kNow + 150);
  ASSERT_EQ(mangled.error, net::FetchError::kOk);
  EXPECT_NE(mangled.response.body, baseline.response.body);
  EXPECT_EQ(mangled.response.body.size(), baseline.response.body.size());
  EXPECT_DOUBLE_EQ(mangled.elapsed_seconds,
                   baseline.elapsed_seconds * 20.0);
  EXPECT_EQ(plan.injected(net::FaultKind::kCorrupt), 1u);
  EXPECT_EQ(plan.injected(net::FaultKind::kLatency), 1u);

  // Bit-identity of the interaction: the same (url, timestamp) grid of
  // exchanges produces identical outcomes and tallies at 1 and 8 threads.
  const auto sweep = [&](unsigned threads) {
    net::SimNet storm_net;
    make_net(storm_net);
    auto storm = std::make_unique<net::FaultPlan>(StormSeed());
    make_plan(*storm);
    storm_net.SetFaultPlan(storm.get());
    constexpr int kProbes = 64;
    std::vector<std::uint8_t> outcomes(kProbes);
    std::vector<double> elapsed(kProbes);
    auto probe = [&](int p) {
      const auto result =
          storm_net.Get("http://triple.sim/x", kNow + 5 * p);
      outcomes[static_cast<std::size_t>(p)] =
          result.error == net::FetchError::kConnectionRefused
              ? 0xEE
              : result.response.body[0];
      elapsed[static_cast<std::size_t>(p)] = result.elapsed_seconds;
    };
    if (threads <= 1) {
      for (int p = 0; p < kProbes; ++p) probe(p);
    } else {
      std::vector<std::thread> workers;
      for (unsigned t = 0; t < threads; ++t)
        workers.emplace_back([&, t] {
          for (int p = static_cast<int>(t); p < kProbes;
               p += static_cast<int>(threads))
            probe(p);
        });
      for (auto& worker : workers) worker.join();
    }
    struct Tally {
      std::vector<std::uint8_t> outcomes;
      std::vector<double> elapsed;
      std::uint64_t outages, corrupts, latencies;
    };
    return Tally{outcomes, elapsed,
                 storm->injected(net::FaultKind::kOutage),
                 storm->injected(net::FaultKind::kCorrupt),
                 storm->injected(net::FaultKind::kLatency)};
  };
  const auto serial_sweep = sweep(1);
  const auto threaded_sweep = sweep(8);
  EXPECT_EQ(serial_sweep.outcomes, threaded_sweep.outcomes);
  EXPECT_EQ(serial_sweep.elapsed, threaded_sweep.elapsed);
  EXPECT_EQ(serial_sweep.outages, threaded_sweep.outages);
  EXPECT_EQ(serial_sweep.corrupts, threaded_sweep.corrupts);
  EXPECT_EQ(serial_sweep.latencies, threaded_sweep.latencies);
}

}  // namespace
}  // namespace rev
