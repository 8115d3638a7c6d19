// End-to-end integration tests crossing every module boundary: browsers
// visiting ecosystem servers, the soft-fail attack of §2.3, CRL caching
// economics, CRLSet- and Bloom-filter-backed checking, and the full
// scan -> validate -> crawl -> analyze loop on a miniature world.
#include <gtest/gtest.h>

#include "browser/client.h"
#include "browser/profiles.h"
#include "core/ca_audit.h"
#include "core/crawler.h"
#include "core/crlset_audit.h"
#include "core/ecosystem.h"
#include "core/pipeline.h"
#include "core/timeline.h"
#include "crlset/bloom.h"
#include "crlset/generator.h"
#include "ingest_util.h"
#include "net/cache.h"
#include "scan/scanner.h"

namespace rev {
namespace {

constexpr std::int64_t kDay = util::kSecondsPerDay;
constexpr util::Timestamp kNow = 1'420'000'000;  // Dec 31 2014

using browser::FindProfile;
using browser::Policy;
using browser::VisitOutcome;

// A miniature hand-built world: one root, one intermediate CA, two sites
// (one of which gets revoked), endpoints wired into a SimNet.
class MiniWorld : public ::testing::Test {
 protected:
  MiniWorld() : rng_(1234) {
    ca::CertificateAuthority::Options root_options;
    root_options.name = "MiniRoot";
    root_options.domain = "miniroot.sim";
    root_ = ca::CertificateAuthority::CreateRoot(root_options, rng_,
                                                 kNow - 2000 * kDay);
    ca::CertificateAuthority::Options int_options;
    int_options.name = "MiniCA";
    int_options.domain = "minica.sim";
    intermediate_ = root_->CreateIntermediate(int_options, rng_,
                                              kNow - 1000 * kDay);
    root_->RegisterEndpoints(&net_);
    intermediate_->RegisterEndpoints(&net_);
    roots_.Add(root_->cert());

    good_leaf_ = Issue("good.example.sim");
    bad_leaf_ = Issue("bad.example.sim");
    intermediate_->Revoke(bad_leaf_->tbs.serial, kNow - 5 * kDay,
                          x509::ReasonCode::kKeyCompromise);
  }

  x509::CertPtr Issue(std::string_view cn) {
    ca::CertificateAuthority::IssueOptions issue;
    issue.common_name = std::string(cn);
    issue.not_before = kNow - 100 * kDay;
    issue.lifetime_seconds = 365 * kDay;
    return intermediate_->Issue(issue, rng_);
  }

  tls::TlsServer ServerFor(const x509::CertPtr& leaf, bool staple = false) {
    tls::TlsServer::Config config;
    config.chain_der = {leaf->der, intermediate_->cert()->der};
    if (staple) {
      config.stapling_enabled = true;
      config.staple_requires_cache = false;
      config.staple_any_status = true;
      ca::CertificateAuthority* ca = intermediate_.get();
      const x509::Serial serial = leaf->tbs.serial;
      config.fetch_leaf_staple = [ca, serial](util::Timestamp t) {
        return ca->responder().StatusFor(serial, t).der;
      };
    }
    return tls::TlsServer(config);
  }

  VisitOutcome Visit(const char* browser_name, const char* os,
                     const x509::CertPtr& leaf, bool staple = false) {
    const browser::BrowserProfile* profile = FindProfile(browser_name, os);
    EXPECT_NE(profile, nullptr);
    browser::Client client(profile->policy, &net_, roots_);
    tls::TlsServer server = ServerFor(leaf, staple);
    return client.Visit(server, kNow);
  }

  util::Rng rng_;
  net::SimNet net_;
  x509::CertPool roots_;
  std::unique_ptr<ca::CertificateAuthority> root_;
  std::unique_ptr<ca::CertificateAuthority> intermediate_;
  x509::CertPtr good_leaf_;
  x509::CertPtr bad_leaf_;
};

TEST_F(MiniWorld, CheckingBrowsersCatchRevokedSite) {
  EXPECT_TRUE(Visit("IE 11", "Windows 10", good_leaf_).accepted());
  EXPECT_TRUE(Visit("IE 11", "Windows 10", bad_leaf_).rejected());
  EXPECT_TRUE(Visit("Safari 8", "OS X", bad_leaf_).rejected());
  EXPECT_TRUE(Visit("Firefox 40", "Windows", bad_leaf_).rejected());
  EXPECT_TRUE(Visit("Opera 31.0", "Linux", bad_leaf_).rejected());
}

TEST_F(MiniWorld, NonCheckingBrowsersAreOblivious) {
  // The paper's core risk: revoked but accepted.
  EXPECT_TRUE(Visit("Mobile Safari", "iOS 8", bad_leaf_).accepted());
  EXPECT_TRUE(Visit("Stock Browser", "Android 5.1", bad_leaf_).accepted());
  EXPECT_TRUE(Visit("IE Mobile", "Windows Phone 8.0", bad_leaf_).accepted());
  EXPECT_TRUE(Visit("Chrome 44", "OS X", bad_leaf_).accepted());  // non-EV
}

TEST_F(MiniWorld, SoftFailAttack) {
  // §2.3: an attacker who blocks revocation endpoints turns off revocation
  // checking for soft-fail browsers.
  EXPECT_TRUE(Visit("Firefox 40", "Windows", bad_leaf_).rejected());
  net_.SetUnresponsive(intermediate_->OcspHost(), true);
  net_.SetUnresponsive(intermediate_->CrlHost(), true);
  // Firefox soft-fails: the attack succeeds.
  EXPECT_TRUE(Visit("Firefox 40", "Windows", bad_leaf_).accepted());
  // IE 11 hard-fails at the leaf: the attack is caught.
  EXPECT_TRUE(Visit("IE 11", "Windows 10", bad_leaf_).rejected());
}

TEST_F(MiniWorld, StapledRevocationSurvivesBlockedResponder) {
  // OCSP Stapling defeats the same attacker for staple-respecting clients.
  net_.SetUnresponsive(intermediate_->OcspHost(), true);
  net_.SetUnresponsive(intermediate_->CrlHost(), true);
  const VisitOutcome outcome =
      Visit("Firefox 40", "Windows", bad_leaf_, /*staple=*/true);
  EXPECT_TRUE(outcome.rejected());
  EXPECT_TRUE(outcome.used_staple);
}

TEST_F(MiniWorld, RevocationLatencyCost) {
  // Checking costs network time; a stapled connection is nearly free.
  const VisitOutcome checked = Visit("IE 11", "Windows 10", good_leaf_);
  EXPECT_GT(checked.revocation_seconds, 0.0);
  EXPECT_GT(checked.revocation_bytes, 0u);
  const VisitOutcome stapled =
      Visit("Firefox 40", "Windows", good_leaf_, /*staple=*/true);
  EXPECT_TRUE(stapled.used_staple);
  EXPECT_EQ(stapled.ocsp_fetches, 0);
}

TEST_F(MiniWorld, CrlCachingSavesBandwidth) {
  net::CachingClient client(&net_);
  const std::string url = bad_leaf_->tbs.crl_urls[0];
  auto first = client.Get(url, kNow);
  ASSERT_TRUE(first.fetch.ok());
  auto second = client.Get(url, kNow + 3600);
  EXPECT_TRUE(second.from_cache);
  // §5.2: CRLs expire within ~24h, capping cache utility.
  auto next_day = client.Get(url, kNow + kDay + 1);
  EXPECT_FALSE(next_day.from_cache);
}

TEST_F(MiniWorld, CrlsetStyleCheckIsOffline) {
  // Build a CRLSet from the intermediate's CRL; a Chrome-like client can
  // then detect the revocation with zero network traffic.
  const crl::Crl& crl = intermediate_->GetCrl(
      intermediate_->ShardForSerial(bad_leaf_->tbs.serial), kNow);
  crlset::CrlSource source;
  source.parent_spki_sha256 = intermediate_->cert()->SubjectSpkiSha256();
  source.crl = &crl;
  const crlset::CrlSet set =
      crlset::GenerateCrlSet({source}, crlset::GeneratorConfig{}, 1);

  const Bytes parent = intermediate_->cert()->SubjectSpkiSha256();
  EXPECT_TRUE(set.IsRevoked(parent, bad_leaf_->tbs.serial));
  EXPECT_FALSE(set.IsRevoked(parent, good_leaf_->tbs.serial));
}

TEST_F(MiniWorld, BloomFilterFrontEnd) {
  // The §7.4 proposal: Bloom filter hit => confirm via CRL; miss => done.
  const crl::Crl& crl = intermediate_->GetCrl(
      intermediate_->ShardForSerial(bad_leaf_->tbs.serial), kNow);
  crlset::BloomFilter filter = crlset::BloomFilter::ForCapacity(1000, 0.01);
  const Bytes parent = intermediate_->cert()->SubjectSpkiSha256();
  for (const crl::CrlEntry& entry : crl.tbs.entries)
    filter.Insert(crlset::RevocationKey(parent, entry.serial));

  // No false negative on the revoked cert.
  EXPECT_TRUE(filter.MayContain(
      crlset::RevocationKey(parent, bad_leaf_->tbs.serial)));
  // The good cert is (almost surely) a miss => no CRL fetch needed.
  // If it were a false positive the protocol still works, just costs a fetch.
  if (!filter.MayContain(crlset::RevocationKey(parent, good_leaf_->tbs.serial))) {
    SUCCEED();
  } else {
    EXPECT_FALSE(crl::ParseCrlView(crl.der)->Find(good_leaf_->tbs.serial));
  }
}

// ---------------------------------------------------- full-loop pipeline ----

TEST(FullLoop, ScanValidateCrawlAnalyze) {
  core::EcosystemConfig config;
  config.scale = 0.0008;
  config.seed = 99;
  auto eco = core::Ecosystem::Build(config);
  const core::EcosystemConfig& c = eco->config();

  core::Pipeline pipeline(eco->roots());
  for (util::Timestamp t = c.study_start; t <= c.study_end; t += 14 * kDay)
    IngestSnapshot(pipeline, scan::RunCertScan(eco->internet(), t));
  pipeline.Finalize();
  ASSERT_GT(pipeline.LeafSet().size(), 200u);

  core::RevocationCrawler crawler(&eco->net());
  crawler.CollectUrls(pipeline);
  for (util::Timestamp t = c.crawl_start; t <= c.study_end; t += 14 * kDay)
    crawler.CrawlAll(t);
  ASSERT_GT(crawler.total_revocations(), 20u);

  // Timeline is internally consistent.
  const auto points = core::ComputeRevocationTimeline(
      pipeline, crawler, util::MakeDate(2014, 1, 1), c.study_end, 14 * kDay);
  for (const auto& point : points) {
    EXPECT_LE(point.fresh_revoked, point.fresh);
    EXPECT_LE(point.alive_revoked, point.alive);
    EXPECT_LE(point.fresh_ev, point.fresh);
  }

  // Determinism: rebuilding the same-seed world reproduces the counts.
  auto eco2 = core::Ecosystem::Build(config);
  EXPECT_EQ(eco->total_issued(), eco2->total_issued());
  EXPECT_EQ(eco->total_revoked(), eco2->total_revoked());
  EXPECT_EQ(eco->internet().size(), eco2->internet().size());
}

TEST(FullLoop, CrawlerCachingReducesTraffic) {
  core::EcosystemConfig config;
  config.scale = 0.0008;
  config.seed = 100;
  auto eco = core::Ecosystem::Build(config);
  const core::EcosystemConfig& c = eco->config();

  core::Pipeline pipeline(eco->roots());
  IngestSnapshot(pipeline,
                 scan::RunCertScan(eco->internet(), c.study_end - kDay));
  pipeline.Finalize();

  core::RevocationCrawler crawler(&eco->net());
  crawler.CollectUrls(pipeline);
  crawler.CrawlAll(c.crawl_start);
  const std::uint64_t after_first = crawler.bytes_downloaded();
  // Re-crawling within CRL validity costs nothing (cache hits).
  crawler.CrawlAll(c.crawl_start + 3600);
  EXPECT_EQ(crawler.bytes_downloaded(), after_first);
  // A day later, web CRLs expired: new bytes flow.
  crawler.CrawlAll(c.crawl_start + kDay + 3600);
  EXPECT_GT(crawler.bytes_downloaded(), after_first);
}

}  // namespace
}  // namespace rev
