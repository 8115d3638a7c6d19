// Exact-semantics tests for the timeline analytics (Fig. 1's fresh/alive
// definitions and Fig. 2's revoked fractions) on a hand-built world where
// every date is controlled.
#include <gtest/gtest.h>

#include "ca/ca.h"
#include "core/crawler.h"
#include "core/pipeline.h"
#include "core/timeline.h"
#include "ingest_util.h"
#include "scan/internet.h"
#include "scan/scanner.h"
#include "util/rng.h"

namespace rev::core {
namespace {

constexpr std::int64_t kDay = util::kSecondsPerDay;
const util::Timestamp kT0 = util::MakeDate(2014, 1, 1);

class TimelineWorld : public ::testing::Test {
 protected:
  TimelineWorld() : rng_(5) {
    ca::CertificateAuthority::Options options;
    options.name = "TLCA";
    options.domain = "tlca.sim";
    ca_ = ca::CertificateAuthority::CreateRoot(options, rng_, kT0 - 1000 * kDay);
    ca_->RegisterEndpoints(&net_);
    roots_.Add(ca_->cert());
  }

  // Issues a cert fresh over [nb, na] and advertises it over [birth, death).
  x509::CertPtr AddSite(const std::string& cn, util::Timestamp nb,
                        util::Timestamp na, util::Timestamp birth,
                        util::Timestamp death, bool ev = false) {
    ca::CertificateAuthority::IssueOptions issue;
    issue.common_name = cn;
    issue.ev = ev;
    issue.not_before = nb;
    issue.lifetime_seconds = na - nb;
    const x509::CertPtr leaf = ca_->Issue(issue, rng_);
    scan::Server server{};
    server.ip = next_ip_++;
    server.leaf = leaf;
    server.chain = {leaf};
    server.birth = birth;
    server.death = death;
    internet_.AddServer(std::move(server));
    return leaf;
  }

  // Scans weekly over [from, to], crawls once at `crawl_at`, and returns the
  // timeline sampled daily over [sample_from, sample_to].
  std::vector<RevocationTimelinePoint> Run(util::Timestamp scan_from,
                                           util::Timestamp scan_to,
                                           util::Timestamp crawl_at,
                                           util::Timestamp sample_from,
                                           util::Timestamp sample_to) {
    pipeline_ = std::make_unique<Pipeline>(roots_);
    for (util::Timestamp t = scan_from; t <= scan_to; t += 7 * kDay)
      IngestSnapshot(*pipeline_, scan::RunCertScan(internet_, t));
    pipeline_->Finalize();
    crawler_ = std::make_unique<RevocationCrawler>(&net_);
    crawler_->CollectUrls(*pipeline_);
    crawler_->CrawlAll(crawl_at);
    return ComputeRevocationTimeline(*pipeline_, *crawler_, sample_from,
                                     sample_to, kDay);
  }

  util::Rng rng_;
  net::SimNet net_;
  x509::CertPool roots_;
  std::unique_ptr<ca::CertificateAuthority> ca_;
  scan::Internet internet_;
  std::unique_ptr<Pipeline> pipeline_;
  std::unique_ptr<RevocationCrawler> crawler_;
  std::uint32_t next_ip_ = 1;
};

TEST_F(TimelineWorld, FreshWindowFollowsValidityNotAdvertisement) {
  // Fresh over days 0..100, advertised only days 10..40.
  AddSite("a.sim", kT0, kT0 + 100 * kDay, kT0 + 10 * kDay, kT0 + 40 * kDay);
  const auto points =
      Run(kT0 + 10 * kDay, kT0 + 40 * kDay, kT0 + 50 * kDay, kT0 - 5 * kDay,
          kT0 + 105 * kDay);

  auto at = [&](util::Timestamp t) -> const RevocationTimelinePoint& {
    return points[static_cast<std::size_t>((t - (kT0 - 5 * kDay)) / kDay)];
  };
  EXPECT_EQ(at(kT0 - kDay).fresh, 0u);       // before notBefore
  EXPECT_EQ(at(kT0 + 50 * kDay).fresh, 1u);  // within validity
  EXPECT_EQ(at(kT0 + 101 * kDay).fresh, 0u); // past notAfter

  // Alive follows the scan observations (first_seen..last_seen).
  EXPECT_EQ(at(kT0 + 5 * kDay).alive, 0u);
  EXPECT_EQ(at(kT0 + 20 * kDay).alive, 1u);
  EXPECT_EQ(at(kT0 + 60 * kDay).alive, 0u);
}

TEST_F(TimelineWorld, RevocationBackdatedByCrlTimestamp) {
  // Revoked on day 20; the crawler only looks on day 60 — yet the timeline
  // must show the certificate revoked from day 20 on (§3: revocation
  // timestamps in CRLs allow backdating).
  const x509::CertPtr leaf =
      AddSite("b.sim", kT0, kT0 + 200 * kDay, kT0, kT0 + 200 * kDay);
  ca_->Revoke(leaf->tbs.serial, kT0 + 20 * kDay,
              x509::ReasonCode::kKeyCompromise);

  const auto points = Run(kT0, kT0 + 80 * kDay, kT0 + 60 * kDay, kT0,
                          kT0 + 80 * kDay);
  auto at = [&](int day) -> const RevocationTimelinePoint& {
    return points[static_cast<std::size_t>(day)];
  };
  EXPECT_EQ(at(10).fresh_revoked, 0u);
  EXPECT_EQ(at(19).fresh_revoked, 0u);
  EXPECT_EQ(at(20).fresh_revoked, 1u);
  EXPECT_EQ(at(70).fresh_revoked, 1u);
  EXPECT_EQ(at(70).alive_revoked, 1u);  // still advertised
}

TEST_F(TimelineWorld, EvCountedSeparately) {
  AddSite("plain.sim", kT0, kT0 + 100 * kDay, kT0, kT0 + 100 * kDay, false);
  const x509::CertPtr ev =
      AddSite("ev.sim", kT0, kT0 + 100 * kDay, kT0, kT0 + 100 * kDay, true);
  ca_->Revoke(ev->tbs.serial, kT0 + 5 * kDay, x509::ReasonCode::kUnspecified);

  const auto points =
      Run(kT0, kT0 + 50 * kDay, kT0 + 30 * kDay, kT0 + 10 * kDay, kT0 + 10 * kDay);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].fresh, 2u);
  EXPECT_EQ(points[0].fresh_ev, 1u);
  EXPECT_EQ(points[0].fresh_revoked, 1u);
  EXPECT_EQ(points[0].fresh_ev_revoked, 1u);
  EXPECT_DOUBLE_EQ(points[0].FreshRevokedFraction(), 0.5);
  EXPECT_DOUBLE_EQ(points[0].FreshEvRevokedFraction(), 1.0);
}

TEST_F(TimelineWorld, ExpiredRevokedCertInvisibleToLateCrawl) {
  // Revoked day 10, cert expires day 30, crawl happens day 60: the CRL has
  // already dropped the entry, so the revocation is never discovered — the
  // same blind spot the paper's October-2014 crawl start has for
  // already-expired certificates.
  const x509::CertPtr leaf =
      AddSite("gone.sim", kT0, kT0 + 30 * kDay, kT0, kT0 + 30 * kDay);
  ca_->Revoke(leaf->tbs.serial, kT0 + 10 * kDay,
              x509::ReasonCode::kKeyCompromise);

  const auto points =
      Run(kT0, kT0 + 28 * kDay, kT0 + 60 * kDay, kT0 + 15 * kDay, kT0 + 15 * kDay);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].fresh, 1u);
  EXPECT_EQ(points[0].fresh_revoked, 0u);  // invisible
}

TEST_F(TimelineWorld, AdoptionBucketsByIssuanceMonth) {
  AddSite("jan1.sim", util::MakeDate(2014, 1, 5), kT0 + 400 * kDay, kT0,
          kT0 + 100 * kDay);
  AddSite("jan2.sim", util::MakeDate(2014, 1, 20), kT0 + 400 * kDay, kT0,
          kT0 + 100 * kDay);
  AddSite("mar.sim", util::MakeDate(2014, 3, 10), kT0 + 400 * kDay,
          kT0 + 70 * kDay, kT0 + 100 * kDay);
  Run(kT0, kT0 + 90 * kDay, kT0 + 50 * kDay, kT0, kT0);

  const auto adoption = ComputeRevinfoAdoption(*pipeline_);
  ASSERT_EQ(adoption.size(), 2u);
  EXPECT_EQ(adoption[0].month_start, util::MakeDate(2014, 1, 1));
  EXPECT_EQ(adoption[0].issued, 2u);
  EXPECT_EQ(adoption[1].month_start, util::MakeDate(2014, 3, 1));
  EXPECT_EQ(adoption[1].issued, 1u);
  EXPECT_DOUBLE_EQ(adoption[0].CrlFraction(), 1.0);
  EXPECT_DOUBLE_EQ(adoption[0].OcspFraction(), 1.0);
}

}  // namespace
}  // namespace rev::core
