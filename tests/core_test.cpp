// Core-module tests: the scan pipeline, the revocation crawler, their
// determinism across thread counts, and the report renderers — over a small
// but fully wired synthetic PKI. The paper's shapes are gated by
// bench/paper_report.cpp, which computes them from one world.
#include <gtest/gtest.h>

#include "core/crawler.h"
#include "crypto/signer.h"
#include "core/ecosystem.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "ingest_util.h"

namespace rev::core {
namespace {

constexpr std::int64_t kDay = util::kSecondsPerDay;

// One shared small ecosystem + pipeline + crawl for the whole suite (it is
// deterministic, and rebuilding per test would dominate runtime).
class World {
 public:
  static World& Get() {
    static World world;
    return world;
  }

  std::unique_ptr<Ecosystem> eco;
  std::unique_ptr<Pipeline> pipeline;
  std::unique_ptr<RevocationCrawler> crawler;
  std::vector<util::Timestamp> scan_times;

 private:
  World() {
    EcosystemConfig config;
    config.scale = 0.002;
    config.seed = 7;
    eco = Ecosystem::Build(config);

    pipeline = std::make_unique<Pipeline>(eco->roots());
    const EcosystemConfig& c = eco->config();
    for (util::Timestamp t = c.study_start; t <= c.study_end; t += 7 * kDay) {
      scan_times.push_back(t);
      IngestSnapshot(*pipeline, scan::RunCertScan(eco->internet(), t));
    }
    pipeline->Finalize();

    crawler = std::make_unique<RevocationCrawler>(&eco->net());
    crawler->CollectUrls(*pipeline);
    // Weekly crawl instead of daily to keep the test quick; CRLs are
    // revisited well within entry lifetimes either way.
    for (util::Timestamp t = c.crawl_start; t <= c.study_end; t += 7 * kDay)
      crawler->CrawlAll(t);
  }
};

// ------------------------------------------------------------- pipeline ----

// Minimal synthetic scans for the ingest-ordering tests: one self-contained
// leaf per name, observed as a chain of just itself.
x509::CertPtr MakeTestLeaf(const std::string& cn) {
  x509::TbsCertificate tbs;
  tbs.serial = x509::Serial(8, 0x21);
  tbs.issuer = x509::Name::Make("Ingest Test CA", "Ingest");
  tbs.subject = x509::Name::FromCommonName(cn);
  tbs.not_before = util::MakeDate(2013, 1, 1);
  tbs.not_after = util::MakeDate(2016, 1, 1);
  tbs.public_key = crypto::SimKeyFromLabel("ingest-" + cn).Public();
  tbs.dns_names = {cn};
  return std::make_shared<const x509::Certificate>(
      x509::SignCertificate(tbs, crypto::SimKeyFromLabel("ingest-ca")));
}

scan::CertScanSnapshot MakeSnapshot(util::Timestamp t,
                                    const std::vector<x509::CertPtr>& leaves) {
  scan::CertScanSnapshot snapshot;
  snapshot.time = t;
  for (const x509::CertPtr& leaf : leaves) {
    scan::CertObservation obs;
    obs.chain = {leaf};
    snapshot.observations.push_back(obs);
  }
  return snapshot;
}

CertCorpus::Row RowOf(const Pipeline& pipeline, const x509::CertPtr& cert) {
  const CertCorpus::Row row = pipeline.corpus().Find(cert->Fingerprint());
  EXPECT_NE(row, CertCorpus::kNoRow);
  return row;
}

bool InLatestScan(const Pipeline& pipeline, const x509::CertPtr& cert) {
  return pipeline.corpus().in_latest_scan(RowOf(pipeline, cert));
}

TEST(Pipeline, SameTimestampSnapshotsMergeIntoLatestView) {
  // Regression: `time >= latest` used to clear every in_latest_scan flag on
  // a second snapshot with the *same* timestamp, silently dropping the first
  // snapshot's leaves from the latest-scan view.
  const util::Timestamp t = util::MakeDate(2014, 6, 1);
  const x509::CertPtr a = MakeTestLeaf("a.ingest.sim");
  const x509::CertPtr b = MakeTestLeaf("b.ingest.sim");

  Pipeline pipeline{x509::CertPool{}};
  IngestSnapshot(pipeline, MakeSnapshot(t, {a}));
  IngestSnapshot(pipeline, MakeSnapshot(t, {b}));

  EXPECT_EQ(pipeline.latest_scan_time(), t);
  EXPECT_TRUE(InLatestScan(pipeline, a));
  EXPECT_TRUE(InLatestScan(pipeline, b));
  EXPECT_EQ(pipeline.out_of_order_scans(), 0u);

  // A strictly newer snapshot still starts a fresh view.
  IngestSnapshot(pipeline, MakeSnapshot(t + kDay, {b}));
  EXPECT_FALSE(InLatestScan(pipeline, a));
  EXPECT_TRUE(InLatestScan(pipeline, b));
}

TEST(Pipeline, OutOfOrderSnapshotIsFlaggedAndDoesNotTouchLatestView) {
  const util::Timestamp t1 = util::MakeDate(2014, 6, 1);
  const util::Timestamp t2 = util::MakeDate(2014, 6, 8);
  const x509::CertPtr a = MakeTestLeaf("a.ooo.sim");
  const x509::CertPtr b = MakeTestLeaf("b.ooo.sim");

  Pipeline pipeline{x509::CertPool{}};
  IngestSnapshot(pipeline, MakeSnapshot(t2, {a}));
  // Late-arriving older scan: lifetimes/observations fold in, but the
  // latest-scan view must not change, and the regression is counted.
  IngestSnapshot(pipeline, MakeSnapshot(t1, {a, b}));

  EXPECT_EQ(pipeline.out_of_order_scans(), 1u);
  EXPECT_EQ(pipeline.latest_scan_time(), t2);
  EXPECT_TRUE(InLatestScan(pipeline, a));
  EXPECT_FALSE(InLatestScan(pipeline, b));

  const CertCorpus& corpus = pipeline.corpus();
  const CertCorpus::Row ra = RowOf(pipeline, a);
  EXPECT_EQ(corpus.first_seen(ra), t1);  // the older scan still widens the lifetime
  EXPECT_EQ(corpus.last_seen(ra), t2);
  EXPECT_EQ(corpus.observations(ra), 2u);
  const CertCorpus::Row rb = RowOf(pipeline, b);
  EXPECT_EQ(corpus.first_seen(rb), t1);
  EXPECT_EQ(corpus.last_seen(rb), t1);
}

TEST(Pipeline, BuildsLeafAndIntermediateSets) {
  World& w = World::Get();
  EXPECT_GT(w.pipeline->LeafSet().size(), 1'000u);
  // One intermediate CA entry per issuing CA (big 9 + offweb + tail).
  EXPECT_GE(w.pipeline->IntermediateSet().size(), 40u);
  // Every leaf validated against the roots.
  const CertCorpus& corpus = w.pipeline->corpus();
  for (const CertCorpus::Row row : w.pipeline->LeafSet()) {
    EXPECT_TRUE(corpus.valid(row));
    EXPECT_FALSE(corpus.is_ca(row));
  }
}

TEST(Pipeline, LifetimesWithinStudy) {
  World& w = World::Get();
  const EcosystemConfig& c = w.eco->config();
  const CertCorpus& corpus = w.pipeline->corpus();
  for (const CertCorpus::Row row : w.pipeline->LeafSet()) {
    EXPECT_GE(corpus.first_seen(row), c.study_start);
    EXPECT_LE(corpus.last_seen(row), c.study_end);
    EXPECT_LE(corpus.first_seen(row), corpus.last_seen(row));
    EXPECT_GT(corpus.observations(row), 0u);
  }
}

TEST(Pipeline, SomeCertsStillAdvertisedSomeGone) {
  World& w = World::Get();
  std::size_t advertised = 0;
  const CertCorpus& corpus = w.pipeline->corpus();
  for (const CertCorpus::Row row : w.pipeline->LeafSet())
    if (corpus.in_latest_scan(row)) ++advertised;
  const double fraction =
      static_cast<double>(advertised) /
      static_cast<double>(w.pipeline->LeafSet().size());
  // Paper: 45.2% of the Leaf Set still advertised in the last scan.
  EXPECT_GT(fraction, 0.15);
  EXPECT_LT(fraction, 0.85);
}

// -------------------------------------------------------------- crawler ----

TEST(Crawler, DiscoversRevocations) {
  World& w = World::Get();
  EXPECT_GT(w.crawler->total_revocations(), 100u);
  EXPECT_GT(w.crawler->crawled().size(), 100u);  // CRL URLs fetched
  EXPECT_GT(w.crawler->bytes_downloaded(), 10'000u);
  EXPECT_GT(w.crawler->seconds_spent(), 0.0);
}

TEST(Crawler, LookupAgreesWithCaGroundTruth) {
  World& w = World::Get();
  const EcosystemConfig& c = w.eco->config();
  constexpr std::int64_t kStep = 7 * kDay;  // the World crawls weekly
  std::size_t checked = 0;
  for (const Ecosystem::CaEntry& entry : w.eco->cas()) {
    if (entry.spec.paper_offweb_revocations > 0) continue;
    for (const auto& rev : entry.ca->CurrentRevocations(c.study_end)) {
      // A revocation is visible only if some crawl fell inside
      // [revoked_at, cert_expiry]: compute the first crawl at or after the
      // revocation and check it happened before expiry and study end.
      util::Timestamp first_crawl = c.crawl_start;
      if (rev.revoked_at > first_crawl) {
        const std::int64_t periods =
            (rev.revoked_at - c.crawl_start + kStep - 1) / kStep;
        first_crawl = c.crawl_start + periods * kStep;
      }
      if (first_crawl > c.study_end || first_crawl > rev.cert_expiry) continue;
      // The crawler only learns CRL URLs from scanned certificates; shards
      // no certificate references are invisible (as in the paper).
      const std::string url =
          entry.ca->CrlUrl(entry.ca->ShardForSerial(rev.serial));
      if (!w.crawler->crawled().contains(url)) continue;
      const RevocationInfo* info =
          w.crawler->Lookup(entry.ca->cert()->tbs.subject, rev.serial);
      ASSERT_NE(info, nullptr);
      EXPECT_EQ(info->revoked_at, rev.revoked_at);
      if (++checked > 500) return;
    }
  }
  EXPECT_GT(checked, 10u);
}

TEST(Crawler, OcspQueryPath) {
  World& w = World::Get();
  // Find a leaf with an OCSP URL and query it end to end.
  const CertCorpus& corpus = w.pipeline->corpus();
  for (const CertCorpus::Row row : w.pipeline->LeafSet()) {
    if (corpus.ocsp_url_ids(row).empty()) continue;
    const x509::CertPtr cert = corpus.cert(row);
    // Issuer CA cert: find by name among ecosystem CAs.
    for (const Ecosystem::CaEntry& entry : w.eco->cas()) {
      if (!(entry.ca->cert()->tbs.subject == cert->tbs.issuer)) continue;
      auto status = w.crawler->QueryOcsp(*cert, *entry.ca->cert(),
                                         w.eco->config().study_end);
      ASSERT_TRUE(status.has_value());
      EXPECT_NE(*status, ocsp::CertStatus::kUnknown);
      return;
    }
  }
  FAIL() << "no OCSP-capable leaf found";
}

// ---------------------------------------------------------- parallelism ----

// The tentpole guarantee (docs/parallelism.md): Finalize() and CrawlAll()
// produce byte-identical records, revocation DB, and cost counters at any
// thread count. Two fully independent (but identically seeded) worlds are
// built so CA-side lazy CRL state cannot leak between the runs.
TEST(Parallelism, FinalizeAndCrawlDeterministicAcrossThreadCounts) {
  struct Run {
    std::unique_ptr<Ecosystem> eco;
    std::unique_ptr<Pipeline> pipeline;
    std::unique_ptr<RevocationCrawler> crawler;
  };
  auto build = [](unsigned threads) {
    Run run;
    EcosystemConfig config;
    config.scale = 0.001;
    config.seed = 11;
    run.eco = Ecosystem::Build(config);
    const EcosystemConfig& c = run.eco->config();
    run.pipeline = std::make_unique<Pipeline>(run.eco->roots(), threads);
    for (util::Timestamp t = c.study_start; t <= c.study_end; t += 14 * kDay)
      IngestSnapshot(*run.pipeline, scan::RunCertScan(run.eco->internet(), t));
    run.pipeline->Finalize();
    run.crawler =
        std::make_unique<RevocationCrawler>(&run.eco->net(), threads);
    run.crawler->CollectUrls(*run.pipeline);
    for (util::Timestamp t = c.crawl_start; t <= c.study_end; t += 7 * kDay)
      run.crawler->CrawlAll(t);
    return run;
  };

  const Run serial = build(1);
  const Run parallel = build(8);
  EXPECT_EQ(serial.pipeline->threads(), 1u);
  EXPECT_EQ(parallel.pipeline->threads(), 8u);

  // Corpus rows: identical fingerprints, verdicts, and lifetimes in
  // fingerprint order (the old map's iteration order).
  const CertCorpus& corpus1 = serial.pipeline->corpus();
  const CertCorpus& corpus8 = parallel.pipeline->corpus();
  ASSERT_EQ(corpus1.size(), corpus8.size());
  const std::vector<CertCorpus::Row> rows1 = corpus1.RowsByFingerprint();
  const std::vector<CertCorpus::Row> rows8 = corpus8.RowsByFingerprint();
  for (std::size_t i = 0; i < rows1.size(); ++i) {
    const CertCorpus::Row r1 = rows1[i], r8 = rows8[i];
    ASSERT_EQ(Bytes(corpus1.fingerprint(r1).begin(),
                    corpus1.fingerprint(r1).end()),
              Bytes(corpus8.fingerprint(r8).begin(),
                    corpus8.fingerprint(r8).end()));
    EXPECT_EQ(corpus1.valid(r1), corpus8.valid(r8));
    EXPECT_EQ(corpus1.first_seen(r1), corpus8.first_seen(r8));
    EXPECT_EQ(corpus1.last_seen(r1), corpus8.last_seen(r8));
    EXPECT_EQ(corpus1.observations(r1), corpus8.observations(r8));
    EXPECT_EQ(corpus1.in_latest_scan(r1), corpus8.in_latest_scan(r8));
  }
  ASSERT_EQ(serial.pipeline->IntermediateSet().size(),
            parallel.pipeline->IntermediateSet().size());
  for (std::size_t i = 0; i < serial.pipeline->IntermediateSet().size(); ++i)
    EXPECT_EQ(serial.pipeline->IntermediateSet()[i]->Fingerprint(),
              parallel.pipeline->IntermediateSet()[i]->Fingerprint());
  EXPECT_EQ(serial.pipeline->LeafSet().size(),
            parallel.pipeline->LeafSet().size());

  // Crawler: identical CRL snapshots, revocation DB, and counters — the
  // doubles must match exactly (the merge order is fixed), hence EXPECT_EQ
  // rather than a tolerance.
  EXPECT_GT(serial.crawler->total_revocations(), 0u);
  EXPECT_EQ(serial.crawler->total_revocations(),
            parallel.crawler->total_revocations());
  EXPECT_EQ(serial.crawler->bytes_downloaded(),
            parallel.crawler->bytes_downloaded());
  EXPECT_EQ(serial.crawler->seconds_spent(), parallel.crawler->seconds_spent());
  EXPECT_EQ(serial.crawler->fetch_failures(),
            parallel.crawler->fetch_failures());
  ASSERT_EQ(serial.crawler->crawled().size(),
            parallel.crawler->crawled().size());
  auto c1 = serial.crawler->crawled().begin();
  auto c8 = parallel.crawler->crawled().begin();
  for (; c1 != serial.crawler->crawled().end(); ++c1, ++c8) {
    ASSERT_EQ(c1->first, c8->first);
    EXPECT_EQ(c1->second.issuer_name_der, c8->second.issuer_name_der);
    EXPECT_EQ(c1->second.size_bytes, c8->second.size_bytes);
    EXPECT_EQ(c1->second.num_entries, c8->second.num_entries);
    EXPECT_EQ(c1->second.this_update, c8->second.this_update);
    EXPECT_EQ(c1->second.next_update, c8->second.next_update);
    EXPECT_EQ(c1->second.url, c8->second.url);
    EXPECT_EQ(c1->second.stale, c8->second.stale);
    EXPECT_EQ(c1->second.stale_crawls, c8->second.stale_crawls);
    EXPECT_EQ(c1->second.last_good_fetch, c8->second.last_good_fetch);
    EXPECT_EQ(c1->second.stale_age_seconds, c8->second.stale_age_seconds);
  }
  EXPECT_EQ(serial.crawler->ReasonCodeHistogram(),
            parallel.crawler->ReasonCodeHistogram());
}

// --------------------------------------------------------------- report ----

TEST(Report, TextTableAligns) {
  TextTable table({"CA", "CRLs", "Certs"});
  table.AddRow({"GoDaddy", "322", "1050014"});
  table.AddRow({"RapidSSL", "5", "626774"});
  const std::string rendered = table.Render();
  EXPECT_NE(rendered.find("GoDaddy"), std::string::npos);
  EXPECT_NE(rendered.find("---"), std::string::npos);
}

TEST(Report, SeriesRendering) {
  Series s1{"all", {{1, 0.01}, {2, 0.02}}};
  Series s2{"ev", {{1, 0.005}, {2, 0.015}}};
  const std::string rendered = RenderSeries("week", {s1, s2});
  EXPECT_NE(rendered.find("all"), std::string::npos);
  EXPECT_NE(rendered.find("0.020000"), std::string::npos);
}

TEST(Report, SeriesDownsampling) {
  Series s{"x", {}};
  for (int i = 0; i < 1000; ++i) s.points.emplace_back(i, i);
  const std::string rendered = RenderSeries("t", {s}, 10);
  // Roughly 10 data rows plus header/divider.
  EXPECT_LT(std::count(rendered.begin(), rendered.end(), '\n'), 16);
}

}  // namespace
}  // namespace rev::core
