// Edge-case tests: malformed server behavior at the browser client,
// multi-staple corner cases, ecosystem structure (sub-CA chains, tiers,
// CRLSet sources), and latency accounting.
#include <gtest/gtest.h>

#include "browser/client.h"
#include "browser/profiles.h"
#include "browser/testsuite.h"
#include "core/ecosystem.h"
#include "scan/scanner.h"

namespace rev {
namespace {

using namespace rev::browser;

constexpr util::Timestamp kNow = 1'420'000'000;
constexpr std::int64_t kDay = util::kSecondsPerDay;

class EdgeWorld : public ::testing::Test {
 protected:
  EdgeWorld() : rng_(31337) {
    ca::CertificateAuthority::Options root_options;
    root_options.name = "EdgeRoot";
    root_options.domain = "edgeroot.sim";
    root_ = ca::CertificateAuthority::CreateRoot(root_options, rng_,
                                                 kNow - 2000 * kDay);
    root_->RegisterEndpoints(&net_);
    roots_.Add(root_->cert());
    ca::CertificateAuthority::IssueOptions issue;
    issue.common_name = "edge.sim";
    issue.not_before = kNow - 30 * kDay;
    leaf_ = root_->Issue(issue, rng_);
  }

  VisitOutcome VisitChain(std::vector<Bytes> chain_der,
                          const char* browser = "IE 11",
                          const char* os = "Windows 10") {
    tls::TlsServer::Config config;
    config.chain_der = std::move(chain_der);
    tls::TlsServer server(config);
    Client client(FindProfile(browser, os)->policy, &net_, roots_);
    return client.Visit(server, kNow);
  }

  util::Rng rng_;
  net::SimNet net_;
  x509::CertPool roots_;
  std::unique_ptr<ca::CertificateAuthority> root_;
  x509::CertPtr leaf_;
};

TEST_F(EdgeWorld, EmptyChainRejected) {
  const VisitOutcome outcome = VisitChain({});
  EXPECT_TRUE(outcome.rejected());
  EXPECT_EQ(outcome.reject_reason, "no certificate");
}

TEST_F(EdgeWorld, GarbageCertificateRejected) {
  const VisitOutcome outcome = VisitChain({ToBytes("not a certificate")});
  EXPECT_TRUE(outcome.rejected());
  EXPECT_EQ(outcome.reject_reason, "unparseable certificate");
}

TEST_F(EdgeWorld, GarbageIntermediateRejected) {
  const VisitOutcome outcome = VisitChain({leaf_->der, ToBytes("junk")});
  EXPECT_TRUE(outcome.rejected());
}

TEST_F(EdgeWorld, UntrustedChainRejected) {
  // A self-signed cert the client has never heard of.
  const crypto::KeyPair key = crypto::SimKeyFromLabel("stranger");
  x509::TbsCertificate tbs;
  tbs.serial = x509::Serial{1};
  tbs.issuer = tbs.subject = x509::Name::FromCommonName("Stranger");
  tbs.not_before = kNow - kDay;
  tbs.not_after = kNow + kDay;
  tbs.public_key = key.Public();
  const x509::Certificate stranger = x509::SignCertificate(tbs, key);
  const VisitOutcome outcome = VisitChain({stranger.der});
  EXPECT_TRUE(outcome.rejected());
  EXPECT_NE(outcome.reject_reason.find("chain"), std::string::npos);
}

TEST_F(EdgeWorld, ValidDirectChainAccepted) {
  const VisitOutcome outcome = VisitChain({leaf_->der});
  EXPECT_TRUE(outcome.accepted()) << outcome.reject_reason;
  EXPECT_TRUE(outcome.chain_valid);
}

TEST_F(EdgeWorld, LatencyAccountedForChecks) {
  const VisitOutcome outcome = VisitChain({leaf_->der});
  // IE checks the leaf's CRL/OCSP: network time and bytes accrue.
  EXPECT_GT(outcome.revocation_seconds, 0.0);
  EXPECT_GT(outcome.revocation_bytes, 0u);
  // A mobile browser spends nothing.
  const VisitOutcome mobile = VisitChain({leaf_->der}, "Mobile Safari", "iOS 8");
  EXPECT_DOUBLE_EQ(mobile.revocation_seconds, 0.0);
  EXPECT_EQ(mobile.revocation_bytes, 0u);
}

TEST(MultiStaple, RevokedIntermediateCaughtViaStaple) {
  // The revoked element is an intermediate; only the multi-staple carries
  // its status when responders are firewalled.
  TestCase test;
  test.id = 950;
  test.num_intermediates = 2;
  test.protocol = RevProtocol::kOcspOnly;
  test.stapling = true;
  test.multi_staple = true;
  test.revoked_element = 1;

  Policy policy = FindProfile("IE 11", "Windows 10")->policy;
  policy.request_multi_staple = true;
  const VisitOutcome outcome = RunCase(test, policy, 12, kNow);
  EXPECT_TRUE(outcome.rejected());
  EXPECT_NE(outcome.reject_reason.find("staple"), std::string::npos);
}

TEST(MultiStaple, WithoutV2RequestIntermediatesUnchecked) {
  // Same scenario but the client only speaks RFC 6066: the revoked
  // intermediate's status never arrives and soft-fail accepts.
  TestCase test;
  test.id = 951;
  test.num_intermediates = 2;
  test.protocol = RevProtocol::kOcspOnly;
  test.stapling = true;
  test.multi_staple = true;
  test.revoked_element = 1;

  Policy policy = FindProfile("IE 9", "Windows 7")->policy;  // soft-ish
  ASSERT_FALSE(policy.request_multi_staple);
  // Int.1 unavailable -> IE rejects; use Firefox (accepts) to isolate.
  Policy ff = FindProfile("Firefox 40", "Windows")->policy;
  const VisitOutcome outcome = RunCase(test, ff, 12, kNow);
  EXPECT_TRUE(outcome.accepted());
}

// ------------------------------------------------------------- ecosystem ----

class EcosystemStructure : public ::testing::Test {
 protected:
  static core::Ecosystem& Eco() {
    static std::unique_ptr<core::Ecosystem> eco = [] {
      core::EcosystemConfig config;
      config.scale = 0.001;
      config.seed = 3;
      return core::Ecosystem::Build(config);
    }();
    return *eco;
  }
};

TEST_F(EcosystemStructure, SubCaChainsAppearInScans) {
  const scan::CertScanSnapshot snap = scan::RunCertScan(
      Eco().internet(), Eco().config().study_end - 30 * kDay);
  std::size_t depth2 = 0, depth3 = 0;
  for (const scan::CertObservation& obs : snap.observations) {
    if (obs.chain.size() == 2) ++depth2;
    if (obs.chain.size() == 3) ++depth3;
  }
  EXPECT_GT(depth2, 0u);
  EXPECT_GT(depth3, 0u);  // sub-CA chains: leaf + sub + parent
  EXPECT_GT(depth2, depth3);
}

TEST_F(EcosystemStructure, SubCaChainsVerify) {
  const scan::CertScanSnapshot snap = scan::RunCertScan(
      Eco().internet(), Eco().config().study_end - 30 * kDay);
  x509::CertPool intermediates;
  for (const scan::CertObservation& obs : snap.observations)
    for (std::size_t i = 1; i < obs.chain.size(); ++i)
      intermediates.Add(obs.chain[i]);
  x509::VerifyOptions options;
  options.ignore_dates = true;
  std::size_t checked = 0;
  for (const scan::CertObservation& obs : snap.observations) {
    if (obs.chain.size() != 3) continue;
    EXPECT_TRUE(
        x509::VerifyChain(obs.chain[0], intermediates, Eco().roots(), options).ok());
    if (++checked > 20) break;
  }
  EXPECT_GT(checked, 0u);
}

TEST_F(EcosystemStructure, CaEntriesIncludeSubCas) {
  bool found_subca = false;
  for (const core::Ecosystem::CaEntry& entry : Eco().cas()) {
    if (entry.spec.name.find("SubCA") != std::string::npos) {
      found_subca = true;
      EXPECT_NE(entry.parent_ca, nullptr);
      EXPECT_GT(entry.ca->issued_count(), 0u);
    }
  }
  EXPECT_TRUE(found_subca);
}

TEST_F(EcosystemStructure, CrlSetSourcesCoverCrawledCasOnly) {
  std::size_t total_entries = 0;
  const auto sources = Eco().CrlSetSources(Eco().config().study_end, &total_entries);
  EXPECT_GT(total_entries, 0u);
  std::size_t crawled_crls = 0;
  for (const core::Ecosystem::CaEntry& entry : Eco().cas())
    if (entry.spec.google_crawled)
      crawled_crls += static_cast<std::size_t>(entry.spec.num_crls);
  EXPECT_EQ(sources.size(), crawled_crls);
}

TEST_F(EcosystemStructure, TierLookups) {
  EXPECT_EQ(Eco().TierOf(Bytes{1, 2, 3}), core::PopularityTier::kOther);
}

TEST_F(EcosystemStructure, CrossSignedVariantAdvertisedAndVerifiable) {
  // GeoTrust is cross-signed by a second root: both variants appear in
  // scans, and leaves under either variant chain to a trusted root.
  const core::Ecosystem::CaEntry* geotrust = nullptr;
  for (const core::Ecosystem::CaEntry& entry : Eco().cas())
    if (entry.spec.name == "GeoTrust") geotrust = &entry;
  ASSERT_NE(geotrust, nullptr);
  ASSERT_NE(geotrust->cross_cert, nullptr);
  // Same subject and key, different issuer and fingerprint.
  EXPECT_EQ(geotrust->cross_cert->tbs.subject,
            geotrust->ca->cert()->tbs.subject);
  EXPECT_TRUE(geotrust->cross_cert->tbs.public_key ==
              geotrust->ca->cert()->tbs.public_key);
  EXPECT_NE(geotrust->cross_cert->tbs.issuer, geotrust->ca->cert()->tbs.issuer);
  EXPECT_NE(geotrust->cross_cert->Fingerprint(),
            geotrust->ca->cert()->Fingerprint());

  const scan::CertScanSnapshot snap = scan::RunCertScan(
      Eco().internet(), Eco().config().study_end - 30 * kDay);
  std::size_t primary = 0, cross = 0;
  x509::CertPtr cross_leaf;
  for (const scan::CertObservation& obs : snap.observations) {
    if (obs.chain.size() < 2) continue;
    if (obs.chain[1]->Fingerprint() == geotrust->ca->cert()->Fingerprint())
      ++primary;
    if (obs.chain[1]->Fingerprint() == geotrust->cross_cert->Fingerprint()) {
      ++cross;
      cross_leaf = obs.chain[0];
    }
  }
  EXPECT_GT(primary, 0u);
  ASSERT_GT(cross, 0u);

  // A leaf advertised under the cross-signed variant verifies.
  x509::CertPool pool;
  pool.Add(geotrust->cross_cert);
  x509::VerifyOptions options;
  options.ignore_dates = true;
  EXPECT_TRUE(x509::VerifyChain(cross_leaf, pool, Eco().roots(), options).ok());
}

TEST_F(EcosystemStructure, CaNameLookups) {
  EXPECT_EQ(Eco().CaNameForUrl("http://crl.godaddy.sim/crl0.crl"), "GoDaddy");
  EXPECT_EQ(Eco().CaNameForUrl("http://crl.sub.verisign.sim/crl0.crl"),
            "Verisign SubCA");
  EXPECT_EQ(Eco().CaNameForUrl("http://unknown.sim/x"), "");
  EXPECT_EQ(Eco().CaNameForUrl("not a url"), "");
}

}  // namespace
}  // namespace rev
