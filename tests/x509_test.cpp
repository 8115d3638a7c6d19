// X.509 tests: names, SPKI, extensions, certificate round-trips, signature
// verification, chain building, and the Intermediate Set construction.
#include <gtest/gtest.h>

#include "asn1/writer.h"
#include "crypto/signer.h"
#include "util/rng.h"
#include "x509/certificate.h"
#include "x509/describe.h"
#include "x509/extensions.h"
#include "x509/name.h"
#include "x509/spki.h"
#include "x509/verify.h"

namespace rev::x509 {
namespace {

constexpr util::Timestamp kNow = 100 * util::kSecondsPerDay;
constexpr std::int64_t kYear = 365 * util::kSecondsPerDay;

crypto::KeyPair TestKey(std::string_view label) {
  return crypto::SimKeyFromLabel(label);
}

TbsCertificate MakeLeafTbs(std::string_view cn, const Name& issuer,
                           const crypto::PublicKey& key) {
  TbsCertificate tbs;
  tbs.serial = Serial{0x01, 0x02, 0x03, 0x04};
  tbs.issuer = issuer;
  tbs.subject = Name::FromCommonName(cn);
  tbs.not_before = kNow - 30 * util::kSecondsPerDay;
  tbs.not_after = kNow + kYear;
  tbs.public_key = key;
  tbs.crl_urls = {"http://crl.test.sim/a.crl"};
  tbs.ocsp_urls = {"http://ocsp.test.sim/"};
  tbs.dns_names = {std::string(cn)};
  tbs.key_usage = kKeyUsageDigitalSignature;
  return tbs;
}

// ---------------------------------------------------------------- name ----

TEST(Name, RoundTrip) {
  const Name name = Name::Make("example.com", "Example Org", "DE");
  const Bytes der = name.Encode();
  asn1::Reader r{BytesView(der)};
  BytesView raw;
  Name decoded;
  ASSERT_TRUE(Name::Read(r, &raw, &decoded));
  EXPECT_TRUE(r.Empty());
  EXPECT_EQ(Bytes(raw.begin(), raw.end()), der);
  EXPECT_EQ(decoded, name);
  EXPECT_EQ(decoded.CommonName(), "example.com");
  EXPECT_EQ(decoded.Organization(), "Example Org");
}

TEST(Name, ToStringDisplaysCnFirst) {
  const Name name = Name::Make("example.com", "Org");
  EXPECT_EQ(name.ToString(), "CN=example.com, O=Org, C=US");
}

TEST(Name, EmptyAndEquality) {
  Name a, b;
  EXPECT_TRUE(a.Empty());
  EXPECT_EQ(a, b);
  a.Add(asn1::oids::CommonName(), "x");
  EXPECT_NE(a, b);
  EXPECT_NE(a.DerKey(), b.DerKey());
}

// ---------------------------------------------------------------- spki ----

TEST(Spki, SimRoundTrip) {
  const crypto::PublicKey key = TestKey("k1").Public();
  const Bytes der = EncodeSpki(key);
  asn1::Reader r{BytesView(der)};
  BytesView raw;
  crypto::PublicKey decoded;
  ASSERT_TRUE(ReadSpki(r, &raw, &decoded));
  EXPECT_EQ(Bytes(raw.begin(), raw.end()), der);
  EXPECT_TRUE(decoded == key);
}

TEST(Spki, RsaRoundTrip) {
  util::Rng rng(1);
  const crypto::PublicKey key =
      crypto::GenerateKeyPair(rng, crypto::KeyType::kRsaSha256, 512).Public();
  const Bytes der = EncodeSpki(key);
  asn1::Reader r{BytesView(der)};
  crypto::PublicKey decoded;
  ASSERT_TRUE(ReadSpki(r, nullptr, &decoded));
  EXPECT_TRUE(decoded == key);
}

TEST(Spki, HashDistinguishesKeys) {
  EXPECT_NE(SpkiSha256(TestKey("a").Public()), SpkiSha256(TestKey("b").Public()));
  EXPECT_EQ(SpkiSha256(TestKey("a").Public()), SpkiSha256(TestKey("a").Public()));
}

// ----------------------------------------------------------- extensions ----

// One extension written by its encoder as a one-element list and read back
// through the borrowed Extensions range: the round trip every typed codec
// below goes through. The view aliases the list this object owns.
class Written {
 public:
  template <typename F>
  explicit Written(F&& encode)
      : der_(asn1::Encode([&](asn1::Writer& w) {
          const std::size_t list = w.Begin(asn1::kTagSequence);
          encode(w);
          w.End(list);
        })) {
    asn1::Reader r{BytesView(der_)};
    Extensions exts;
    EXPECT_TRUE(ReadExtensions(r, &exts) && r.Empty());
    int count = 0;
    for (const ExtensionView& ext : exts) {
      ext_ = ext;
      ++count;
    }
    EXPECT_EQ(count, 1);
  }
  Written(const Written&) = delete;
  Written& operator=(const Written&) = delete;

  const ExtensionView* operator->() const { return &ext_; }

 private:
  Bytes der_;
  ExtensionView ext_;
};

TEST(Extensions, BasicConstraintsRoundTrip) {
  for (const BasicConstraints bc :
       {BasicConstraints{false, -1}, BasicConstraints{true, -1},
        BasicConstraints{true, 0}, BasicConstraints{true, 3}}) {
    const Written ext(
        [&](asn1::Writer& w) { EncodeBasicConstraints(w, bc); });
    EXPECT_TRUE(asn1::OidContentIs(ext->oid, asn1::oids::BasicConstraints()));
    EXPECT_TRUE(ext->critical);
    BasicConstraints decoded;
    ASSERT_TRUE(ParseBasicConstraints(ext->value, &decoded));
    EXPECT_EQ(decoded.is_ca, bc.is_ca);
    EXPECT_EQ(decoded.path_len, bc.path_len);
  }
}

TEST(Extensions, KeyUsageRoundTrip) {
  for (std::uint16_t bits :
       {std::uint16_t{0}, std::uint16_t{kKeyUsageDigitalSignature},
        std::uint16_t{kKeyUsageKeyCertSign | kKeyUsageCrlSign},
        std::uint16_t{kKeyUsageDigitalSignature | kKeyUsageKeyEncipherment}}) {
    const Written ext([&](asn1::Writer& w) { EncodeKeyUsage(w, bits); });
    EXPECT_TRUE(ext->critical);
    std::uint16_t decoded = 0xFFFF;
    ASSERT_TRUE(ParseKeyUsage(ext->value, &decoded));
    EXPECT_EQ(decoded, bits);
  }
}

TEST(Extensions, CrlDistributionPointsRoundTrip) {
  const std::vector<std::string> urls = {"http://crl1.ca.sim/a.crl",
                                         "http://crl2.ca.sim/b.crl"};
  const Written ext(
      [&](asn1::Writer& w) { EncodeCrlDistributionPoints(w, urls); });
  EXPECT_FALSE(ext->critical);
  std::vector<std::string_view> decoded;
  ASSERT_TRUE(ParseCrlDistributionPoints(ext->value, &decoded));
  EXPECT_EQ(std::vector<std::string>(decoded.begin(), decoded.end()), urls);
}

TEST(Extensions, AiaRoundTrip) {
  const std::vector<std::string> ocsp_urls = {"http://ocsp.ca.sim/"};
  const std::vector<std::string> ca_issuer_urls = {"http://ca.sim/issuer.crt"};
  const Written ext([&](asn1::Writer& w) {
    EncodeAuthorityInfoAccess(w, ocsp_urls, ca_issuer_urls);
  });
  // The caIssuers description is skipped.
  std::vector<std::string_view> ocsp;
  ASSERT_TRUE(ParseAuthorityInfoAccess(ext->value, &ocsp));
  EXPECT_EQ(std::vector<std::string>(ocsp.begin(), ocsp.end()), ocsp_urls);
}

TEST(Extensions, PoliciesRoundTrip) {
  const std::vector<asn1::Oid> policies = {asn1::oids::VerisignEvPolicy()};
  const Written ext(
      [&](asn1::Writer& w) { EncodeCertificatePolicies(w, policies); });
  std::vector<asn1::Oid> decoded;
  bool is_ev = false;
  ASSERT_TRUE(ParseCertificatePolicies(ext->value, &decoded, &is_ev));
  EXPECT_EQ(decoded, policies);
  EXPECT_TRUE(is_ev);
}

TEST(Extensions, SanRoundTrip) {
  const std::vector<std::string> dns = {"a.example", "b.example"};
  const Written ext([&](asn1::Writer& w) { EncodeSubjectAltName(w, dns); });
  std::vector<std::string> decoded;
  ASSERT_TRUE(ParseSubjectAltName(ext->value, &decoded));
  EXPECT_EQ(decoded, dns);
}

TEST(Extensions, NameConstraintsRoundTrip) {
  NameConstraints nc;
  nc.permitted_dns = {"example.com", "example.org"};
  nc.excluded_dns = {"internal.example.com"};
  const Written ext(
      [&](asn1::Writer& w) { EncodeNameConstraints(w, nc); });
  EXPECT_TRUE(ext->critical);
  NameConstraints decoded;
  ASSERT_TRUE(ParseNameConstraints(ext->value, &decoded));
  EXPECT_EQ(decoded.permitted_dns, nc.permitted_dns);
  EXPECT_EQ(decoded.excluded_dns, nc.excluded_dns);

  // One-sided constraints round-trip too.
  NameConstraints only_excluded;
  only_excluded.excluded_dns = {"bad.sim"};
  NameConstraints decoded2;
  ASSERT_TRUE(ParseNameConstraints(Written([&](asn1::Writer& w) {
                                     EncodeNameConstraints(w, only_excluded);
                                   })->value,
                                   &decoded2));
  EXPECT_TRUE(decoded2.permitted_dns.empty());
  EXPECT_EQ(decoded2.excluded_dns, only_excluded.excluded_dns);
}

TEST(Extensions, DnsSubtreeMatching) {
  EXPECT_TRUE(DnsNameInSubtree("example.com", "example.com"));
  EXPECT_TRUE(DnsNameInSubtree("www.example.com", "example.com"));
  EXPECT_TRUE(DnsNameInSubtree("a.b.example.com", "example.com"));
  EXPECT_FALSE(DnsNameInSubtree("notexample.com", "example.com"));
  EXPECT_FALSE(DnsNameInSubtree("example.org", "example.com"));
  EXPECT_FALSE(DnsNameInSubtree("com", "example.com"));
}

TEST(Extensions, NameConstraintsSemantics) {
  NameConstraints nc;
  nc.permitted_dns = {"example.com"};
  nc.excluded_dns = {"secret.example.com"};
  EXPECT_TRUE(NameConstraintsAllow(nc, "www.example.com"));
  EXPECT_FALSE(NameConstraintsAllow(nc, "www.other.com"));
  EXPECT_FALSE(NameConstraintsAllow(nc, "x.secret.example.com"));
  // Empty permitted list = allow anything not excluded.
  NameConstraints exclude_only;
  exclude_only.excluded_dns = {"bad.sim"};
  EXPECT_TRUE(NameConstraintsAllow(exclude_only, "good.sim"));
  EXPECT_FALSE(NameConstraintsAllow(exclude_only, "www.bad.sim"));
}

TEST(Verify, NameConstraintsEnforcedWhenAsked) {
  // A constrained intermediate may only issue under example.com.
  const crypto::KeyPair root_key = TestKey("ncroot");
  TbsCertificate root_tbs;
  root_tbs.serial = Serial{1};
  root_tbs.issuer = root_tbs.subject = Name::FromCommonName("NC Root");
  root_tbs.not_before = 0;
  root_tbs.not_after = kNow + 20 * kYear;
  root_tbs.public_key = root_key.Public();
  root_tbs.basic_constraints = {true, -1};
  auto root = std::make_shared<const Certificate>(
      SignCertificate(root_tbs, root_key));

  const crypto::KeyPair int_key = TestKey("ncint");
  TbsCertificate int_tbs = root_tbs;
  int_tbs.serial = Serial{2};
  int_tbs.issuer = root_tbs.subject;
  int_tbs.subject = Name::FromCommonName("NC Intermediate");
  int_tbs.public_key = int_key.Public();
  int_tbs.name_constraints.permitted_dns = {"example.com"};
  auto intermediate = std::make_shared<const Certificate>(
      SignCertificate(int_tbs, root_key));
  // The constraint survives a DER round-trip.
  auto reparsed = ParseCertificate(intermediate->der);
  ASSERT_TRUE(reparsed);
  EXPECT_EQ(reparsed->tbs.name_constraints.permitted_dns,
            int_tbs.name_constraints.permitted_dns);

  auto in_scope = std::make_shared<const Certificate>(SignCertificate(
      MakeLeafTbs("www.example.com", int_tbs.subject, TestKey("l1").Public()),
      int_key));
  auto out_of_scope = std::make_shared<const Certificate>(SignCertificate(
      MakeLeafTbs("www.victim.net", int_tbs.subject, TestKey("l2").Public()),
      int_key));

  CertPool roots, pool;
  roots.Add(root);
  pool.Add(intermediate);
  VerifyOptions options;
  options.at = kNow;
  // Default (like most clients, per the paper): not enforced.
  EXPECT_TRUE(VerifyChain(out_of_scope, pool, roots, options).ok());
  // Enforcing: in-scope passes, out-of-scope fails.
  options.enforce_name_constraints = true;
  EXPECT_TRUE(VerifyChain(in_scope, pool, roots, options).ok());
  EXPECT_EQ(VerifyChain(out_of_scope, pool, roots, options).status,
            VerifyStatus::kNameConstraintViolation);
}

TEST(Extensions, KeyIdentifiersRoundTrip) {
  const Bytes id = {1, 2, 3, 4, 5};
  Bytes ski, aki;
  ASSERT_TRUE(ParseSubjectKeyIdentifier(
      Written([&](asn1::Writer& w) { EncodeSubjectKeyIdentifier(w, id); })
          ->value,
      &ski));
  EXPECT_EQ(ski, id);
  ASSERT_TRUE(ParseAuthorityKeyIdentifier(
      Written([&](asn1::Writer& w) { EncodeAuthorityKeyIdentifier(w, id); })
          ->value,
      &aki));
  EXPECT_EQ(aki, id);
}

TEST(Extensions, CrlReasonRoundTrip) {
  for (ReasonCode rc : {ReasonCode::kUnspecified, ReasonCode::kKeyCompromise,
                        ReasonCode::kCaCompromise, ReasonCode::kSuperseded,
                        ReasonCode::kPrivilegeWithdrawn}) {
    auto decoded = ParseCrlReason(
        Written([&](asn1::Writer& w) { EncodeCrlReason(w, rc); })->value);
    ASSERT_TRUE(decoded);
    EXPECT_EQ(*decoded, rc);
  }
  // Reason 7 is unassigned in RFC 5280.
  const Written bad([](asn1::Writer& w) {
    EncodeCrlReason(w, static_cast<ReasonCode>(7));
  });
  EXPECT_FALSE(ParseCrlReason(bad->value));
}

TEST(Extensions, ListRoundTrip) {
  const std::vector<std::string> sans = {"x.example"};
  const Bytes der = asn1::Encode([&](asn1::Writer& w) {
    const std::size_t list = w.Begin(asn1::kTagSequence);
    EncodeBasicConstraints(w, {true, 2});
    EncodeKeyUsage(w, kKeyUsageCrlSign);
    EncodeSubjectAltName(w, sans);
    w.End(list);
  });
  asn1::Reader r{BytesView(der)};
  Extensions decoded;
  ASSERT_TRUE(ReadExtensions(r, &decoded));
  std::vector<CertExtension> kinds;
  for (const ExtensionView& ext : decoded)
    kinds.push_back(ClassifyCertExtension(ext.oid));
  EXPECT_EQ(kinds, (std::vector<CertExtension>{CertExtension::kBasicConstraints,
                                               CertExtension::kKeyUsage,
                                               CertExtension::kSubjectAltName}));
}

// ----------------------------------------------------------- certificate ----

TEST(Certificate, SignParseRoundTrip) {
  const crypto::KeyPair ca_key = TestKey("ca");
  const crypto::KeyPair leaf_key = TestKey("leaf");
  const Name issuer = Name::Make("Test CA", "Test Org");
  TbsCertificate tbs = MakeLeafTbs("www.example.sim", issuer, leaf_key.Public());
  tbs.policies = {asn1::oids::VerisignEvPolicy()};
  const Certificate cert = SignCertificate(tbs, ca_key);

  auto parsed = ParseCertificate(cert.der);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->tbs.serial, tbs.serial);
  EXPECT_EQ(parsed->tbs.issuer, issuer);
  EXPECT_EQ(parsed->tbs.subject.CommonName(), "www.example.sim");
  EXPECT_EQ(parsed->tbs.not_before, tbs.not_before);
  EXPECT_EQ(parsed->tbs.not_after, tbs.not_after);
  EXPECT_TRUE(parsed->tbs.public_key == leaf_key.Public());
  EXPECT_EQ(parsed->tbs.crl_urls, tbs.crl_urls);
  EXPECT_EQ(parsed->tbs.ocsp_urls, tbs.ocsp_urls);
  EXPECT_EQ(parsed->tbs.dns_names, tbs.dns_names);
  EXPECT_EQ(parsed->tbs.key_usage, tbs.key_usage);
  EXPECT_TRUE(parsed->IsEv());
  EXPECT_FALSE(parsed->IsCa());
  EXPECT_EQ(parsed->der, cert.der);
  EXPECT_EQ(parsed->tbs_der, cert.tbs_der);
  EXPECT_EQ(parsed->Fingerprint(), cert.Fingerprint());
}

TEST(Certificate, SignatureVerifies) {
  const crypto::KeyPair ca_key = TestKey("ca2");
  const Certificate cert = SignCertificate(
      MakeLeafTbs("a.sim", Name::FromCommonName("CA"), TestKey("l").Public()),
      ca_key);
  EXPECT_TRUE(VerifyCertificateSignature(cert, ca_key.Public()));
  EXPECT_FALSE(VerifyCertificateSignature(cert, TestKey("other").Public()));
}

TEST(Certificate, ParsedSignatureVerifiesAgainstRawTbs) {
  const crypto::KeyPair ca_key = TestKey("ca3");
  const Certificate cert = SignCertificate(
      MakeLeafTbs("b.sim", Name::FromCommonName("CA"), TestKey("l2").Public()),
      ca_key);
  auto parsed = ParseCertificate(cert.der);
  ASSERT_TRUE(parsed);
  EXPECT_TRUE(VerifyCertificateSignature(*parsed, ca_key.Public()));
}

TEST(Certificate, TamperedDerRejected) {
  const crypto::KeyPair ca_key = TestKey("ca4");
  Certificate cert = SignCertificate(
      MakeLeafTbs("c.sim", Name::FromCommonName("CA"), TestKey("l3").Public()),
      ca_key);
  // Flip a byte inside the TBS region (serial area) and re-parse.
  Bytes tampered = cert.der;
  tampered[12] ^= 0x01;
  auto parsed = ParseCertificate(tampered);
  if (parsed) {
    EXPECT_FALSE(VerifyCertificateSignature(*parsed, ca_key.Public()));
  }
}

TEST(Certificate, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseCertificate(Bytes{}));
  EXPECT_FALSE(ParseCertificate(Bytes{0x30, 0x03, 0x01, 0x01, 0xFF}));
  Bytes truncated = SignCertificate(MakeLeafTbs("d.sim", Name::FromCommonName("CA"),
                                                TestKey("l4").Public()),
                                    TestKey("ca5"))
                        .der;
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(ParseCertificate(truncated));
}

TEST(Certificate, ParseRejectsUnknownCriticalExtension) {
  // Hand-assemble a certificate with an unknown critical extension by
  // splicing: easier to construct via a custom TBS then patch. Instead,
  // verify the parser accepts unknown NON-critical extensions by adding one
  // manually at the Extension level.
  const Bytes list = asn1::Encode([](asn1::Writer& w) {
    const std::size_t seq = w.Begin(asn1::kTagSequence);
    const ExtensionMark unknown =
        BeginExtension(w, asn1::Oid{1, 2, 3, 4, 5}, /*critical=*/true);
    w.Null();
    EndExtension(w, unknown);
    w.End(seq);
  });
  asn1::Reader r{BytesView(list)};
  Extensions decoded;
  ASSERT_TRUE(ReadExtensions(r, &decoded));
  const Extensions::Iterator it = decoded.begin();
  ASSERT_FALSE(it == decoded.end());
  EXPECT_TRUE((*it).critical);
  EXPECT_EQ(ClassifyCertExtension((*it).oid), CertExtension::kUnknown);
}

TEST(Certificate, FreshnessAndUnrevocable) {
  TbsCertificate tbs = MakeLeafTbs("e.sim", Name::FromCommonName("CA"),
                                   TestKey("l5").Public());
  const Certificate cert = SignCertificate(tbs, TestKey("ca6"));
  EXPECT_TRUE(cert.IsFresh(kNow));
  EXPECT_FALSE(cert.IsFresh(tbs.not_before - 1));
  EXPECT_FALSE(cert.IsFresh(tbs.not_after + 1));
  EXPECT_FALSE(cert.Unrevocable());

  tbs.crl_urls.clear();
  tbs.ocsp_urls.clear();
  const Certificate bare = SignCertificate(tbs, TestKey("ca6"));
  EXPECT_TRUE(bare.Unrevocable());
}

TEST(Certificate, SerialToString) {
  EXPECT_EQ(SerialToString(Serial{0xDE, 0xAD, 0x01}), "dead01");
}

// -------------------------------------------------------------- verify ----

struct ChainFixture {
  crypto::KeyPair root_key = TestKey("root");
  crypto::KeyPair int_key = TestKey("int");
  crypto::KeyPair leaf_key = TestKey("leafk");
  CertPtr root, intermediate, leaf;
  CertPool roots, intermediates;

  ChainFixture() {
    TbsCertificate root_tbs;
    root_tbs.serial = Serial{1};
    root_tbs.issuer = root_tbs.subject = Name::FromCommonName("Root");
    root_tbs.not_before = 0;
    root_tbs.not_after = kNow + 20 * kYear;
    root_tbs.public_key = root_key.Public();
    root_tbs.basic_constraints = {true, -1};
    root = std::make_shared<const Certificate>(
        SignCertificate(root_tbs, root_key));

    TbsCertificate int_tbs;
    int_tbs.serial = Serial{2};
    int_tbs.issuer = Name::FromCommonName("Root");
    int_tbs.subject = Name::FromCommonName("Intermediate");
    int_tbs.not_before = 0;
    int_tbs.not_after = kNow + 10 * kYear;
    int_tbs.public_key = int_key.Public();
    int_tbs.basic_constraints = {true, -1};
    intermediate = std::make_shared<const Certificate>(
        SignCertificate(int_tbs, root_key));

    leaf = std::make_shared<const Certificate>(SignCertificate(
        MakeLeafTbs("www.chain.sim", Name::FromCommonName("Intermediate"),
                    leaf_key.Public()),
        int_key));

    roots.Add(root);
    intermediates.Add(intermediate);
  }
};

TEST(Verify, ValidChain) {
  ChainFixture f;
  VerifyOptions options;
  options.at = kNow;
  const VerifyResult result =
      VerifyChain(f.leaf, f.intermediates, f.roots, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.chain.size(), 3u);
  EXPECT_EQ(result.chain[0]->Fingerprint(), f.leaf->Fingerprint());
  EXPECT_EQ(result.chain[1]->Fingerprint(), f.intermediate->Fingerprint());
  EXPECT_EQ(result.chain[2]->Fingerprint(), f.root->Fingerprint());
}

TEST(Verify, MissingIntermediateFails) {
  ChainFixture f;
  CertPool empty;
  VerifyOptions options;
  options.at = kNow;
  const VerifyResult result = VerifyChain(f.leaf, empty, f.roots, options);
  EXPECT_EQ(result.status, VerifyStatus::kNoPath);
}

TEST(Verify, UntrustedRootFails) {
  ChainFixture f;
  CertPool empty_roots;
  VerifyOptions options;
  options.at = kNow;
  const VerifyResult result =
      VerifyChain(f.leaf, f.intermediates, empty_roots, options);
  EXPECT_FALSE(result.ok());
}

TEST(Verify, ExpiredLeafRespectsDates) {
  ChainFixture f;
  VerifyOptions options;
  options.at = kNow + 5 * kYear;  // leaf expired
  EXPECT_EQ(VerifyChain(f.leaf, f.intermediates, f.roots, options).status,
            VerifyStatus::kExpired);
  options.at = f.leaf->tbs.not_before - util::kSecondsPerDay;
  EXPECT_EQ(VerifyChain(f.leaf, f.intermediates, f.roots, options).status,
            VerifyStatus::kNotYetValid);
  options.ignore_dates = true;
  EXPECT_TRUE(VerifyChain(f.leaf, f.intermediates, f.roots, options).ok());
}

TEST(Verify, BadSignatureFails) {
  ChainFixture f;
  // Leaf claims Intermediate as issuer but is signed by the wrong key.
  auto forged = std::make_shared<const Certificate>(SignCertificate(
      MakeLeafTbs("evil.sim", Name::FromCommonName("Intermediate"),
                  TestKey("evil").Public()),
      TestKey("wrong-key")));
  VerifyOptions options;
  options.at = kNow;
  const VerifyResult result =
      VerifyChain(forged, f.intermediates, f.roots, options);
  EXPECT_EQ(result.status, VerifyStatus::kBadSignature);
}

TEST(Verify, NonCaIssuerRejected) {
  ChainFixture f;
  // A leaf that "issues" another leaf must not form a chain.
  auto sub_leaf = std::make_shared<const Certificate>(SignCertificate(
      MakeLeafTbs("sub.sim", Name::FromCommonName("www.chain.sim"),
                  TestKey("sub").Public()),
      f.leaf_key));
  CertPool pool = f.intermediates;
  pool.Add(f.leaf);
  VerifyOptions options;
  options.at = kNow;
  const VerifyResult result = VerifyChain(sub_leaf, pool, f.roots, options);
  EXPECT_EQ(result.status, VerifyStatus::kIssuerNotCa);
}

TEST(Verify, CrossSignedFindsAlternatePath) {
  ChainFixture f;
  // A second root cross-signs the intermediate; removing the first root
  // still yields a valid chain through the cross-signature.
  const crypto::KeyPair root2_key = TestKey("root2");
  TbsCertificate root2_tbs;
  root2_tbs.serial = Serial{9};
  root2_tbs.issuer = root2_tbs.subject = Name::FromCommonName("Root2");
  root2_tbs.not_before = 0;
  root2_tbs.not_after = kNow + 20 * kYear;
  root2_tbs.public_key = root2_key.Public();
  root2_tbs.basic_constraints = {true, -1};
  auto root2 = std::make_shared<const Certificate>(
      SignCertificate(root2_tbs, root2_key));

  TbsCertificate cross_tbs = f.intermediate->tbs;
  cross_tbs.issuer = Name::FromCommonName("Root2");
  cross_tbs.serial = Serial{10};
  auto cross = std::make_shared<const Certificate>(
      SignCertificate(cross_tbs, root2_key));

  CertPool roots2;
  roots2.Add(root2);
  CertPool pool;
  pool.Add(f.intermediate);  // chains to Root (not trusted here)
  pool.Add(cross);           // chains to Root2

  VerifyOptions options;
  options.at = kNow;
  const VerifyResult result = VerifyChain(f.leaf, pool, roots2, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.chain.size(), 3u);
  EXPECT_EQ(result.chain[1]->Fingerprint(), cross->Fingerprint());
}

TEST(Verify, DepthLimit) {
  ChainFixture f;
  VerifyOptions options;
  options.at = kNow;
  options.max_depth = 1;
  const VerifyResult result =
      VerifyChain(f.leaf, f.intermediates, f.roots, options);
  EXPECT_FALSE(result.ok());
}

TEST(Verify, RootAsLeafTrivially) {
  ChainFixture f;
  VerifyOptions options;
  options.at = kNow;
  const VerifyResult result =
      VerifyChain(f.root, f.intermediates, f.roots, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.chain.size(), 1u);
}

TEST(Verify, IntermediateSetIterativeClosure) {
  ChainFixture f;
  // int2 is signed by f.intermediate: verifiable only after f.intermediate.
  const crypto::KeyPair int2_key = TestKey("int2");
  TbsCertificate int2_tbs;
  int2_tbs.serial = Serial{3};
  int2_tbs.issuer = Name::FromCommonName("Intermediate");
  int2_tbs.subject = Name::FromCommonName("Intermediate2");
  int2_tbs.not_before = 0;
  int2_tbs.not_after = kNow + 8 * kYear;
  int2_tbs.public_key = int2_key.Public();
  int2_tbs.basic_constraints = {true, -1};
  auto int2 = std::make_shared<const Certificate>(
      SignCertificate(int2_tbs, f.int_key));

  // Junk CA: self-signed, not rooted.
  const crypto::KeyPair junk_key = TestKey("junk");
  TbsCertificate junk_tbs = int2_tbs;
  junk_tbs.issuer = junk_tbs.subject = Name::FromCommonName("Junk CA");
  junk_tbs.public_key = junk_key.Public();
  auto junk = std::make_shared<const Certificate>(
      SignCertificate(junk_tbs, junk_key));

  // Present candidates in an order that requires iteration (int2 first).
  const std::vector<CertPtr> candidates = {int2, junk, f.intermediate};
  const std::vector<CertPtr> set = BuildIntermediateSet(candidates, f.roots);
  ASSERT_EQ(set.size(), 2u);
  // Junk CA excluded.
  for (const CertPtr& cert : set)
    EXPECT_NE(cert->tbs.subject.CommonName(), "Junk CA");
}

TEST(Describe, CertificateRendering) {
  TbsCertificate tbs = MakeLeafTbs("www.describe.sim",
                                   Name::FromCommonName("Describer CA"),
                                   TestKey("dk").Public());
  tbs.policies = {asn1::oids::VerisignEvPolicy()};
  tbs.name_constraints.permitted_dns = {"describe.sim"};
  const Certificate cert = SignCertificate(tbs, TestKey("dca"));
  const std::string text = DescribeCertificate(cert);
  EXPECT_NE(text.find("www.describe.sim"), std::string::npos);
  EXPECT_NE(text.find("Describer CA"), std::string::npos);
  EXPECT_NE(text.find("EV policy   : yes"), std::string::npos);
  EXPECT_NE(text.find("permitted   : describe.sim"), std::string::npos);
  EXPECT_NE(text.find("fingerprint"), std::string::npos);

  // Unrevocable certs carry the warning.
  tbs.crl_urls.clear();
  tbs.ocsp_urls.clear();
  const std::string bare = DescribeCertificate(SignCertificate(tbs, TestKey("dca")));
  EXPECT_NE(bare.find("unrevocable"), std::string::npos);
}

TEST(CertPool, DedupAndLookup) {
  ChainFixture f;
  CertPool pool;
  pool.Add(f.leaf);
  pool.Add(f.leaf);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_TRUE(pool.Contains(*f.leaf));
  EXPECT_FALSE(pool.Contains(*f.root));
  EXPECT_EQ(pool.FindBySubject(f.leaf->tbs.subject).size(), 1u);
  EXPECT_TRUE(pool.FindBySubject(Name::FromCommonName("nope")).empty());
}

}  // namespace
}  // namespace rev::x509
