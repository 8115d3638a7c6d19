// Randomized property tests (parameterized over seeds): DER round-trips for
// randomly shaped certificates / CRLs / OCSP messages, chain verification
// invariants at random depths, filter guarantees across random workloads,
// end-to-end CA/browser consistency under random revocation schedules,
// ParseCertView against ParseCertificate on near-miss OIDs and Name shapes,
// the one certificate walk against the separate parser it replaced,
// the CRL view parse against the allocating parser it replaced,
// the OCSP request view parser against the allocating parser it replaced,
// the one-buffer DER writer against the concatenating encoders it replaced,
// and the SHA-256 compression paths against the scalar oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <tuple>

#include "asn1/reader.h"
#include "asn1/writer.h"
#include "browser/client.h"
#include "core/pipeline.h"
#include "net/retry.h"
#include "browser/profiles.h"
#include "ca/ca.h"
#include "util/interner.h"
#include "crl/crl.h"
#include "crlset/bloom.h"
#include "crlset/gcs.h"
#include "crypto/sha256.h"
#include "crypto/sha256_blocks.h"
#include "crypto/signer.h"
#include "der_reference.h"
#include "ocsp/ocsp.h"
#include "util/hash.h"
#include "util/hash_index.h"
#include "util/hex.h"
#include "util/rng.h"
#include "x509/certificate.h"
#include "x509/extensions.h"
#include "x509/spki.h"
#include "x509/verify.h"
#include "x509/view.h"

namespace rev {
namespace {

// The concatenating encoders the Writer replaced: the differential tests'
// reference, and a free hand for building the odd shapes below.
namespace der = reference::asn1;

constexpr util::Timestamp kNow = 1'420'000'000;
constexpr std::int64_t kDay = util::kSecondsPerDay;

std::string RandomLabel(util::Rng& rng, std::size_t max_len) {
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789-.";
  const std::size_t len = 1 + rng.NextBelow(max_len);
  std::string out;
  for (std::size_t i = 0; i < len; ++i)
    out.push_back(kAlphabet[rng.NextBelow(sizeof(kAlphabet) - 1)]);
  return out;
}

x509::Serial RandomSerial(util::Rng& rng) {
  x509::Serial serial(1 + rng.NextBelow(49));
  rng.Fill(serial.data(), serial.size());
  if (serial[0] == 0) serial[0] = 1;
  return serial;
}

class Seeded : public ::testing::TestWithParam<int> {
 protected:
  util::Rng rng_{static_cast<std::uint64_t>(GetParam()) * 0x9E3779B9u + 7};
};

// ------------------------------------------------- certificate round-trip ----

class CertRoundTrip : public Seeded {};

TEST_P(CertRoundTrip, RandomFields) {
  x509::TbsCertificate tbs;
  tbs.serial = RandomSerial(rng_);
  tbs.issuer = x509::Name::Make(RandomLabel(rng_, 30), RandomLabel(rng_, 20));
  tbs.subject = x509::Name::FromCommonName(RandomLabel(rng_, 40));
  tbs.not_before = kNow - static_cast<util::Timestamp>(rng_.NextBelow(3000) * kDay);
  tbs.not_after =
      tbs.not_before + static_cast<util::Timestamp>((1 + rng_.NextBelow(3000)) * kDay);
  tbs.public_key = crypto::SimKeyFromLabel(RandomLabel(rng_, 10)).Public();
  tbs.basic_constraints.is_ca = rng_.Chance(0.3);
  if (tbs.basic_constraints.is_ca && rng_.Chance(0.5))
    tbs.basic_constraints.path_len = static_cast<int>(rng_.NextBelow(5));
  if (rng_.Chance(0.8))
    tbs.key_usage = static_cast<std::uint16_t>(1 + rng_.NextBelow(0x1FF));
  const std::size_t num_crls = rng_.NextBelow(4);
  for (std::size_t i = 0; i < num_crls; ++i)
    tbs.crl_urls.push_back("http://" + RandomLabel(rng_, 20) + ".sim/c" +
                           std::to_string(i) + ".crl");
  const std::size_t num_ocsp = rng_.NextBelow(3);
  for (std::size_t i = 0; i < num_ocsp; ++i)
    tbs.ocsp_urls.push_back("http://" + RandomLabel(rng_, 20) + ".sim/");
  if (rng_.Chance(0.3)) tbs.policies = {asn1::oids::VerisignEvPolicy()};
  const std::size_t num_san = rng_.NextBelow(5);
  for (std::size_t i = 0; i < num_san; ++i)
    tbs.dns_names.push_back(RandomLabel(rng_, 30));
  if (rng_.Chance(0.5)) {
    tbs.subject_key_id.resize(20);
    rng_.Fill(tbs.subject_key_id.data(), 20);
  }
  if (rng_.Chance(0.5)) {
    tbs.authority_key_id.resize(20);
    rng_.Fill(tbs.authority_key_id.data(), 20);
  }

  const crypto::KeyPair issuer_key =
      crypto::SimKeyFromLabel(RandomLabel(rng_, 8));
  const x509::Certificate cert = x509::SignCertificate(tbs, issuer_key);
  auto parsed = x509::ParseCertificate(cert.der);
  ASSERT_TRUE(parsed);

  EXPECT_EQ(parsed->tbs.serial, tbs.serial);
  EXPECT_EQ(parsed->tbs.issuer, tbs.issuer);
  EXPECT_EQ(parsed->tbs.subject, tbs.subject);
  EXPECT_EQ(parsed->tbs.not_before, tbs.not_before);
  EXPECT_EQ(parsed->tbs.not_after, tbs.not_after);
  EXPECT_TRUE(parsed->tbs.public_key == tbs.public_key);
  EXPECT_EQ(parsed->tbs.basic_constraints.is_ca, tbs.basic_constraints.is_ca);
  EXPECT_EQ(parsed->tbs.basic_constraints.path_len,
            tbs.basic_constraints.path_len);
  EXPECT_EQ(parsed->tbs.key_usage, tbs.key_usage);
  EXPECT_EQ(parsed->tbs.crl_urls, tbs.crl_urls);
  EXPECT_EQ(parsed->tbs.ocsp_urls, tbs.ocsp_urls);
  EXPECT_EQ(parsed->tbs.policies, tbs.policies);
  EXPECT_EQ(parsed->tbs.dns_names, tbs.dns_names);
  EXPECT_EQ(parsed->tbs.subject_key_id, tbs.subject_key_id);
  EXPECT_EQ(parsed->tbs.authority_key_id, tbs.authority_key_id);
  EXPECT_TRUE(x509::VerifyCertificateSignature(*parsed, issuer_key.Public()));

  // Re-encoding the parsed TBS is byte-identical (canonical DER).
  EXPECT_EQ(x509::EncodeTbs(parsed->tbs, parsed->sig_type), cert.tbs_der);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CertRoundTrip, ::testing::Range(0, 25));

// ------------------------------------------ view vs full parse: OID match ----

// ParseCertView matches OIDs as content bytes; ParseCertificate decodes
// them and compares Oid values. For each OID the view reads, certificates
// carry it exact, one arc longer, one arc shorter, and with a non-minimal
// 0x80 octet before its last subidentifier, with the extension holding it
// critical or not. Both parsers must agree on accept/reject and on every
// column the view fills.
enum class OidSlot {
  kSigAlg, kBasicConstraints, kCrlDp, kAia, kPolicies, kAdOcsp, kEvPolicy,
};

struct OidCertSpec {
  bool rsa_sig_alg = false;
  OidSlot slot = OidSlot::kSigAlg;
  Bytes oid;                   // content octets put in `slot`
  bool critical = false;       // the extension holding `slot` is critical
  Bytes issuer;                // Name DER; empty = the default issuer
  Bytes subject;               // Name DER; empty = the default subject
};

const asn1::Oid& SlotOid(OidSlot slot, bool rsa_sig_alg) {
  switch (slot) {
    case OidSlot::kSigAlg:
      return rsa_sig_alg ? asn1::oids::Sha256WithRsa()
                         : asn1::oids::SimSha256();
    case OidSlot::kBasicConstraints: return asn1::oids::BasicConstraints();
    case OidSlot::kCrlDp: return asn1::oids::CrlDistributionPoints();
    case OidSlot::kAia: return asn1::oids::AuthorityInfoAccess();
    case OidSlot::kPolicies: return asn1::oids::CertificatePolicies();
    case OidSlot::kAdOcsp: return asn1::oids::AdOcsp();
    case OidSlot::kEvPolicy: return asn1::oids::VerisignEvPolicy();
  }
  return asn1::oids::SimSha256();
}

// The extension a slot's OID sits in (the slot itself for extension OIDs).
OidSlot ExtensionOf(OidSlot slot) {
  if (slot == OidSlot::kAdOcsp) return OidSlot::kAia;
  if (slot == OidSlot::kEvPolicy) return OidSlot::kPolicies;
  return slot;
}

// A CA certificate with BasicConstraints, a CRL URL, an OCSP and a
// caIssuers URL and the EV policy; every OID is the well-known one except
// `spec.slot`'s. The signature bytes are arbitrary: neither parser checks it.
Bytes BuildOidCert(const OidCertSpec& spec) {
  const auto oid = [&](OidSlot slot) {
    return der::Tlv(asn1::kTagOid, slot == spec.slot
                                        ? BytesView(spec.oid)
                                        : SlotOid(slot, spec.rsa_sig_alg)
                                              .content());
  };
  const auto uri = [](std::string_view url) {
    return der::EncodeContextPrimitive(6, ToBytes(url));
  };
  const auto extension = [&](OidSlot slot, const Bytes& value) {
    std::vector<Bytes> parts{oid(slot)};
    if (spec.critical && ExtensionOf(spec.slot) == slot)
      parts.push_back(der::EncodeBoolean(true));
    parts.push_back(der::EncodeOctetString(value));
    return der::EncodeSequence(parts);
  };
  const Bytes sig_alg =
      spec.rsa_sig_alg
          ? der::EncodeSequence({oid(OidSlot::kSigAlg), der::EncodeNull()})
          : der::EncodeSequence({oid(OidSlot::kSigAlg)});
  const Bytes extensions = der::EncodeSequence({
      extension(OidSlot::kBasicConstraints,
                der::EncodeSequence({der::EncodeBoolean(true)})),
      extension(OidSlot::kCrlDp,
                reference::x509::MakeCrlDistributionPoints(
                    {"http://crl.oid.sim/a.crl"})
                    .value),
      extension(OidSlot::kAia,
                der::EncodeSequence(
                    {der::EncodeSequence({oid(OidSlot::kAdOcsp),
                                           uri("http://ocsp.oid.sim/")}),
                     der::EncodeSequence(
                         {der::EncodeOid(asn1::oids::AdCaIssuers()),
                          uri("http://ca.oid.sim/ca.crt")})})),
      extension(OidSlot::kPolicies,
                der::EncodeSequence(
                    {der::EncodeSequence({oid(OidSlot::kEvPolicy)})})),
  });
  const Bytes tbs = der::EncodeSequence({
      der::EncodeContextExplicit(0, der::EncodeInteger(2)),
      der::EncodeIntegerUnsigned(Bytes{0x0D, 0x1F}),
      sig_alg,
      spec.issuer.empty() ? x509::Name::Make("OID CA", "Differential").Encode()
                          : spec.issuer,
      der::EncodeSequence({der::EncodeTime(kNow - kDay),
                            der::EncodeTime(kNow + kDay)}),
      spec.subject.empty() ? x509::Name::FromCommonName("oid.sim").Encode()
                           : spec.subject,
      x509::EncodeSpki(crypto::SimKeyFromLabel("oid-subject").Public()),
      der::EncodeContextExplicit(3, extensions),
  });
  return der::EncodeSequence(
      {tbs, sig_alg, der::EncodeBitString(Bytes(32, 0x5A))});
}

// Exact, one arc longer, one arc shorter, and non-minimally padded.
std::vector<std::pair<std::string, Bytes>> OidVariants(const asn1::Oid& oid) {
  const Bytes& exact = oid.content();
  Bytes longer = exact;
  longer.push_back(0x01);
  Bytes shorter = exact;
  shorter.pop_back();  // the last subidentifier's final octet
  while (shorter.back() & 0x80) shorter.pop_back();
  std::size_t last = exact.size() - 1;  // start of the last subidentifier
  while (exact[last - 1] & 0x80) --last;
  Bytes padded = exact;
  padded.insert(padded.begin() + static_cast<std::ptrdiff_t>(last), 0x80);
  return {{"exact", exact},
          {"longer", longer},
          {"shorter", shorter},
          {"padded", padded}};
}

TEST(ViewFullParseAgreement, OidVariantsAcceptAndRejectAlike) {
  int accepted = 0;
  int rejected = 0;
  for (const bool rsa : {false, true}) {
    for (const OidSlot slot :
         {OidSlot::kSigAlg, OidSlot::kBasicConstraints, OidSlot::kCrlDp,
          OidSlot::kAia, OidSlot::kPolicies, OidSlot::kAdOcsp,
          OidSlot::kEvPolicy}) {
      for (const auto& [variant, content] : OidVariants(SlotOid(slot, rsa))) {
        for (const bool critical : {false, true}) {
          if (slot == OidSlot::kSigAlg && critical) continue;
          const Bytes der =
              BuildOidCert({rsa, slot, content, critical, {}, {}});
          SCOPED_TRACE(::testing::Message()
                       << "slot " << static_cast<int>(slot) << " rsa " << rsa
                       << ' ' << variant << (critical ? " critical" : ""));
          const auto view = x509::ParseCertView(der);
          const auto full = x509::ParseCertificate(der);
          ASSERT_EQ(view.has_value(), full.has_value());

          // What both must do: a non-DER OID fails the parse; an unknown
          // signature algorithm or critical extension fails it; any other
          // OID that does not match just drops what it named.
          const bool exact = variant == "exact";
          const bool unknown_ext_oid = slot != OidSlot::kSigAlg &&
                                       ExtensionOf(slot) == slot && !exact;
          const bool want_accept =
              variant != "padded" &&
              !(slot == OidSlot::kSigAlg && !exact) &&
              !(unknown_ext_oid && critical);
          ASSERT_EQ(view.has_value(), want_accept);
          if (!view) {
            ++rejected;
            continue;
          }
          ++accepted;
          EXPECT_EQ(view->is_ca, full->IsCa());
          EXPECT_EQ(view->is_ev, full->IsEv());
          EXPECT_EQ(view->sig_type, full->sig_type);
          EXPECT_EQ(std::vector<std::string>(view->crl_urls.begin(),
                                             view->crl_urls.end()),
                    full->tbs.crl_urls);
          EXPECT_EQ(std::vector<std::string>(view->ocsp_urls.begin(),
                                             view->ocsp_urls.end()),
                    full->tbs.ocsp_urls);

          EXPECT_EQ(view->sig_type, rsa ? crypto::KeyType::kRsaSha256
                                        : crypto::KeyType::kSimSha256);
          const auto named = [&](OidSlot s) { return exact || slot != s; };
          EXPECT_EQ(view->is_ca, named(OidSlot::kBasicConstraints));
          EXPECT_EQ(view->is_ev,
                    named(OidSlot::kPolicies) && named(OidSlot::kEvPolicy));
          EXPECT_EQ(view->crl_urls.size(), named(OidSlot::kCrlDp) ? 1u : 0u);
          EXPECT_EQ(view->ocsp_urls.size(),
                    named(OidSlot::kAia) && named(OidSlot::kAdOcsp) ? 1u
                                                                    : 0u);
        }
      }
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

// Names: both parsers read a Name as X.501 has it. An RDN is a SET SIZE
// (1..MAX), an attribute value is one of the strings Reader::ReadAnyString
// reads, and an AttributeTypeAndValue ends after its value. Each shape sits
// in the issuer and then in the subject.
TEST(ViewFullParseAgreement, NameShapesAcceptAndRejectAlike) {
  const auto atv = [](Bytes value) {
    return der::EncodeSequence(
        {der::EncodeOid(asn1::oids::CommonName()), std::move(value)});
  };
  const Bytes cn = der::EncodeSet({atv(der::EncodeUtf8String("n.sim"))});
  const std::vector<std::tuple<std::string, Bytes, bool>> shapes = {
      {"utf8, printable and ia5 values, two per RDN",
       der::EncodeSequence(
           {der::EncodeSet({atv(der::EncodePrintableString("US")),
                             atv(der::EncodeIa5String("n.sim"))}),
            cn}),
       true},
      {"no RDN at all", der::EncodeSequence({}), true},
      {"an empty RDN SET", der::EncodeSequence({cn, der::EncodeSet({})}),
       false},
      {"an INTEGER value",
       der::EncodeSequence({der::EncodeSet({atv(der::EncodeInteger(5))})}),
       false},
      {"an OCTET STRING value",
       der::EncodeSequence(
           {der::EncodeSet({atv(der::EncodeOctetString(Bytes{0x41}))})}),
       false},
      {"bytes after the value",
       der::EncodeSequence({der::EncodeSet({der::EncodeSequence(
           {der::EncodeOid(asn1::oids::CommonName()),
            der::EncodeUtf8String("n.sim"),
            der::EncodeUtf8String("extra")})})}),
       false},
  };
  for (const auto& [shape, name, valid] : shapes) {
    for (const bool in_issuer : {true, false}) {
      SCOPED_TRACE(::testing::Message()
                   << shape
                   << (in_issuer ? " in the issuer" : " in the subject"));
      OidCertSpec spec{false, OidSlot::kSigAlg,
                       asn1::oids::SimSha256().content(), false, {}, {}};
      (in_issuer ? spec.issuer : spec.subject) = name;
      const Bytes der = BuildOidCert(spec);
      EXPECT_EQ(x509::ParseCertView(der).has_value(), valid);
      EXPECT_EQ(x509::ParseCertificate(der).has_value(), valid);
    }
  }
}

// -------------------------- one certificate walk vs the reference parse ----
//
// ParseCertificate is ParseCertView plus materialization; der_reference.h
// keeps the separate walk it replaced. The two must agree on accept/reject
// and on every field, with two named exceptions the one walk rejects and
// the reference accepts: a certificate carrying a known extension twice
// (RFC 5280 §4.2; the reference took the last instance), and bytes after
// the last field of a SEQUENCE both read whole. Each table row names its
// deviation from a base leaf, in the style of a declarative chain spec, and
// the verdict of each parse; then every one-byte mutation of the row's DER
// (each position set to each other byte value) must agree as well.

namespace ref509 = reference::x509;

// A 512-bit RSA key, generated once (the DER writer tables below use it too).
const crypto::KeyPair& DiffRsaKey() {
  static const crypto::KeyPair key = [] {
    util::Rng rng(0xD1FF);
    return crypto::GenerateKeyPair(rng, crypto::KeyType::kRsaSha256, 512);
  }();
  return key;
}

// A certificate as its DER pieces, so a row can replace any of them.
struct CertParts {
  Bytes version = der::EncodeContextExplicit(0, der::EncodeInteger(2));
  Bytes serial = der::EncodeIntegerUnsigned(Bytes{0x2A, 0x17});
  Bytes inner_alg = ref509::EncodeSignatureAlgorithm(crypto::KeyType::kSimSha256);
  Bytes issuer = ref509::EncodeName(x509::Name::Make("Walk CA", "W"));
  Bytes validity = der::EncodeSequence(
      {der::EncodeTime(kNow - kDay), der::EncodeTime(kNow + kDay)});
  Bytes subject = ref509::EncodeName(x509::Name::FromCommonName("walk.sim"));
  Bytes spki =
      ref509::EncodeSpki(crypto::SimKeyFromLabel("walk-leaf").Public());
  // nullopt: no extensions field at all. `extra_extension` is appended to
  // the list as raw DER, `after_extension_list` inside [3] after the list.
  std::optional<std::vector<ref509::Extension>> extensions =
      std::vector<ref509::Extension>{
          ref509::MakeBasicConstraints({false, -1}),
          ref509::MakeKeyUsage(x509::kKeyUsageDigitalSignature),
          ref509::MakeCrlDistributionPoints({"http://crl.walk.sim/a.crl"}),
          ref509::MakeAuthorityInfoAccess(
              {{"http://ocsp.walk.sim/"}, {"http://ca.walk.sim/ca.crt"}}),
          ref509::MakeCertificatePolicies({asn1::oids::VerisignEvPolicy()}),
          ref509::MakeSubjectAltName({"walk.sim"}),
      };
  Bytes extra_extension;
  Bytes after_extension_list;
  Bytes after_extensions;  // appended inside the TBS
  Bytes outer_alg = ref509::EncodeSignatureAlgorithm(crypto::KeyType::kSimSha256);
  Bytes signature = der::EncodeBitString(Bytes(32, 0x5A));

  Bytes Der() const {
    std::vector<Bytes> tbs{version,  serial,  inner_alg, issuer,
                           validity, subject, spki};
    if (extensions) {
      std::vector<Bytes> list;
      for (const ref509::Extension& ext : *extensions)
        list.push_back(ref509::EncodeExtension(ext));
      list.push_back(extra_extension);
      tbs.push_back(der::EncodeContextExplicit(
          3, der::Concat({der::EncodeSequence(list), after_extension_list})));
    }
    tbs.push_back(after_extensions);
    return der::EncodeSequence(
        {der::EncodeSequence(tbs), outer_alg, signature});
  }
};

ref509::Extension RawExtension(const asn1::Oid& oid, bool critical,
                               Bytes value) {
  return {oid, critical, std::move(value)};
}

struct WalkSpec {
  std::string deviation;
  std::function<void(CertParts&)> apply;
  bool accepts;            // the one walk's verdict
  bool reference_accepts;  // the reference parse's verdict
};

std::vector<WalkSpec> WalkSpecs() {
  using Parts = CertParts;
  const auto add = [](ref509::Extension ext) {
    return [ext](Parts& p) { p.extensions->push_back(ext); };
  };
  const asn1::Oid unknown{1, 3, 6, 1, 4, 1, 99999, 7};
  return {
      {"base leaf: every extension the view reads", [](Parts&) {}, true,
       true},
      {"CA: pathLen, name constraints, key identifiers, two policies",
       [](Parts& p) {
         x509::NameConstraints nc;
         nc.permitted_dns = {"walk.sim"};
         nc.excluded_dns = {"x.walk.sim"};
         p.extensions = std::vector<ref509::Extension>{
             ref509::MakeBasicConstraints({true, 2}),
             ref509::MakeNameConstraints(nc),
             ref509::MakeKeyUsage(x509::kKeyUsageKeyCertSign |
                                  x509::kKeyUsageCrlSign),
             ref509::MakeCrlDistributionPoints(
                 {"http://crl.walk.sim/1.crl", "http://crl.walk.sim/2.crl"}),
             ref509::MakeCertificatePolicies(
                 {asn1::Oid{2, 23, 140, 1, 2, 1},
                  asn1::oids::VerisignEvPolicy()}),
             ref509::MakeSubjectKeyIdentifier(Bytes{1, 2, 3, 4}),
             ref509::MakeAuthorityKeyIdentifier(Bytes{5, 6, 7, 8}),
         };
       },
       true, true},
      {"RSA signature algorithm and RSA subject key",
       [](Parts& p) {
         p.inner_alg = p.outer_alg =
             ref509::EncodeSignatureAlgorithm(crypto::KeyType::kRsaSha256);
         p.spki = ref509::EncodeSpki(DiffRsaKey().Public());
       },
       true, true},
      {"no extensions field", [](Parts& p) { p.extensions.reset(); }, true,
       true},
      {"an empty extension list",
       [](Parts& p) { p.extensions->clear(); }, true, true},
      {"an unknown non-critical extension, twice",
       [=](Parts& p) {
         add(RawExtension(unknown, false, der::EncodeNull()))(p);
         add(RawExtension(unknown, false, der::EncodeNull()))(p);
       },
       true, true},
      {"GeneralizedTime validity before 2050",
       [](Parts& p) {
         p.validity = der::EncodeSequence(
             {der::EncodeGeneralizedTime(kNow - kDay),
              der::EncodeGeneralizedTime(kNow + kDay)});
       },
       true, true},
      {"a serial with its sign-padding zero",
       [](Parts& p) { p.serial = der::EncodeIntegerUnsigned(Bytes{0x80, 1}); },
       true, true},
      {"bytes after the extensions field",
       [](Parts& p) { p.after_extensions = der::EncodeNull(); }, false, true},
      {"bytes after the extension list, inside [3]",
       [](Parts& p) { p.after_extension_list = der::EncodeNull(); }, false,
       true},
      {"bytes after an extension's extnValue",
       [=](Parts& p) {
         p.extra_extension = der::EncodeSequence(
             {der::EncodeOid(unknown), der::EncodeOctetString(der::EncodeNull()),
              der::EncodeNull()});
       },
       false, true},
      {"a NULL after the inner signature algorithm's OID",
       [](Parts& p) {
         p.inner_alg = der::EncodeSequence(
             {der::EncodeOid(asn1::oids::SimSha256()), der::EncodeNull()});
       },
       false, true},
      {"a NULL after the outer RSA signature algorithm's parameters",
       [](Parts& p) {
         p.inner_alg =
             ref509::EncodeSignatureAlgorithm(crypto::KeyType::kRsaSha256);
         p.outer_alg = der::EncodeSequence(
             {der::EncodeOid(asn1::oids::Sha256WithRsa()), der::EncodeNull(),
              der::EncodeNull()});
       },
       false, true},
      {"bytes after notAfter",
       [](Parts& p) {
         p.validity = der::EncodeSequence({der::EncodeTime(kNow - kDay),
                                           der::EncodeTime(kNow + kDay),
                                           der::EncodeNull()});
       },
       false, true},
      {"a NULL after the sim key algorithm's OID",
       [](Parts& p) {
         const Bytes& key = crypto::SimKeyFromLabel("walk-leaf").sim_id;
         p.spki = der::EncodeSequence(
             {der::EncodeSequence({der::EncodeOid(asn1::oids::SimSha256()),
                                   der::EncodeNull()}),
              der::EncodeBitString(key)});
       },
       false, true},
      {"bytes after the SPKI BIT STRING",
       [](Parts& p) {
         const Bytes& key = crypto::SimKeyFromLabel("walk-leaf").sim_id;
         p.spki = der::EncodeSequence(
             {der::EncodeSequence({der::EncodeOid(asn1::oids::SimSha256())}),
              der::EncodeBitString(key), der::EncodeNull()});
       },
       false, true},
      {"bytes after the RSA modulus and exponent",
       [](Parts& p) {
         const crypto::PublicKey& key = DiffRsaKey().Public();
         p.spki = der::EncodeSequence(
             {der::EncodeSequence({der::EncodeOid(asn1::oids::RsaEncryption()),
                                   der::EncodeNull()}),
              der::EncodeBitString(der::EncodeSequence(
                  {der::EncodeIntegerUnsigned(key.rsa.n.ToBytes()),
                   der::EncodeIntegerUnsigned(key.rsa.e.ToBytes()),
                   der::EncodeNull()}))});
       },
       false, true},
      {"a critical unknown extension",
       add(RawExtension(unknown, true, der::EncodeNull())), false, false},
      {"a non-minimal serial",
       [](Parts& p) {
         p.serial = der::Tlv(asn1::kTagInteger, Bytes{0x00, 0x2A});
       },
       false, false},
      {"a negative serial",
       [](Parts& p) { p.serial = der::Tlv(asn1::kTagInteger, Bytes{0xD6}); },
       false, false},
      {"inner and outer signature algorithms differ",
       [](Parts& p) {
         p.outer_alg =
             ref509::EncodeSignatureAlgorithm(crypto::KeyType::kRsaSha256);
       },
       false, false},
      {"version v1",
       [](Parts& p) {
         p.version = der::EncodeContextExplicit(0, der::EncodeInteger(0));
       },
       false, false},
      {"a negative pathLen",
       [](Parts& p) {
         (*p.extensions)[0] = RawExtension(
             asn1::oids::BasicConstraints(), true,
             der::EncodeSequence(
                 {der::EncodeBoolean(true), der::EncodeInteger(-1)}));
       },
       false, false},
      {"a KeyUsage that is not a BIT STRING",
       [](Parts& p) {
         (*p.extensions)[1] =
             RawExtension(asn1::oids::KeyUsage(), true,
                          der::EncodeOctetString(Bytes{0x80}));
       },
       false, false},
      {"a SubjectAltName that is not a SEQUENCE",
       [](Parts& p) {
         (*p.extensions)[5] = RawExtension(
             asn1::oids::SubjectAltName(), false,
             der::EncodeSet({der::EncodeContextPrimitive(2, ToBytes("a"))}));
       },
       false, false},
      {"an SPKI BIT STRING with unused bits",
       [](Parts& p) {
         const Bytes& key = crypto::SimKeyFromLabel("walk-leaf").sim_id;
         p.spki = der::EncodeSequence(
             {der::EncodeSequence({der::EncodeOid(asn1::oids::SimSha256())}),
              der::EncodeBitString(key, 1)});
       },
       false, false},
      {"an SPKI with an unknown algorithm",
       [](Parts& p) {
         p.spki = der::EncodeSequence(
             {der::EncodeSequence({der::EncodeOid(asn1::Oid{1, 2, 3})}),
              der::EncodeBitString(Bytes(32, 0x11))});
       },
       false, false},
      {"a 31-byte sim key",
       [](Parts& p) {
         p.spki = der::EncodeSequence(
             {der::EncodeSequence({der::EncodeOid(asn1::oids::SimSha256())}),
              der::EncodeBitString(Bytes(31, 0x11))});
       },
       false, false},
      {"two CRLDistributionPoints",
       add(ref509::MakeCrlDistributionPoints({"http://crl.walk.sim/b.crl"})),
       false, true},
      {"two AuthorityInfoAccess",
       add(ref509::MakeAuthorityInfoAccess({{"http://ocsp2.walk.sim/"}, {}})),
       false, true},
      {"BasicConstraints(cA), then an empty BasicConstraints",
       [=](Parts& p) {
         (*p.extensions)[0] = ref509::MakeBasicConstraints({true, -1});
         add(ref509::MakeBasicConstraints({false, -1}))(p);
       },
       false, true},
      {"the EV policy, then a second CertificatePolicies",
       add(ref509::MakeCertificatePolicies({asn1::Oid{2, 23, 140, 1, 2, 1}})),
       false, true},
      {"two SubjectAltNames", add(ref509::MakeSubjectAltName({"b.walk.sim"})),
       false, true},
  };
}

// The inputs on which the two parses may differ: an extension list that
// names one known extension twice, and bytes after a field (below).
bool HasDuplicateKnownExtension(const Bytes& der) {
  asn1::Reader top(der), cert, tbs, wrapper;
  if (!top.ReadSequence(&cert) || !cert.ReadSequence(&tbs)) return false;
  BytesView field;
  for (int i = 0; i < 7; ++i)  // version .. subjectPublicKeyInfo
    if (!tbs.ReadRawTlv(&field)) return false;
  if (!tbs.ReadContextExplicit(3, &wrapper)) return false;
  const auto exts = ref509::DecodeExtensionList(wrapper);
  if (!exts) return false;
  namespace oids = asn1::oids;
  for (const asn1::Oid* known :
       {&oids::BasicConstraints(), &oids::NameConstraints(), &oids::KeyUsage(),
        &oids::CrlDistributionPoints(), &oids::AuthorityInfoAccess(),
        &oids::CertificatePolicies(), &oids::SubjectAltName(),
        &oids::SubjectKeyIdentifier(), &oids::AuthorityKeyIdentifier()}) {
    if (std::ranges::count_if(*exts, [&](const ref509::Extension& e) {
          return e.oid == *known;
        }) > 1)
      return true;
  }
  return false;
}

// True when `content` holds bytes after its first `fields` TLVs.
bool BytesAfter(BytesView content, std::size_t fields) {
  asn1::Reader r(content);
  BytesView tlv;
  for (std::size_t i = 0; i < fields; ++i)
    if (!r.ReadRawTlv(&tlv)) return false;
  return !r.Empty();
}

// True when the AlgorithmIdentifier content `alg` holds bytes after its OID
// and, for an RSA algorithm, its NULL parameters.
bool AlgorithmHasBytesAfter(BytesView alg) {
  asn1::Reader r(alg);
  BytesView oid;
  if (!r.ReadTagged(asn1::kTagOid, &oid)) return false;
  const bool rsa = asn1::OidContentIs(oid, asn1::oids::Sha256WithRsa()) ||
                   asn1::OidContentIs(oid, asn1::oids::RsaEncryption());
  return BytesAfter(alg, rsa ? 2 : 1);
}

// True when the Extension content `ext` holds bytes after its extnValue.
bool ExtensionHasBytesAfter(BytesView ext) {
  asn1::Reader fields(ext);
  BytesView oid;
  return fields.ReadRawTlv(&oid) &&
         BytesAfter(ext, fields.NextIs(asn1::kTagBoolean) ? 3 : 2);
}

// The second class of inputs the one walk rejects and the reference
// accepts: bytes after the last field of the TBSCertificate, the Validity,
// an AlgorithmIdentifier, the SubjectPublicKeyInfo, an RSAPublicKey, the
// [3] wrapper or an Extension.
bool HasBytesAfterAField(const Bytes& der) {
  asn1::Reader top(der), cert;
  BytesView tbs, outer_alg;
  if (!top.ReadSequence(&cert) || !cert.ReadTagged(asn1::kTagSequence, &tbs))
    return false;
  if (cert.ReadTagged(asn1::kTagSequence, &outer_alg) &&
      AlgorithmHasBytesAfter(outer_alg))
    return true;
  asn1::Reader t(tbs);
  BytesView version, serial, inner_alg, issuer, validity, subject, spki;
  if (!t.ReadRawTlv(&version) || !t.ReadRawTlv(&serial) ||
      !t.ReadTagged(asn1::kTagSequence, &inner_alg) ||
      !t.ReadRawTlv(&issuer) || !t.ReadTagged(asn1::kTagSequence, &validity) ||
      !t.ReadRawTlv(&subject) || !t.ReadTagged(asn1::kTagSequence, &spki))
    return false;
  if (AlgorithmHasBytesAfter(inner_alg) || BytesAfter(validity, 2) ||
      BytesAfter(spki, 2))
    return true;
  asn1::Reader key(spki);
  BytesView key_alg, key_bits, rsa_key;
  unsigned unused = 0;
  if (!key.ReadTagged(asn1::kTagSequence, &key_alg) ||
      !key.ReadBitString(&key_bits, &unused))
    return false;
  if (AlgorithmHasBytesAfter(key_alg)) return true;
  asn1::Reader rsa(key_bits);
  if (rsa.ReadTagged(asn1::kTagSequence, &rsa_key) &&
      (!rsa.Empty() || BytesAfter(rsa_key, 2)))
    return true;
  if (t.NextIsContext(3)) {
    asn1::Reader wrapper;
    BytesView list, ext;
    if (!t.ReadContextExplicit(3, &wrapper) ||
        !wrapper.ReadTagged(asn1::kTagSequence, &list))
      return false;
    if (!wrapper.Empty()) return true;
    for (asn1::Reader exts(list); exts.ReadTagged(asn1::kTagSequence, &ext);)
      if (ExtensionHasBytesAfter(ext)) return true;
  }
  return !t.Empty();
}

// The first field on which two parsed certificates differ, or "".
std::string FirstDifference(const x509::Certificate& a,
                            const x509::Certificate& b) {
  const x509::TbsCertificate& x = a.tbs;
  const x509::TbsCertificate& y = b.tbs;
  const std::pair<const char*, bool> fields[] = {
      {"der", a.der == b.der},
      {"tbs_der", a.tbs_der == b.tbs_der},
      {"signature", a.signature == b.signature},
      {"sig_type", a.sig_type == b.sig_type},
      {"serial", x.serial == y.serial},
      {"issuer", x.issuer == y.issuer},
      {"subject", x.subject == y.subject},
      {"not_before", x.not_before == y.not_before},
      {"not_after", x.not_after == y.not_after},
      {"public_key", x.public_key == y.public_key},
      {"is_ca", x.basic_constraints.is_ca == y.basic_constraints.is_ca},
      {"path_len", x.basic_constraints.path_len == y.basic_constraints.path_len},
      {"permitted_dns",
       x.name_constraints.permitted_dns == y.name_constraints.permitted_dns},
      {"excluded_dns",
       x.name_constraints.excluded_dns == y.name_constraints.excluded_dns},
      {"key_usage", x.key_usage == y.key_usage},
      {"crl_urls", x.crl_urls == y.crl_urls},
      {"ocsp_urls", x.ocsp_urls == y.ocsp_urls},
      {"policies", x.policies == y.policies},
      {"dns_names", x.dns_names == y.dns_names},
      {"subject_key_id", x.subject_key_id == y.subject_key_id},
      {"authority_key_id", x.authority_key_id == y.authority_key_id},
  };
  for (const auto& [name, same] : fields)
    if (!same) return name;
  return "";
}

// How the two parses disagree on `der` ("" if they agree). Sets *accepted
// to the one walk's verdict.
std::string WalkDisagreement(const Bytes& der, bool* accepted) {
  const std::optional<x509::Certificate> got = x509::ParseCertificate(der);
  const std::optional<x509::Certificate> want = ref509::ParseCertificate(der);
  *accepted = got.has_value();
  if (!got && !want) return "";
  if (HasDuplicateKnownExtension(der))
    return got ? "accepted a duplicate known extension" : "";
  if (!got && want && HasBytesAfterAField(der)) return "";
  if (got.has_value() != want.has_value())
    return got ? "accepted what the reference rejects"
               : "rejected what the reference accepts";
  if (!got) return "";
  if (std::string field = FirstDifference(*got, *want); !field.empty())
    return "differs in " + field;
  const std::optional<x509::CertView> view = x509::ParseCertView(der);
  if (!view || view->is_ca != got->IsCa() || view->is_ev != got->IsEv())
    return "view columns differ from the full parse";
  return "";
}

TEST(ViewFullParseAgreement, OneWalkMatchesTheReferenceParse) {
  std::size_t mutants = 0;
  std::size_t accepted = 0;
  for (const WalkSpec& spec : WalkSpecs()) {
    SCOPED_TRACE(spec.deviation);
    CertParts parts;
    spec.apply(parts);
    const Bytes der = parts.Der();
    ASSERT_EQ(x509::ParseCertificate(der).has_value(), spec.accepts);
    ASSERT_EQ(ref509::ParseCertificate(der).has_value(),
              spec.reference_accepts);
    bool ok = false;
    ASSERT_EQ(WalkDisagreement(der, &ok), "");
    for (std::size_t pos = 0; pos < der.size(); ++pos) {
      Bytes mutated = der;
      for (int delta = 1; delta < 256; ++delta) {
        mutated[pos] = static_cast<std::uint8_t>(der[pos] + delta);
        const std::string disagreement = WalkDisagreement(mutated, &ok);
        ASSERT_EQ(disagreement, "")
            << "position " << pos << " delta " << delta;
        ++mutants;
        accepted += ok ? 1 : 0;
      }
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, mutants);
}

// --------------------------------------------------------- CRL round-trip ----

class CrlRoundTrip : public Seeded {};

TEST_P(CrlRoundTrip, RandomCrls) {
  crl::TbsCrl tbs;
  tbs.issuer = x509::Name::Make(RandomLabel(rng_, 20), RandomLabel(rng_, 10));
  tbs.this_update = kNow - static_cast<util::Timestamp>(rng_.NextBelow(100'000));
  if (rng_.Chance(0.9))
    tbs.next_update = tbs.this_update + static_cast<util::Timestamp>(
                                            1 + rng_.NextBelow(7 * kDay));
  if (rng_.Chance(0.8)) tbs.crl_number = static_cast<std::int64_t>(rng_.NextBelow(1'000'000));
  const std::size_t entries = rng_.NextBelow(200);
  for (std::size_t i = 0; i < entries; ++i) {
    crl::CrlEntry entry;
    entry.serial = RandomSerial(rng_);
    entry.revocation_date =
        tbs.this_update - static_cast<util::Timestamp>(rng_.NextBelow(10'000'000));
    const std::uint64_t reason_pick = rng_.NextBelow(5);
    entry.reason = reason_pick == 0 ? x509::ReasonCode::kKeyCompromise
                   : reason_pick == 1 ? x509::ReasonCode::kSuperseded
                                      : x509::ReasonCode::kNoReasonCode;
    tbs.entries.push_back(std::move(entry));
  }

  const crypto::KeyPair key = crypto::SimKeyFromLabel(RandomLabel(rng_, 8));
  const crl::Crl crl = crl::SignCrl(tbs, key);
  const auto parsed = crl::ParseCrlView(crl.der);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(Bytes(parsed->issuer_der.begin(), parsed->issuer_der.end()),
            tbs.issuer.Encode());
  EXPECT_EQ(parsed->this_update, tbs.this_update);
  EXPECT_EQ(parsed->next_update, tbs.next_update);
  EXPECT_EQ(parsed->crl_number, tbs.crl_number);
  ASSERT_EQ(parsed->num_entries, tbs.entries.size());
  std::size_t i = 0;
  for (const crl::CrlEntryView& entry : parsed->entries) {
    EXPECT_TRUE(std::ranges::equal(entry.serial, tbs.entries[i].serial));
    EXPECT_EQ(entry.revocation_date, tbs.entries[i].revocation_date);
    EXPECT_EQ(entry.reason, tbs.entries[i].reason);
    ++i;
  }
  EXPECT_EQ(i, entries);
  EXPECT_TRUE(crl::VerifyCrlSignature(*parsed, key.Public()));

  // Find agrees with a scan of the signed entries, for each entry and for
  // misses.
  for (const crl::CrlEntry& entry : tbs.entries)
    EXPECT_TRUE(parsed->Find(entry.serial));
  for (int probe_i = 0; probe_i < 20; ++probe_i) {
    const x509::Serial probe = RandomSerial(rng_);
    const bool linear = std::any_of(
        tbs.entries.begin(), tbs.entries.end(),
        [&](const crl::CrlEntry& e) { return e.serial == probe; });
    EXPECT_EQ(parsed->Find(probe).has_value(), linear);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrlRoundTrip, ::testing::Range(0, 15));

// ------------------------------------ CRL: view parse vs the reference ----
//
// ParseCrlView is the one walk of CRL DER; der_reference.h keeps the
// allocating ParseCrl it replaced. The two must agree on accept/reject, on
// every field and on every entry in order, with two named exceptions, both
// inputs the view rejects and the reference accepted: bytes after the last
// field of the TBSCertList, an entry, the [0] wrapper or an
// AlgorithmIdentifier; and an extension list the view fails closed on (a
// repeated CRLNumber or entry CRLReason, or an unrecognised critical
// extension), where the reference kept the last instance and ignored the
// critical flag.
// Each table row names its deviation from a base CRL and the verdict of
// each parse; then every one-byte mutation of the row's DER (each position
// set to each other byte value) must agree as well.

namespace refcrl = reference::crl;

// One revokedCertificates entry; `extensions` are raw Extension TLVs.
Bytes CrlEntryDer(Bytes serial, util::Timestamp when,
                  std::optional<std::vector<Bytes>> extensions = std::nullopt,
                  Bytes after = {}) {
  std::vector<Bytes> fields{std::move(serial), der::EncodeTime(when)};
  if (extensions) fields.push_back(der::EncodeSequence(*extensions));
  fields.push_back(std::move(after));
  return der::EncodeSequence(fields);
}

Bytes ReasonExtension(std::int64_t code) {
  return ref509::EncodeExtension(RawExtension(
      asn1::oids::CrlReason(), false, der::EncodeEnumerated(code)));
}

// A CRL as its DER pieces, so a row can replace any of them. The signature
// bytes are arbitrary: neither parser checks it.
struct CrlParts {
  Bytes version = der::EncodeInteger(1);
  Bytes inner_alg = ref509::EncodeSignatureAlgorithm(crypto::KeyType::kSimSha256);
  Bytes issuer = ref509::EncodeName(x509::Name::Make("Walk CA", "W"));
  Bytes this_update = der::EncodeTime(kNow);
  Bytes next_update = der::EncodeTime(kNow + kDay);  // empty: none
  // nullopt: no revokedCertificates field at all.
  std::optional<std::vector<Bytes>> entries = std::vector<Bytes>{
      CrlEntryDer(der::EncodeIntegerUnsigned(Bytes{0x2A}), kNow - kDay),
      CrlEntryDer(der::EncodeIntegerUnsigned(Bytes{0x2B, 0x01}),
                  kNow - 2 * kDay, std::vector<Bytes>{ReasonExtension(1)}),
  };
  // nullopt: no crlExtensions field. Raw Extension TLVs; `after_list` is
  // appended inside [0] after the list.
  std::optional<std::vector<Bytes>> extensions =
      std::vector<Bytes>{ref509::EncodeExtension(ref509::MakeCrlNumber(7))};
  Bytes after_list;
  Bytes after_extensions;  // appended inside the TBS
  Bytes outer_alg = ref509::EncodeSignatureAlgorithm(crypto::KeyType::kSimSha256);
  Bytes signature = der::EncodeBitString(Bytes(32, 0x5A));

  Bytes Der() const {
    std::vector<Bytes> tbs{version, inner_alg, issuer, this_update,
                           next_update};
    if (entries) tbs.push_back(der::EncodeSequence(*entries));
    if (extensions)
      tbs.push_back(der::EncodeContextExplicit(
          0, der::Concat({der::EncodeSequence(*extensions), after_list})));
    tbs.push_back(after_extensions);
    return der::EncodeSequence(
        {der::EncodeSequence(tbs), outer_alg, signature});
  }
};

struct CrlSpec {
  std::string deviation;
  std::function<void(CrlParts&)> apply;
  bool accepts;            // the view's verdict
  bool reference_accepts;  // the reference parse's verdict
};

std::vector<CrlSpec> CrlSpecs() {
  using Parts = CrlParts;
  const auto first_entry = [](Bytes serial,
                              std::optional<std::vector<Bytes>> extensions,
                              Bytes after = {}) {
    return [=](Parts& p) {
      (*p.entries)[0] =
          CrlEntryDer(serial, kNow - kDay, extensions, after);
    };
  };
  const Bytes serial = der::EncodeIntegerUnsigned(Bytes{0x2A});
  const Bytes null = der::EncodeNull();
  const asn1::Oid unknown{1, 3, 6, 1, 4, 1, 99999, 8};
  std::vector<CrlSpec> specs = {
      {"base: two entries, one with a reason, and a CRL number",
       [](Parts&) {}, true, true},
      {"no revokedCertificates field", [](Parts& p) { p.entries.reset(); },
       true, true},
      {"an empty revokedCertificates list",
       [](Parts& p) { p.entries->clear(); }, true, true},
      {"no nextUpdate", [](Parts& p) { p.next_update.clear(); }, true, true},
      {"no crlExtensions field", [](Parts& p) { p.extensions.reset(); }, true,
       true},
      {"an empty crlExtensions list", [](Parts& p) { p.extensions->clear(); },
       true, true},
      {"GeneralizedTime thisUpdate, nextUpdate and revocationDate",
       [](Parts& p) {
         p.this_update = der::EncodeGeneralizedTime(kNow);
         p.next_update = der::EncodeGeneralizedTime(kNow + kDay);
         (*p.entries)[0] = der::EncodeSequence(
             {der::EncodeIntegerUnsigned(Bytes{0x2A}),
              der::EncodeGeneralizedTime(kNow - kDay)});
       },
       true, true},
      {"RSA signature algorithms",
       [](Parts& p) {
         p.inner_alg = p.outer_alg =
             ref509::EncodeSignatureAlgorithm(crypto::KeyType::kRsaSha256);
       },
       true, true},
      {"a serial with its sign-padding zero",
       first_entry(der::EncodeIntegerUnsigned(Bytes{0x80, 1}), std::nullopt),
       true, true},
      {"a non-minimal serial",
       first_entry(der::Tlv(asn1::kTagInteger, Bytes{0x00, 0x2A}),
                   std::nullopt),
       false, false},
      {"a negative serial",
       first_entry(der::Tlv(asn1::kTagInteger, Bytes{0xD6}), std::nullopt),
       false, false},
      {"an unassigned reason code (7)",
       first_entry(serial, std::vector<Bytes>{ReasonExtension(7)}), false,
       false},
      {"two reasons in one entry: the view rejects, the reference keeps "
       "the last",
       first_entry(serial,
                   std::vector<Bytes>{ReasonExtension(1), ReasonExtension(4)}),
       false, true},
      {"an unknown entry extension",
       first_entry(serial, std::vector<Bytes>{ref509::EncodeExtension(
                               RawExtension(unknown, false, null))}),
       true, true},
      {"an unknown critical entry extension",
       first_entry(serial, std::vector<Bytes>{ref509::EncodeExtension(
                               RawExtension(unknown, true, null))}),
       false, true},
      {"a critical reason",
       first_entry(serial,
                   std::vector<Bytes>{ref509::EncodeExtension(RawExtension(
                       asn1::oids::CrlReason(), true,
                       der::EncodeEnumerated(1)))}),
       true, true},
      {"an empty crlEntryExtensions list",
       first_entry(serial, std::vector<Bytes>{}), true, true},
      {"inner and outer signature algorithms differ",
       [](Parts& p) {
         p.outer_alg =
             ref509::EncodeSignatureAlgorithm(crypto::KeyType::kRsaSha256);
       },
       false, false},
      {"version v1",
       [](Parts& p) { p.version = der::EncodeInteger(0); }, false, false},
      {"a duplicate CRL number: the view rejects, the reference keeps the "
       "last",
       [](Parts& p) {
         p.extensions->push_back(
             ref509::EncodeExtension(ref509::MakeCrlNumber(9)));
       },
       false, true},
      {"an unknown CRL extension",
       [=](Parts& p) {
         p.extensions->push_back(
             ref509::EncodeExtension(RawExtension(unknown, false, null)));
       },
       true, true},
      {"an unknown critical CRL extension",
       [=](Parts& p) {
         p.extensions->push_back(
             ref509::EncodeExtension(RawExtension(unknown, true, null)));
       },
       false, true},
      {"a critical CRL number",
       [](Parts& p) {
         (*p.extensions)[0] = ref509::EncodeExtension(RawExtension(
             asn1::oids::CrlNumber(), true, der::EncodeInteger(7)));
       },
       true, true},
      {"a negative CRL number",
       [](Parts& p) {
         (*p.extensions)[0] = ref509::EncodeExtension(RawExtension(
             asn1::oids::CrlNumber(), false, der::EncodeInteger(-1)));
       },
       false, false},
      {"bytes after an extension's extnValue",
       [=](Parts& p) {
         p.extensions->push_back(der::EncodeSequence(
             {der::EncodeOid(unknown), der::EncodeOctetString(null), null}));
       },
       false, false},
      {"bytes after the crlExtensions field",
       [=](Parts& p) { p.after_extensions = null; }, false, true},
      {"bytes after the crlExtensions list, inside [0]",
       [=](Parts& p) { p.after_list = null; }, false, true},
      {"bytes after an entry's revocationDate",
       first_entry(serial, std::nullopt, null), false, true},
      {"bytes after an entry's crlEntryExtensions",
       first_entry(serial, std::vector<Bytes>{ReasonExtension(1)}, null),
       false, true},
      {"a NULL after the inner signature algorithm's OID",
       [=](Parts& p) {
         p.inner_alg =
             der::EncodeSequence({der::EncodeOid(asn1::oids::SimSha256()), null});
       },
       false, true},
      {"a NULL after the outer signature algorithm's OID",
       [=](Parts& p) {
         p.outer_alg =
             der::EncodeSequence({der::EncodeOid(asn1::oids::SimSha256()), null});
       },
       false, true},
  };
  for (const x509::ReasonCode reason :
       {x509::ReasonCode::kUnspecified, x509::ReasonCode::kKeyCompromise,
        x509::ReasonCode::kCaCompromise, x509::ReasonCode::kAffiliationChanged,
        x509::ReasonCode::kSuperseded, x509::ReasonCode::kCessationOfOperation,
        x509::ReasonCode::kCertificateHold, x509::ReasonCode::kRemoveFromCrl,
        x509::ReasonCode::kPrivilegeWithdrawn,
        x509::ReasonCode::kAaCompromise}) {
    specs.push_back(
        {std::string("reason ") + x509::ReasonCodeName(reason),
         first_entry(serial, std::vector<Bytes>{ref509::EncodeExtension(
                                 ref509::MakeCrlReason(reason))}),
         true, true});
  }
  return specs;
}

// The inputs the view rejects and the reference accepts: bytes after the
// last field of the TBSCertList, an entry, the [0] wrapper or an
// AlgorithmIdentifier. (Inside an Extension both reject them: the
// reference reads extension lists through the library's reader.)
bool CrlHasBytesAfterAField(const Bytes& der) {
  asn1::Reader top(der), crl;
  BytesView tbs, outer_alg;
  if (!top.ReadSequence(&crl) || !crl.ReadTagged(asn1::kTagSequence, &tbs))
    return false;
  if (crl.ReadTagged(asn1::kTagSequence, &outer_alg) &&
      AlgorithmHasBytesAfter(outer_alg))
    return true;
  asn1::Reader t(tbs);
  BytesView version, inner_alg, issuer, this_update, field;
  if (!t.ReadRawTlv(&version) ||
      !t.ReadTagged(asn1::kTagSequence, &inner_alg) ||
      !t.ReadRawTlv(&issuer) || !t.ReadRawTlv(&this_update))
    return false;
  if (AlgorithmHasBytesAfter(inner_alg)) return true;
  if (t.NextIs(asn1::kTagUtcTime) || t.NextIs(asn1::kTagGeneralizedTime))
    t.ReadRawTlv(&field);
  if (t.NextIs(asn1::kTagSequence)) {
    BytesView list, entry;
    if (!t.ReadTagged(asn1::kTagSequence, &list)) return false;
    for (asn1::Reader entries(list);
         entries.ReadTagged(asn1::kTagSequence, &entry);) {
      asn1::Reader fields(entry);
      if (fields.ReadRawTlv(&field) && fields.ReadRawTlv(&field) &&
          BytesAfter(entry, fields.NextIs(asn1::kTagSequence) ? 3 : 2))
        return true;
    }
  }
  if (t.NextIsContext(0)) {
    asn1::Reader wrapper;
    if (!t.ReadContextExplicit(0, &wrapper) || !wrapper.ReadRawTlv(&field))
      return false;
    if (!wrapper.Empty()) return true;
  }
  return !t.Empty();
}

// True iff the extension list with content `list` holds `known` twice or
// another extension marked critical.
bool ExtensionListFailsClosed(BytesView list, const asn1::Oid& known) {
  int instances = 0;
  asn1::Reader r(list);
  for (x509::ExtensionView ext; !r.Empty();) {
    if (!x509::ReadExtension(r, &ext)) return false;
    if (asn1::OidContentIs(ext.oid, known) ? ++instances > 1 : ext.critical)
      return true;
  }
  return false;
}

// The inputs the view rejects and the reference accepts because the view
// fails closed on extensions: a repeated CRLNumber in crlExtensions or
// CRLReason in an entry, or an unrecognised critical extension in either.
bool CrlFailsClosedOnAnExtension(const Bytes& der) {
  asn1::Reader top(der), crl;
  BytesView tbs, field;
  if (!top.ReadSequence(&crl) || !crl.ReadTagged(asn1::kTagSequence, &tbs))
    return false;
  asn1::Reader t(tbs);
  for (int i = 0; i < 4; ++i)  // version, signature, issuer, thisUpdate
    if (!t.ReadRawTlv(&field)) return false;
  if (t.NextIs(asn1::kTagUtcTime) || t.NextIs(asn1::kTagGeneralizedTime))
    t.ReadRawTlv(&field);
  if (t.NextIs(asn1::kTagSequence)) {
    BytesView list, entry, extensions;
    if (!t.ReadTagged(asn1::kTagSequence, &list)) return false;
    for (asn1::Reader entries(list);
         entries.ReadTagged(asn1::kTagSequence, &entry);) {
      asn1::Reader fields(entry);
      if (fields.ReadRawTlv(&field) && fields.ReadRawTlv(&field) &&
          fields.ReadTagged(asn1::kTagSequence, &extensions) &&
          ExtensionListFailsClosed(extensions, asn1::oids::CrlReason()))
        return true;
    }
  }
  asn1::Reader wrapper;
  BytesView extensions;
  return t.NextIsContext(0) && t.ReadContextExplicit(0, &wrapper) &&
         wrapper.ReadTagged(asn1::kTagSequence, &extensions) &&
         ExtensionListFailsClosed(extensions, asn1::oids::CrlNumber());
}

// The first field or entry on which the two parses differ, or "".
std::string CrlFirstDifference(const crl::CrlView& got,
                               const refcrl::Crl& want) {
  x509::Name issuer;
  asn1::Reader issuer_reader(got.issuer_der);
  const bool issuer_read = x509::Name::Read(issuer_reader, nullptr, &issuer);
  const std::pair<const char*, bool> fields[] = {
      {"der", std::ranges::equal(got.der, want.der)},
      {"tbs_der", std::ranges::equal(got.tbs_der, want.tbs_der)},
      {"signature", std::ranges::equal(got.signature, want.signature)},
      {"sig_type", got.sig_type == want.sig_type},
      {"issuer", issuer_read && issuer_reader.Empty() &&
                     issuer == want.tbs.issuer},
      {"this_update", got.this_update == want.tbs.this_update},
      {"next_update", got.next_update == want.tbs.next_update},
      {"crl_number", got.crl_number == want.tbs.crl_number},
      {"size", got.num_entries == want.tbs.entries.size()},
  };
  for (const auto& [name, same] : fields)
    if (!same) return name;
  std::size_t i = 0;
  for (const crl::CrlEntryView& entry : got.entries) {
    if (i == want.tbs.entries.size()) return "entry count";
    const crl::CrlEntry& expected = want.tbs.entries[i];
    if (!std::ranges::equal(entry.serial, expected.serial) ||
        entry.revocation_date != expected.revocation_date ||
        entry.reason != expected.reason)
      return "entry " + std::to_string(i);
    if (!got.Find(expected.serial)) return "Find of entry " + std::to_string(i);
    ++i;
  }
  return i == want.tbs.entries.size() ? "" : "entry count";
}

// How the two parses disagree on `der` ("" if they agree). Sets *accepted
// to the view's verdict.
std::string CrlDisagreement(const Bytes& der, bool* accepted) {
  const std::optional<crl::CrlView> got = crl::ParseCrlView(der);
  const std::optional<refcrl::Crl> want = refcrl::ParseCrl(der);
  *accepted = got.has_value();
  if (!got && !want) return "";
  if (!got && (CrlHasBytesAfterAField(der) || CrlFailsClosedOnAnExtension(der)))
    return "";
  if (got.has_value() != want.has_value())
    return got ? "accepted what the reference rejects"
               : "rejected what the reference accepts";
  if (std::string field = CrlFirstDifference(*got, *want); !field.empty())
    return "differs in " + field;
  return "";
}

TEST(CrlAgreement, ViewParseMatchesTheReferenceParse) {
  std::size_t mutants = 0;
  std::size_t accepted = 0;
  for (const CrlSpec& spec : CrlSpecs()) {
    SCOPED_TRACE(spec.deviation);
    CrlParts parts;
    spec.apply(parts);
    const Bytes der = parts.Der();
    ASSERT_EQ(crl::ParseCrlView(der).has_value(), spec.accepts);
    ASSERT_EQ(refcrl::ParseCrl(der).has_value(), spec.reference_accepts);
    bool ok = false;
    ASSERT_EQ(CrlDisagreement(der, &ok), "");
    for (std::size_t pos = 0; pos < der.size(); ++pos) {
      Bytes mutated = der;
      for (int delta = 1; delta < 256; ++delta) {
        mutated[pos] = static_cast<std::uint8_t>(der[pos] + delta);
        const std::string disagreement = CrlDisagreement(mutated, &ok);
        ASSERT_EQ(disagreement, "")
            << "position " << pos << " delta " << delta;
        ++mutants;
        accepted += ok ? 1 : 0;
      }
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, mutants);
}

// Signed CRLs, from empty to 5 000 entries, read back alike too.
TEST(CrlAgreement, SignedCrlsMatchTheReferenceParse) {
  util::Rng rng(0xC41);
  for (const std::size_t entries : {0u, 1u, 3u, 100u, 5'000u}) {
    crl::TbsCrl tbs;
    tbs.issuer = x509::Name::Make("Agree CA", "Agreement");
    tbs.this_update = kNow;
    tbs.next_update = entries % 2 ? 0 : kNow + kDay;
    tbs.crl_number = entries % 3 ? static_cast<std::int64_t>(entries) : -1;
    for (std::size_t i = 0; i < entries; ++i)
      tbs.entries.push_back(
          {RandomSerial(rng), kNow - static_cast<util::Timestamp>(i),
           i % 4 ? x509::ReasonCode::kNoReasonCode
                 : x509::ReasonCode::kSuperseded});
    const Bytes der = crl::SignCrl(tbs, crypto::SimKeyFromLabel("agree")).der;
    bool ok = false;
    EXPECT_EQ(CrlDisagreement(der, &ok), "") << entries << " entries";
    EXPECT_TRUE(ok);
  }
}

// -------------------------------------------------------- OCSP round-trip ----

class OcspRoundTrip : public Seeded {};

TEST_P(OcspRoundTrip, RandomResponses) {
  ocsp::SingleResponse single;
  single.cert_id.issuer_name_hash.resize(32);
  single.cert_id.issuer_key_hash.resize(32);
  rng_.Fill(single.cert_id.issuer_name_hash.data(), 32);
  rng_.Fill(single.cert_id.issuer_key_hash.data(), 32);
  single.cert_id.serial = RandomSerial(rng_);
  const std::uint64_t status_pick = rng_.NextBelow(3);
  single.status = static_cast<ocsp::CertStatus>(status_pick);
  single.this_update = kNow - static_cast<util::Timestamp>(rng_.NextBelow(100'000));
  if (rng_.Chance(0.7))
    single.next_update = single.this_update + 4 * kDay;
  if (single.status == ocsp::CertStatus::kRevoked) {
    single.revocation_time =
        single.this_update - static_cast<util::Timestamp>(rng_.NextBelow(1'000'000));
    if (rng_.Chance(0.4)) single.reason = x509::ReasonCode::kKeyCompromise;
  }

  const crypto::KeyPair key = crypto::SimKeyFromLabel(RandomLabel(rng_, 8));
  const ocsp::OcspResponse response =
      ocsp::SignOcspResponse(single, kNow, key);
  auto parsed = ocsp::ParseOcspResponse(response.der);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->single.cert_id, single.cert_id);
  EXPECT_EQ(parsed->single.status, single.status);
  EXPECT_EQ(parsed->single.this_update, single.this_update);
  EXPECT_EQ(parsed->single.next_update, single.next_update);
  EXPECT_EQ(parsed->single.revocation_time, single.revocation_time);
  EXPECT_EQ(parsed->single.reason, single.reason);
  EXPECT_TRUE(ocsp::VerifyOcspSignature(*parsed, key.Public()));

  // Requests round-trip too.
  ocsp::OcspRequest request;
  request.cert_ids = {single.cert_id};
  if (rng_.Chance(0.5)) {
    request.nonce.resize(16);
    rng_.Fill(request.nonce.data(), 16);
  }
  const Bytes request_der = ocsp::EncodeOcspRequest(request);
  auto parsed_request = ocsp::ParseOcspRequestView(request_der);
  ASSERT_TRUE(parsed_request);
  ASSERT_EQ(parsed_request->size(), 1u);
  const ocsp::OcspRequestView& id = parsed_request->front();
  EXPECT_TRUE(std::ranges::equal(id.issuer_name_hash,
                                 single.cert_id.issuer_name_hash));
  EXPECT_TRUE(
      std::ranges::equal(id.issuer_key_hash, single.cert_id.issuer_key_hash));
  EXPECT_TRUE(std::ranges::equal(id.serial, single.cert_id.serial));
  EXPECT_TRUE(std::ranges::equal(parsed_request->nonce(), request.nonce));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OcspRoundTrip, ::testing::Range(0, 15));

// ------------------------------- OCSP request: view parse vs reference ----

// The allocating request parser the view parser replaced, kept verbatim as
// the reference the one parser must agree with; its extension-list decoder
// is the reference copy in der_reference.h.
std::optional<ocsp::CertId> DecodeCertId(asn1::Reader& r) {
  asn1::Reader seq;
  if (!r.ReadSequence(&seq)) return std::nullopt;
  asn1::Reader alg;
  if (!seq.ReadSequence(&alg)) return std::nullopt;  // hash algorithm, assumed SHA-256
  ocsp::CertId id;
  BytesView name_hash, key_hash;
  if (!seq.ReadOctetString(&name_hash) || !seq.ReadOctetString(&key_hash) ||
      !seq.ReadIntegerUnsigned(&id.serial))
    return std::nullopt;
  id.issuer_name_hash.assign(name_hash.begin(), name_hash.end());
  id.issuer_key_hash.assign(key_hash.begin(), key_hash.end());
  return id;
}

std::optional<ocsp::OcspRequest> ParseOcspRequest(BytesView der) {
  asn1::Reader top(der);
  asn1::Reader outer;
  if (!top.ReadSequence(&outer) || !top.Empty()) return std::nullopt;
  asn1::Reader tbs;
  if (!outer.ReadSequence(&tbs)) return std::nullopt;
  asn1::Reader request_list;
  if (!tbs.ReadSequence(&request_list)) return std::nullopt;

  ocsp::OcspRequest out;
  while (!request_list.Empty()) {
    asn1::Reader req;
    if (!request_list.ReadSequence(&req)) return std::nullopt;
    auto id = DecodeCertId(req);
    if (!id) return std::nullopt;
    out.cert_ids.push_back(*std::move(id));
  }
  if (out.cert_ids.empty()) return std::nullopt;

  if (tbs.NextIsContext(2)) {
    asn1::Reader ext_wrapper;
    if (!tbs.ReadContextExplicit(2, &ext_wrapper)) return std::nullopt;
    auto exts = reference::x509::DecodeExtensionList(ext_wrapper);
    if (!exts) return std::nullopt;
    for (const reference::x509::Extension& ext : *exts) {
      if (ext.oid == asn1::oids::OcspNonce()) {
        asn1::Reader nonce_reader(ext.value);
        BytesView nonce;
        if (!nonce_reader.ReadOctetString(&nonce)) return std::nullopt;
        out.nonce.assign(nonce.begin(), nonce.end());
      }
    }
  }
  return out;
}

// What a generated request carries beyond its CertIDs.
struct OcspRequestSpec {
  int cert_ids = 1;                   // 1..4
  bool nonce = false;                 // a nonce in requestExtensions
  bool other_extension = false;       // a non-nonce one (critical or not)
  bool single_extensions = false;     // singleRequestExtensions per Request
  bool trailing_cert_id = false;      // a field after each CertID's serial
  bool signature = false;             // optionalSignature
};

Bytes BuildOcspRequest(const OcspRequestSpec& spec, util::Rng& rng) {
  const auto random_bytes = [&](std::size_t n) {
    Bytes out(n);
    rng.Fill(out.data(), n);
    return out;
  };
  const auto extension = [&](const asn1::Oid& oid, bool critical,
                             const Bytes& value) {
    std::vector<Bytes> parts{der::EncodeOid(oid)};
    if (critical) parts.push_back(der::EncodeBoolean(true));
    parts.push_back(der::EncodeOctetString(value));
    return der::EncodeSequence(parts);
  };
  std::vector<Bytes> requests;
  for (int i = 0; i < spec.cert_ids; ++i) {
    Bytes serial = random_bytes(1 + rng.NextBelow(9));
    serial[0] |= 0x01;  // minimal: no leading zero octet
    std::vector<Bytes> cert_id{
        der::EncodeSequence(
            {der::EncodeOid(asn1::oids::Sha256()), der::EncodeNull()}),
        der::EncodeOctetString(random_bytes(20)),
        der::EncodeOctetString(random_bytes(20)),
        der::EncodeIntegerUnsigned(serial)};
    if (spec.trailing_cert_id) cert_id.push_back(der::EncodeNull());
    std::vector<Bytes> request{der::EncodeSequence(cert_id)};
    if (spec.single_extensions)
      request.push_back(der::EncodeContextExplicit(
          0, der::EncodeSequence({extension(asn1::oids::CrlReason(), false,
                                             der::EncodeEnumerated(1))})));
    requests.push_back(der::EncodeSequence(request));
  }
  std::vector<Bytes> tbs{der::EncodeSequence(requests)};
  std::vector<Bytes> extensions;
  if (spec.other_extension)
    extensions.push_back(extension(asn1::oids::CrlNumber(), rng.Chance(0.5),
                                   der::EncodeInteger(7)));
  if (spec.nonce) {
    const Bytes nonce = random_bytes(1 + rng.NextBelow(16));
    extensions.push_back(extension(asn1::oids::OcspNonce(), false,
                                   der::EncodeOctetString(nonce)));
  }
  if (!extensions.empty())
    tbs.push_back(
        der::EncodeContextExplicit(2, der::EncodeSequence(extensions)));
  std::vector<Bytes> outer{der::EncodeSequence(tbs)};
  if (spec.signature) {
    const Bytes algorithm =
        der::EncodeSequence({der::EncodeOid(asn1::oids::SimSha256())});
    outer.push_back(der::EncodeContextExplicit(
        0, der::EncodeSequence(
               {algorithm, der::EncodeBitString(random_bytes(16))})));
  }
  return der::EncodeSequence(outer);
}

// The one input class the view parse rejects and the reference accepts:
// an Extension of requestExtensions with bytes after its extnValue.
bool RequestExtensionHasBytesAfter(const Bytes& der) {
  asn1::Reader top(der), outer, tbs, wrapper;
  BytesView request_list, list, ext;
  if (!top.ReadSequence(&outer) || !outer.ReadSequence(&tbs) ||
      !tbs.ReadTagged(asn1::kTagSequence, &request_list) ||
      !tbs.ReadContextExplicit(2, &wrapper) ||
      !wrapper.ReadTagged(asn1::kTagSequence, &list))
    return false;
  for (asn1::Reader exts(list); exts.ReadTagged(asn1::kTagSequence, &ext);)
    if (ExtensionHasBytesAfter(ext)) return true;
  return false;
}

// The view parse and the reference agree on accept/reject, on each CertID
// in order and on the nonce; ParseSingleCertRequestView accepts exactly the
// one-CertID, nonce-free requests. Returns whether the request parsed.
bool ExpectRequestParsersAgree(const Bytes& der) {
  const std::optional<ocsp::OcspRequest> want = ParseOcspRequest(der);
  const std::optional<ocsp::RequestView> got = ocsp::ParseOcspRequestView(der);
  ocsp::OcspRequestView single;
  const bool single_shape = ocsp::ParseSingleCertRequestView(der, &single);
  if (!got && want && RequestExtensionHasBytesAfter(der)) return false;
  EXPECT_EQ(got.has_value(), want.has_value());
  EXPECT_EQ(single_shape,
            want && want->cert_ids.size() == 1 && want->nonce.empty());
  if (!got || !want) return false;
  EXPECT_EQ(got->size(), want->cert_ids.size());
  std::size_t i = 0;
  for (const ocsp::OcspRequestView& id : *got) {
    if (i == want->cert_ids.size()) break;
    const ocsp::CertId& ref = want->cert_ids[i++];
    EXPECT_TRUE(std::ranges::equal(id.issuer_name_hash, ref.issuer_name_hash));
    EXPECT_TRUE(std::ranges::equal(id.issuer_key_hash, ref.issuer_key_hash));
    EXPECT_TRUE(std::ranges::equal(id.serial, ref.serial));
  }
  EXPECT_EQ(i, want->cert_ids.size());
  EXPECT_TRUE(std::ranges::equal(got->front().serial,
                                 want->cert_ids.front().serial));
  EXPECT_TRUE(std::ranges::equal(got->nonce(), want->nonce));
  if (single_shape) {
    EXPECT_TRUE(std::ranges::equal(single.serial, want->cert_ids[0].serial));
  }
  return true;
}

class OcspRequestAgreement : public Seeded {};

// Every generated shape, then every one-byte mutation of it (each position
// set to each other byte value): the two parsers must never disagree, but
// on an Extension with bytes after its extnValue, which only the view
// rejects (x509::ReadExtension).
TEST_P(OcspRequestAgreement, ViewParseMatchesReferenceUnderMutation) {
  const int seed = GetParam();
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int shape = 0; shape < 3; ++shape) {
    // Every flag takes both values across the seeds; CertID counts cycle
    // through 1..4.
    const int bits = seed * 3 + shape;
    const OcspRequestSpec spec{1 + bits % 4,        (bits & 1) != 0,
                               (bits & 2) != 0,     (bits & 4) != 0,
                               (bits % 3) == 1,     (bits % 5) == 2};
    const Bytes der = BuildOcspRequest(spec, rng_);
    SCOPED_TRACE(::testing::Message() << "shape bits " << bits);
    ASSERT_TRUE(ExpectRequestParsersAgree(der));
    for (std::size_t pos = 0; pos < der.size(); ++pos) {
      Bytes mutated = der;
      for (int delta = 1; delta < 256; ++delta) {
        mutated[pos] = static_cast<std::uint8_t>(der[pos] + delta);
        if (ExpectRequestParsersAgree(mutated)) {
          ++accepted;
        } else {
          ++rejected;
        }
        if (HasFailure()) FAIL() << "position " << pos << " delta " << delta;
      }
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OcspRequestAgreement, ::testing::Range(0, 8));

// ------------------------------- DER writer vs the concatenating encoders ----
//
// Every encoder writes through asn1::Writer; der_reference.h keeps the
// encoders it replaced, which built each TLV as its own vector and copied
// it into its parent. Each table row below names one deviation from a base
// shape, in the style of a declarative chain spec; the writer must emit the
// reference's bytes for every row, including names, URL lists and nonces
// whose lengths straddle the 127/128, 255/256 and 65535/65536 boundaries
// where the length octets change form.

const crypto::KeyPair& DiffSimKey() {
  static const crypto::KeyPair key = crypto::SimKeyFromLabel("diff-ca");
  return key;
}

// Field lengths around each length-form boundary. Every value enclosing
// the swept field is longer than it by a fixed overhead, up to ~420 bytes
// for a whole certificate, so sweeping that far below each boundary makes
// every nesting level, from the string itself to the outer SEQUENCE, cross
// 127/128, 255/256 and 65535/65536 in some row.
std::vector<std::size_t> BoundarySweep() {
  std::vector<std::size_t> out;
  for (std::size_t n = 100; n <= 260; ++n) out.push_back(n);
  for (std::size_t n = 65536 - 440; n <= 65536 + 4; ++n) out.push_back(n);
  return out;
}

std::string Filler(std::size_t n, char c) { return std::string(n, c); }

struct CertVariant {
  std::string deviation;
  std::function<void(x509::TbsCertificate&)> apply;
  bool rsa_issuer = false;
};

x509::TbsCertificate DiffLeaf() {
  x509::TbsCertificate tbs;
  tbs.serial = x509::Serial(16, 0x5A);
  tbs.issuer = x509::Name::Make("Diff CA", "Differential");
  tbs.subject = x509::Name::FromCommonName("www.diff.sim");
  tbs.not_before = kNow - 30 * kDay;
  tbs.not_after = kNow + 335 * kDay;
  tbs.public_key = crypto::SimKeyFromLabel("diff-leaf").Public();
  tbs.crl_urls = {"http://crl.diff.sim/crl0.crl"};
  tbs.ocsp_urls = {"http://ocsp.diff.sim/"};
  tbs.dns_names = {"www.diff.sim"};
  tbs.key_usage = x509::kKeyUsageDigitalSignature;
  return tbs;
}

std::vector<CertVariant> CertVariants() {
  using Tbs = x509::TbsCertificate;
  std::vector<CertVariant> v = {
      {"the base leaf", [](Tbs&) {}},
      {"RSA issuer key", [](Tbs&) {}, true},
      {"RSA subject key",
       [](Tbs& t) { t.public_key = DiffRsaKey().Public(); }},
      {"RSA issuer and subject keys",
       [](Tbs& t) { t.public_key = DiffRsaKey().Public(); }, true},
      {"CA without path_len",
       [](Tbs& t) { t.basic_constraints = {true, -1}; }},
      {"CA with path_len 0", [](Tbs& t) { t.basic_constraints = {true, 0}; }},
      {"CA with path_len 300",
       [](Tbs& t) { t.basic_constraints = {true, 300}; }},
      {"name constraints, permitted and excluded",
       [](Tbs& t) {
         t.name_constraints.permitted_dns = {"diff.sim", "example.org"};
         t.name_constraints.excluded_dns = {"bad.diff.sim"};
       }},
      {"name constraints, excluded only",
       [](Tbs& t) { t.name_constraints.excluded_dns = {"bad.sim"}; }},
      {"key usage certSign|crlSign",
       [](Tbs& t) {
         t.key_usage = x509::kKeyUsageKeyCertSign | x509::kKeyUsageCrlSign;
       }},
      {"key usage of nine bits", [](Tbs& t) { t.key_usage = 0x01FF; }},
      {"no key usage", [](Tbs& t) { t.key_usage = 0; }},
      {"three SAN entries",
       [](Tbs& t) { t.dns_names = {"a.diff.sim", "b.diff.sim", "c.sim"}; }},
      {"no SAN", [](Tbs& t) { t.dns_names.clear(); }},
      {"SKI and AKI",
       [](Tbs& t) {
         t.subject_key_id = Bytes(20, 0x11);
         t.authority_key_id = Bytes(20, 0x22);
       }},
      {"EV policy",
       [](Tbs& t) { t.policies = {asn1::oids::VerisignEvPolicy()}; }},
      {"two policies",
       [](Tbs& t) {
         t.policies = {asn1::oids::VerisignEvPolicy(),
                       *asn1::Oid::Parse("2.23.140.1.2.1")};
       }},
      {"three CRL URLs",
       [](Tbs& t) {
         t.crl_urls = {"http://crl1.diff.sim/a.crl", "http://crl2.diff.sim/b",
                       "ldap://crl3.diff.sim/c"};
       }},
      {"three OCSP URLs",
       [](Tbs& t) {
         t.ocsp_urls = {"http://o1.diff.sim/", "http://o2.diff.sim/",
                        "http://o3.diff.sim/"};
       }},
      {"no CRL or OCSP URL",
       [](Tbs& t) {
         t.crl_urls.clear();
         t.ocsp_urls.clear();
       }},
      {"serial all zeros", [](Tbs& t) { t.serial = x509::Serial(8, 0x00); }},
      {"empty serial", [](Tbs& t) { t.serial.clear(); }},
      {"serial with a leading zero",
       [](Tbs& t) { t.serial = {0x00, 0x12, 0x34}; }},
      {"serial with the high bit set",
       [](Tbs& t) { t.serial = {0x80, 0x00, 0x01}; }},
      {"49-byte serial", [](Tbs& t) { t.serial = x509::Serial(49, 0xFE); }},
      {"not_before in 1949 (GeneralizedTime)",
       [](Tbs& t) { t.not_before = util::MakeDate(1949, 12, 31) + 86'399; }},
      {"validity 1950-01-01 to 2049-12-31 (UTCTime bounds)",
       [](Tbs& t) {
         t.not_before = util::MakeDate(1950, 1, 1);
         t.not_after = util::MakeDate(2049, 12, 31) + 86'399;
       }},
      {"not_after in 2050 (GeneralizedTime)",
       [](Tbs& t) { t.not_after = util::MakeDate(2050, 1, 1); }},
      {"validity from year 0001 to 9999",
       [](Tbs& t) {
         t.not_before = util::MakeDate(1, 1, 1);
         t.not_after = util::MakeDate(9999, 12, 31);
       }},
      {"four-attribute issuer",
       [](Tbs& t) {
         t.issuer.Add(asn1::oids::CommonName(), "Second CN");
       }},
      {"empty subject", [](Tbs& t) { t.subject = x509::Name(); }},
  };
  for (const std::size_t n : BoundarySweep()) {
    v.push_back({"subject CN of " + std::to_string(n) + " bytes",
                 [n](Tbs& t) {
                   t.subject = x509::Name::FromCommonName(Filler(n, 'c'));
                 }});
    if (n > 1000) continue;  // the CN rows already cover the long form
    v.push_back({"CRL URL of " + std::to_string(n) + " bytes",
                 [n](Tbs& t) { t.crl_urls = {Filler(n, 'u')}; }});
  }
  // URL lists whose SEQUENCE OF crosses a boundary by count, not by one
  // long element: each AccessDescription here is 45 bytes.
  for (const std::size_t count : {2u, 3u, 5u, 6u, 1450u, 1460u}) {
    v.push_back({std::to_string(count) + " OCSP URLs of 31 bytes",
                 [count](Tbs& t) {
                   t.ocsp_urls.assign(count, "http://ocsp.diff.sim/0123456789");
                 }});
  }
  return v;
}

TEST(DerWriterDifferential, CertificatesMatchTheReference) {
  for (const CertVariant& variant : CertVariants()) {
    SCOPED_TRACE(variant.deviation);
    x509::TbsCertificate tbs = DiffLeaf();
    variant.apply(tbs);
    const crypto::KeyPair& key =
        variant.rsa_issuer ? DiffRsaKey() : DiffSimKey();
    const x509::Certificate want = reference::x509::SignCertificate(tbs, key);
    const x509::Certificate got = x509::SignCertificate(tbs, key);
    ASSERT_EQ(util::HexEncode(got.tbs_der), util::HexEncode(want.tbs_der));
    EXPECT_EQ(got.der, want.der);
    EXPECT_EQ(got.signature, want.signature);
    EXPECT_EQ(x509::EncodeTbs(tbs, key.type), want.tbs_der);
    EXPECT_EQ(tbs.subject.Encode(), reference::x509::EncodeName(tbs.subject));
    EXPECT_EQ(x509::EncodeSpki(tbs.public_key),
              reference::x509::EncodeSpki(tbs.public_key));
    ASSERT_TRUE(x509::ParseCertificate(got.der));
  }
}

// One OCSP response shape: the singles it carries and the nonce it echoes.
struct OcspVariant {
  std::string deviation;
  std::vector<ocsp::SingleResponse> singles;
  Bytes nonce;
  bool rsa_responder = false;
};

ocsp::SingleResponse DiffSingle(ocsp::CertStatus status,
                                x509::Serial serial = x509::Serial(16, 0x42)) {
  ocsp::SingleResponse single;
  single.cert_id.issuer_name_hash = Bytes(32, 0xA1);
  single.cert_id.issuer_key_hash = Bytes(32, 0xB2);
  single.cert_id.serial = std::move(serial);
  single.status = status;
  single.this_update = kNow;
  single.next_update = kNow + 4 * kDay;
  if (status == ocsp::CertStatus::kRevoked)
    single.revocation_time = kNow - 10 * kDay;
  return single;
}

std::vector<OcspVariant> OcspVariants() {
  using ocsp::CertStatus;
  const auto revoked_for = [](x509::ReasonCode reason) {
    ocsp::SingleResponse single = DiffSingle(CertStatus::kRevoked);
    single.reason = reason;
    return single;
  };
  ocsp::SingleResponse no_next = DiffSingle(CertStatus::kGood);
  no_next.next_update = 0;
  ocsp::SingleResponse far = DiffSingle(CertStatus::kRevoked);
  far.revocation_time = util::MakeDate(1949, 6, 1);
  far.this_update = util::MakeDate(2051, 1, 1);
  far.next_update = util::MakeDate(9999, 12, 31);
  std::vector<OcspVariant> v = {
      {"good", {DiffSingle(CertStatus::kGood)}, {}},
      {"good, RSA responder", {DiffSingle(CertStatus::kGood)}, {}, true},
      {"revoked without a reason", {DiffSingle(CertStatus::kRevoked)}, {}},
      {"revoked, keyCompromise",
       {revoked_for(x509::ReasonCode::kKeyCompromise)}, {}},
      {"revoked, aACompromise (10)",
       {revoked_for(x509::ReasonCode::kAaCompromise)}, {}},
      {"unknown", {DiffSingle(CertStatus::kUnknown)}, {}},
      {"no nextUpdate", {no_next}, {}},
      {"times in 1949, 2051 and 9999", {far}, {}},
      {"good with a 16-byte nonce", {DiffSingle(CertStatus::kGood)},
       Bytes(16, 0x0E)},
      {"three singles, mixed status",
       {DiffSingle(CertStatus::kGood, {0x01}),
        revoked_for(x509::ReasonCode::kSuperseded),
        DiffSingle(CertStatus::kUnknown, {0x80, 0x00})},
       Bytes(8, 0x77)},
      {"serial all zeros", {DiffSingle(CertStatus::kGood, {0x00, 0x00})}, {}},
      {"serial with a leading zero",
       {DiffSingle(CertStatus::kGood, {0x00, 0x7F})}, {}},
      {"serial with the high bit set",
       {DiffSingle(CertStatus::kGood, {0xFF, 0x01})}, {}},
  };
  for (const std::size_t n : BoundarySweep())
    v.push_back({"nonce of " + std::to_string(n) + " bytes",
                 {DiffSingle(CertStatus::kGood)},
                 Bytes(n, static_cast<std::uint8_t>(n))});
  for (const std::size_t count : {2u, 3u, 300u, 700u}) {
    v.push_back({std::to_string(count) + " good singles",
                 std::vector<ocsp::SingleResponse>(
                     count, DiffSingle(CertStatus::kGood)),
                 {}});
  }
  return v;
}

TEST(DerWriterDifferential, OcspResponsesAndRequestsMatchTheReference) {
  for (const OcspVariant& variant : OcspVariants()) {
    SCOPED_TRACE(variant.deviation);
    const crypto::KeyPair& key =
        variant.rsa_responder ? DiffRsaKey() : DiffSimKey();
    const ocsp::OcspResponse want = reference::ocsp::SignOcspResponse(
        variant.singles, kNow, key, variant.nonce);
    const ocsp::OcspResponse got =
        ocsp::SignOcspResponse(variant.singles, kNow, key, variant.nonce);
    ASSERT_EQ(util::HexEncode(got.tbs_der), util::HexEncode(want.tbs_der));
    EXPECT_EQ(got.der, want.der);
    EXPECT_EQ(got.der.capacity(), got.der.size());
    EXPECT_EQ(got.signature, want.signature);
    if (variant.singles.size() == 1 && variant.nonce.empty()) {
      EXPECT_EQ(ocsp::SignOcspResponse(variant.singles.front(), kNow, key).der,
                want.der);
    }
    ASSERT_TRUE(ocsp::ParseOcspResponse(got.der));

    ocsp::OcspRequest request;
    for (const ocsp::SingleResponse& single : variant.singles)
      request.cert_ids.push_back(single.cert_id);
    request.nonce = variant.nonce;
    EXPECT_EQ(ocsp::EncodeOcspRequest(request),
              reference::ocsp::EncodeOcspRequest(request));
  }
  for (const ocsp::ResponseStatus status :
       {ocsp::ResponseStatus::kMalformedRequest,
        ocsp::ResponseStatus::kInternalError, ocsp::ResponseStatus::kTryLater,
        ocsp::ResponseStatus::kSigRequired,
        ocsp::ResponseStatus::kUnauthorized}) {
    EXPECT_EQ(ocsp::MakeErrorResponse(status).der,
              reference::ocsp::MakeErrorResponse(status).der);
  }
}

struct CrlVariant {
  std::string deviation;
  std::size_t entries = 0;
  std::function<void(crl::TbsCrl&)> apply;
  bool rsa_issuer = false;
};

TEST(DerWriterDifferential, CrlsMatchTheReference) {
  using Tbs = crl::TbsCrl;
  const std::vector<CrlVariant> variants = {
      {"no entries", 0, [](Tbs&) {}},
      {"no entries, no nextUpdate, no CRL number", 0,
       [](Tbs& t) {
         t.next_update = 0;
         t.crl_number = -1;
       }},
      {"one entry", 1, [](Tbs&) {}},
      {"one entry, RSA issuer", 1, [](Tbs&) {}, true},
      {"one entry with a reason", 1,
       [](Tbs& t) {
         t.entries[0].reason = x509::ReasonCode::kKeyCompromise;
       }},
      {"one entry revoked in 1949, update in 2050", 1,
       [](Tbs& t) {
         t.entries[0].revocation_date = util::MakeDate(1949, 1, 1);
         t.this_update = util::MakeDate(2050, 1, 1);
         t.next_update = util::MakeDate(2050, 1, 8);
       }},
      {"CRL number 2^40", 1,
       [](Tbs& t) { t.crl_number = std::int64_t{1} << 40; }},
      {"serials all zeros, leading zero, high bit", 3,
       [](Tbs& t) {
         t.entries[0].serial = {0x00, 0x00};
         t.entries[1].serial = {0x00, 0x01};
         t.entries[2].serial = {0x80};
       }},
      {"100 entries (two length octets)", 100, [](Tbs&) {}},
      {"10 000 entries, every third with a reason", 10'000,
       [](Tbs& t) {
         for (std::size_t i = 0; i < t.entries.size(); i += 3)
           t.entries[i].reason = x509::ReasonCode::kSuperseded;
       }},
  };
  for (const CrlVariant& variant : variants) {
    SCOPED_TRACE(variant.deviation);
    util::Rng rng(variant.entries + 1);
    crl::TbsCrl tbs;
    tbs.issuer = x509::Name::Make("Diff CA", "Differential");
    tbs.this_update = kNow;
    tbs.next_update = kNow + 7 * kDay;
    tbs.crl_number = 0;
    for (std::size_t i = 0; i < variant.entries; ++i)
      tbs.entries.push_back(
          {RandomSerial(rng), kNow - 1000 - static_cast<util::Timestamp>(i),
           x509::ReasonCode::kNoReasonCode});
    variant.apply(tbs);
    const crypto::KeyPair& key =
        variant.rsa_issuer ? DiffRsaKey() : DiffSimKey();
    const reference::crl::Crl want = reference::crl::SignCrl(tbs, key);
    const crl::Crl got = crl::SignCrl(tbs, key);
    const auto view = crl::ParseCrlView(got.der);
    ASSERT_TRUE(view);
    ASSERT_EQ(util::HexEncode(view->tbs_der), util::HexEncode(want.tbs_der));
    EXPECT_EQ(got.der, want.der);
    EXPECT_TRUE(std::ranges::equal(view->signature, want.signature));
  }
}

// ----------------------------------------------------- chain verification ----

class ChainProperty : public Seeded {};

TEST_P(ChainProperty, RandomDepthChains) {
  const int depth = 1 + static_cast<int>(rng_.NextBelow(5));  // intermediates

  // Root.
  const crypto::KeyPair root_key = crypto::SimKeyFromLabel(
      "root" + std::to_string(GetParam()));
  x509::TbsCertificate root_tbs;
  root_tbs.serial = RandomSerial(rng_);
  root_tbs.issuer = root_tbs.subject = x509::Name::FromCommonName("Root");
  root_tbs.not_before = 0;
  root_tbs.not_after = kNow + 5000 * kDay;
  root_tbs.public_key = root_key.Public();
  root_tbs.basic_constraints = {true, -1};
  auto root = std::make_shared<const x509::Certificate>(
      x509::SignCertificate(root_tbs, root_key));

  x509::CertPool roots, pool;
  roots.Add(root);

  crypto::KeyPair prev_key = root_key;
  x509::Name prev_name = root_tbs.subject;
  for (int i = 0; i < depth; ++i) {
    const crypto::KeyPair key = crypto::SimKeyFromLabel(
        "int" + std::to_string(GetParam()) + "." + std::to_string(i));
    x509::TbsCertificate tbs;
    tbs.serial = RandomSerial(rng_);
    tbs.issuer = prev_name;
    tbs.subject = x509::Name::FromCommonName("Int" + std::to_string(i));
    tbs.not_before = 0;
    tbs.not_after = kNow + 4000 * kDay;
    tbs.public_key = key.Public();
    tbs.basic_constraints = {true, -1};
    pool.Add(std::make_shared<const x509::Certificate>(
        x509::SignCertificate(tbs, prev_key)));
    prev_key = key;
    prev_name = tbs.subject;
  }

  x509::TbsCertificate leaf_tbs;
  leaf_tbs.serial = RandomSerial(rng_);
  leaf_tbs.issuer = prev_name;
  leaf_tbs.subject = x509::Name::FromCommonName("leaf.sim");
  leaf_tbs.not_before = kNow - kDay;
  leaf_tbs.not_after = kNow + kDay;
  leaf_tbs.public_key = crypto::SimKeyFromLabel("leafkey").Public();
  auto leaf = std::make_shared<const x509::Certificate>(
      x509::SignCertificate(leaf_tbs, prev_key));

  x509::VerifyOptions options;
  options.at = kNow;
  const x509::VerifyResult result =
      x509::VerifyChain(leaf, pool, roots, options);
  ASSERT_TRUE(result.ok()) << "depth " << depth << ": "
                           << x509::VerifyStatusName(result.status);
  EXPECT_EQ(result.chain.size(), static_cast<std::size_t>(depth) + 2);

  // Invariant: every adjacent pair in the returned chain is issuer-signed.
  for (std::size_t i = 0; i + 1 < result.chain.size(); ++i) {
    EXPECT_TRUE(x509::VerifyCertificateSignature(
        *result.chain[i], result.chain[i + 1]->tbs.public_key));
    EXPECT_EQ(result.chain[i]->tbs.issuer, result.chain[i + 1]->tbs.subject);
  }

  // Removing any single intermediate breaks the (only) path.
  for (const x509::CertPtr& removed : pool.all()) {
    x509::CertPool without;
    for (const x509::CertPtr& cert : pool.all())
      if (cert != removed) without.Add(cert);
    EXPECT_FALSE(x509::VerifyChain(leaf, without, roots, options).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainProperty, ::testing::Range(0, 10));

// ----------------------------------------------------------- filter sweeps ----

class FilterProperty : public Seeded {};

TEST_P(FilterProperty, BloomNeverFalseNegative) {
  const std::size_t n = 100 + rng_.NextBelow(3000);
  const double fpr = 0.001 + rng_.UniformDouble() * 0.05;
  crlset::BloomFilter filter = crlset::BloomFilter::ForCapacity(n, fpr);
  std::vector<Bytes> keys;
  for (std::size_t i = 0; i < n; ++i) {
    Bytes key(8 + rng_.NextBelow(40));
    rng_.Fill(key.data(), key.size());
    keys.push_back(std::move(key));
    filter.Insert(keys.back());
  }
  for (const Bytes& key : keys) EXPECT_TRUE(filter.MayContain(key));
}

TEST_P(FilterProperty, GcsNeverFalseNegative) {
  const std::size_t n = 50 + rng_.NextBelow(1000);
  const int p = 4 + static_cast<int>(rng_.NextBelow(10));
  std::vector<Bytes> keys;
  for (std::size_t i = 0; i < n; ++i) {
    Bytes key(8 + rng_.NextBelow(40));
    rng_.Fill(key.data(), key.size());
    keys.push_back(std::move(key));
  }
  const crlset::GolombCompressedSet set = crlset::GolombCompressedSet::Build(keys, p);
  for (const Bytes& key : keys) EXPECT_TRUE(set.MayContain(key));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FilterProperty, ::testing::Range(0, 10));

// ------------------------------------------ CA + browser consistency sweep ----

class EndToEndProperty : public Seeded {};

TEST_P(EndToEndProperty, RevokedIsCaughtExactlyWhenCheckingApplies) {
  // Random CA with random revocation schedule; a checking browser (IE 11)
  // must reject exactly the revoked-and-effective certificates.
  util::Rng rng = rng_;
  ca::CertificateAuthority::Options options;
  options.name = "Prop" + std::to_string(GetParam());
  options.domain = "prop" + std::to_string(GetParam()) + ".sim";
  options.num_crl_shards = 1 + static_cast<int>(rng.NextBelow(4));
  auto root = ca::CertificateAuthority::CreateRoot(options, rng,
                                                   kNow - 2000 * kDay);
  net::SimNet net;
  root->RegisterEndpoints(&net);
  x509::CertPool roots;
  roots.Add(root->cert());

  const browser::Policy& policy =
      browser::FindProfile("IE 11", "Windows 10")->policy;

  for (int i = 0; i < 12; ++i) {
    ca::CertificateAuthority::IssueOptions issue;
    issue.common_name = "site" + std::to_string(i) + ".sim";
    issue.not_before = kNow - 50 * kDay;
    const x509::CertPtr leaf = root->Issue(issue, rng);
    const bool revoked = rng.Chance(0.5);
    if (revoked) {
      root->Revoke(leaf->tbs.serial,
                   kNow - static_cast<util::Timestamp>(1 + rng.NextBelow(30)) * kDay,
                   x509::ReasonCode::kKeyCompromise);
    }
    tls::TlsServer::Config config;
    config.chain_der = {leaf->der};
    tls::TlsServer server(config);
    browser::Client client(policy, &net, roots);
    const browser::VisitOutcome outcome = client.Visit(server, kNow);
    EXPECT_EQ(outcome.rejected(), revoked)
        << "cert " << i << " revoked=" << revoked << ": "
        << outcome.reject_reason;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EndToEndProperty, ::testing::Range(0, 8));

// ----------------------------------------------- retry-policy invariants ----

class RetryProperty : public Seeded {};

// The deterministic-jitter schedule is non-decreasing up to the cap for any
// seed/key, provided multiplier >= 1/(1 - jitter) (the documented bound:
// the worst jittered step must still outgrow the best previous one), and
// once the un-jittered base crosses the cap the delay equals the cap
// exactly.
TEST_P(RetryProperty, BackoffDelaysNonDecreasingUpToCap) {
  for (int trial = 0; trial < 20; ++trial) {
    net::RetryPolicy policy;
    policy.jitter = rng_.Uniform(0.0, 0.6);
    policy.backoff_multiplier =
        std::max(1.5, 1.0 / (1.0 - policy.jitter)) + rng_.Uniform(0.0, 2.0);
    policy.initial_backoff_seconds = rng_.Uniform(0.1, 10.0);
    policy.max_backoff_seconds =
        policy.initial_backoff_seconds + rng_.Uniform(0.0, 1000.0);
    policy.seed = rng_.Next();
    const std::string key = "http://" + RandomLabel(rng_, 24) + "/crl";

    double prev = 0;
    for (int attempt = 1; attempt <= 40; ++attempt) {
      const double delay = net::BackoffDelay(policy, key, attempt);
      EXPECT_GE(delay, prev) << "attempt " << attempt;
      EXPECT_LE(delay, policy.max_backoff_seconds);
      EXPECT_GT(delay, 0.0);
      prev = delay;
    }
    // Far past the cap crossover the delay is pinned to the cap exactly.
    EXPECT_EQ(net::BackoffDelay(policy, key, 80), policy.max_backoff_seconds);
  }
}

// The bad-config region: multiplier below 1/(1 - jitter) (including
// multipliers under 1, and jitter past the 0.9 effective ceiling) used to
// silently produce *decreasing* backoff — the next window's floor undercut
// the previous window's ceiling. BackoffDelay clamps such configs up to
// the smallest compliant multiplier, so every invariant of the good region
// must now hold over the whole config space.
TEST_P(RetryProperty, BadConfigsAreClampedToNonDecreasing) {
  for (int trial = 0; trial < 20; ++trial) {
    net::RetryPolicy policy;
    // Jitter from well inside the valid range to past the 0.9 effective
    // ceiling; kept off zero so the clamped multiplier (>= 1/(1 - jitter)
    // > 1.33) still grows past the cap for the pin check below.
    policy.jitter = rng_.Uniform(0.25, 1.2);
    // Deliberately below the documented bound for any jitter.
    policy.backoff_multiplier = rng_.Uniform(0.0, 1.0);
    policy.initial_backoff_seconds = rng_.Uniform(0.1, 10.0);
    policy.max_backoff_seconds =
        policy.initial_backoff_seconds + rng_.Uniform(0.0, 1000.0);
    policy.seed = rng_.Next();
    const std::string key = "http://" + RandomLabel(rng_, 24) + "/crl";

    double prev = 0;
    for (int attempt = 1; attempt <= 40; ++attempt) {
      const double delay = net::BackoffDelay(policy, key, attempt);
      EXPECT_GE(delay, prev) << "attempt " << attempt << " jitter "
                             << policy.jitter << " multiplier "
                             << policy.backoff_multiplier;
      EXPECT_LE(delay, policy.max_backoff_seconds);
      EXPECT_GT(delay, 0.0);
      prev = delay;
    }
    // The clamped multiplier still outgrows the cap eventually (it is at
    // least 1/(1 - 0.9) > 1), so the cap-pin property holds too.
    EXPECT_EQ(net::BackoffDelay(policy, key, 500),
              policy.max_backoff_seconds);
  }
}

// Pinned worst case of the old bug: multiplier 1 with 50% jitter produced
// a schedule that oscillated with the jitter draw instead of growing.
TEST_P(RetryProperty, UnityMultiplierIsLiftedToJitterBound) {
  net::RetryPolicy policy;
  policy.jitter = 0.5;
  policy.backoff_multiplier = 1.0;  // bound requires >= 2
  policy.initial_backoff_seconds = 1.0;
  policy.max_backoff_seconds = 1e9;
  policy.seed = rng_.Next();

  double prev = 0;
  for (int attempt = 1; attempt <= 20; ++attempt) {
    const double delay = net::BackoffDelay(policy, "http://clamp.sim/", attempt);
    EXPECT_GE(delay, prev);
    prev = delay;
  }
  // Growth is real, not merely non-decreasing: with the clamped multiplier
  // of 2, attempt 20's floor (2^19 / 2) dwarfs attempt 1's ceiling (1).
  EXPECT_GT(prev, 1000.0);
}

// Simulated-clock accounting: the total elapsed time of a retried fetch is
// exactly the sum of its per-attempt costs (waits + exchange times), the
// backoff total is exactly the sum of the waits, and finished_at lands at
// start + elapsed on the virtual clock.
TEST_P(RetryProperty, TotalElapsedIsSumOfPerAttemptCosts) {
  for (int trial = 0; trial < 10; ++trial) {
    net::SimNet net;
    const int failures = static_cast<int>(rng_.NextBelow(4));
    int calls = 0;
    net.AddHost("prop.sim",
                [&](const net::HttpRequest&, util::Timestamp) {
                  net::HttpResponse response;
                  if (calls++ < failures) {
                    response.status = 503;
                  } else {
                    response.body = ToBytes("payload-of-some-size");
                  }
                  return response;
                });
    net::RetryPolicy policy;
    policy.max_attempts = 6;
    policy.initial_backoff_seconds = rng_.Uniform(0.5, 3.0);
    policy.backoff_multiplier = 2;
    policy.jitter = rng_.Uniform(0.0, 0.5);
    policy.seed = rng_.Next();

    const net::RetryResult result =
        net::GetWithRetry(net, "http://prop.sim/x", kNow, policy);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.attempts, failures + 1);
    ASSERT_EQ(result.schedule.size(), static_cast<std::size_t>(failures + 1));

    double total = 0, waits = 0;
    for (const net::RetryResult::Attempt& attempt : result.schedule) {
      total += attempt.wait_before + attempt.elapsed_seconds;
      waits += attempt.wait_before;
    }
    EXPECT_DOUBLE_EQ(result.total_elapsed_seconds, total);
    EXPECT_DOUBLE_EQ(result.backoff_seconds, waits);
    EXPECT_EQ(result.finished_at,
              kNow + static_cast<util::Timestamp>(result.total_elapsed_seconds));
    EXPECT_EQ(result.schedule.front().at, kNow);
  }
}

// A 503's Retry-After hint is always a *lower bound* on the wait before the
// next attempt, whatever the backoff schedule says.
TEST_P(RetryProperty, RetryAfterIsLowerBoundOnNextAttempt) {
  net::SimNet net;
  util::Rng& rng = rng_;
  net.AddHost("hint.sim", [&](const net::HttpRequest&, util::Timestamp) {
    net::HttpResponse response;
    response.status = 503;  // always shedding
    response.retry_after = rng.UniformInt(0, 40);
    return response;
  });
  net::RetryPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff_seconds = 0.01;  // hints, when present, must win
  policy.backoff_multiplier = 2;
  policy.jitter = rng_.Uniform(0.0, 0.5);
  policy.seed = rng_.Next();

  const net::RetryResult result =
      net::GetWithRetry(net, "http://hint.sim/x", kNow, policy);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.gave_up);
  ASSERT_EQ(result.schedule.size(), 6u);
  for (std::size_t i = 1; i < result.schedule.size(); ++i) {
    const net::RetryResult::Attempt& before = result.schedule[i - 1];
    EXPECT_EQ(before.http_status, 503);
    EXPECT_GE(result.schedule[i].wait_before,
              static_cast<double>(before.retry_after))
        << "attempt " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RetryProperty, ::testing::Range(0, 10));

// --------------------------------------------- corpus building blocks ----

// String interner: intern -> resolve round-trips, dedup returns the same
// id, and ids handed out early stay valid as the table grows through many
// rehashes.
class InternerProperty : public Seeded {};

TEST_P(InternerProperty, RoundTripAndIdStabilityUnderGrowth) {
  util::StringInterner interner;
  std::vector<std::string> strings;
  std::vector<std::uint32_t> ids;
  // Mixed lengths, including duplicates and the empty string.
  for (int i = 0; i < 4000; ++i) {
    std::string s;
    if (rng_.NextBelow(10) == 0 && !strings.empty()) {
      s = strings[rng_.NextBelow(strings.size())];  // duplicate
    } else if (rng_.NextBelow(50) == 0) {
      s = "";  // empty must intern like anything else
    } else {
      s = RandomLabel(rng_, 1 + rng_.NextBelow(80));
    }
    const std::uint32_t id = interner.Intern(s);
    ASSERT_NE(id, util::StringInterner::kInvalidId);
    // Resolve immediately...
    ASSERT_EQ(interner.Get(id), s);
    strings.push_back(std::move(s));
    ids.push_back(id);
  }
  // ...and again after all growth: every id must still resolve to the
  // string it was handed out for, and re-interning must return it.
  for (std::size_t i = 0; i < strings.size(); ++i) {
    EXPECT_EQ(interner.Get(ids[i]), strings[i]);
    EXPECT_EQ(interner.Intern(strings[i]), ids[i]);
    EXPECT_EQ(interner.Find(strings[i]), ids[i]);
  }
  // Ids are dense: one per distinct string.
  std::set<std::string> distinct(strings.begin(), strings.end());
  EXPECT_EQ(interner.size(), distinct.size());
  // Find misses cleanly for strings never interned.
  EXPECT_EQ(interner.Find("never-interned-\x01\x02"),
            util::StringInterner::kInvalidId);
}

// HashIndex vs a std::map oracle: random insert/lookup workloads keyed by
// util::HashBytes tags agree exactly, including lookups of absent keys
// after rehashes (no false hits from stale tags).
class HashIndexProperty : public Seeded {};

TEST_P(HashIndexProperty, MatchesMapOracleAcrossRehashes) {
  util::HashIndex index;
  std::vector<Bytes> stored;  // key per id, id == vector index
  std::map<Bytes, std::uint32_t, util::BytesLess> oracle;

  auto find = [&](const Bytes& key) {
    return index.Find(util::HashBytes(key), [&](std::uint32_t id) {
      return stored[id].size() == key.size() &&
             std::equal(key.begin(), key.end(), stored[id].begin());
    });
  };
  auto random_key = [&] {
    Bytes key(1 + rng_.NextBelow(48));
    rng_.Fill(key.data(), key.size());
    return key;
  };

  for (int i = 0; i < 5000; ++i) {
    Bytes key = random_key();
    // Sometimes re-query an existing key instead of a fresh one.
    if (!stored.empty() && rng_.NextBelow(4) == 0)
      key = stored[rng_.NextBelow(stored.size())];

    const std::uint32_t got = find(key);
    const auto it = oracle.find(key);
    if (it == oracle.end()) {
      ASSERT_EQ(got, util::HashIndex::kNoId) << "false hit at " << i;
      const auto id = static_cast<std::uint32_t>(stored.size());
      index.Insert(util::HashBytes(key), id);
      stored.push_back(key);
      oracle.emplace(std::move(key), id);
    } else {
      ASSERT_EQ(got, it->second) << "miss/mismatch at " << i;
    }
  }
  // Post-growth sweep: every stored key resolves to its id, and fresh keys
  // still miss (the table has rehashed many times by now — 5k inserts from
  // a 64-slot start).
  EXPECT_EQ(index.size(), oracle.size());
  for (const auto& [key, id] : oracle) EXPECT_EQ(find(key), id);
  for (int i = 0; i < 500; ++i) {
    const Bytes key = random_key();
    if (!oracle.contains(key)) {
      EXPECT_EQ(find(key), util::HashIndex::kNoId);
    }
  }
}

// CertCorpus::FindDer vs a std::map<Bytes, Row> oracle: a corpus keyed by
// its certificates' bytes must resolve every interned DER to its row and
// miss everything else, across index rehashes. Near-duplicates are the hard
// case for a tag-plus-memcmp index: fresh certificates whose serials differ
// only in the last byte (equal length, mostly equal bytes) and one-byte
// flips of stored DER, some offered to Pipeline::ObserveDer as a one-element
// chain and some only probed. A flip that fails ParseCertView must be
// refused without touching the corpus.
class CorpusFindDerProperty : public Seeded {};

TEST_P(CorpusFindDerProperty, MatchesMapOracleAcrossRehashes) {
  core::Pipeline pipeline{x509::CertPool{}};
  const core::CertCorpus& corpus = pipeline.corpus();
  pipeline.BeginScan(kNow);
  std::map<Bytes, core::CertCorpus::Row, util::BytesLess> oracle;
  std::vector<Bytes> stored;
  const crypto::KeyPair ca_key = crypto::SimKeyFromLabel("find-der-ca");
  x509::TbsCertificate tbs;
  tbs.issuer = x509::Name::Make("FindDer CA", "Property");
  tbs.not_before = kNow - kDay;
  tbs.not_after = kNow + 365 * kDay;
  tbs.public_key = crypto::SimKeyFromLabel("find-der-leaf").Public();
  tbs.ocsp_urls = {"http://ocsp.find-der.sim/"};

  for (int i = 0; i < 3000; ++i) {
    Bytes der;
    const std::uint64_t pick = rng_.NextBelow(4);
    if (pick == 0 && !stored.empty()) {
      // A one-byte flip of stored DER: equal length, one byte apart.
      der = stored[rng_.NextBelow(stored.size())];
      der[rng_.NextBelow(der.size())] ^=
          static_cast<std::uint8_t>(1 + rng_.NextBelow(255));
    } else if (pick == 1 && !stored.empty()) {
      der = stored[rng_.NextBelow(stored.size())];  // a fresh copy
    } else {
      // Serials of one length, 256 per prefix: neighbours differ in the
      // last serial byte (and the signature).
      tbs.serial = x509::Serial{0x01, static_cast<std::uint8_t>(i >> 8),
                                static_cast<std::uint8_t>(i)};
      tbs.subject = x509::Name::FromCommonName(
          "host" + std::to_string(i % 7) + ".find-der.sim");
      der = x509::SignCertificate(tbs, ca_key).der;
    }

    const core::CertCorpus::Row got = corpus.FindDer(der);
    const auto it = oracle.find(der);
    if (it != oracle.end()) {
      ASSERT_EQ(got, it->second) << "miss/mismatch at " << i;
      continue;
    }
    ASSERT_EQ(got, core::CertCorpus::kNoRow) << "false hit at " << i;
    // Some flips are only probed, never offered.
    if (pick == 0 && rng_.NextBelow(2) == 0) continue;
    const std::size_t size_before = corpus.size();
    const BytesView chain[] = {der};
    const std::optional<core::CertCorpus::Row> row = pipeline.ObserveDer(chain);
    if (!x509::ParseCertView(der)) {
      ASSERT_FALSE(row.has_value()) << "accepted at " << i;
      ASSERT_EQ(corpus.size(), size_before);
      ASSERT_EQ(corpus.FindDer(der), core::CertCorpus::kNoRow);
      continue;
    }
    ASSERT_TRUE(row.has_value()) << "refused at " << i;
    ASSERT_EQ(*row, stored.size());
    stored.push_back(der);
    oracle.emplace(der, *row);
  }

  pipeline.EndScan();

  // Post-growth sweep (3000 probes from an empty table: many rehashes):
  // every stored DER resolves to its row, and flips of it that were never
  // interned still miss.
  for (const auto& [der, row] : oracle) EXPECT_EQ(corpus.FindDer(der), row);
  for (int i = 0; i < 500; ++i) {
    Bytes der = stored[rng_.NextBelow(stored.size())];
    der[rng_.NextBelow(der.size())] ^= 0x80;
    const auto it = oracle.find(der);
    EXPECT_EQ(corpus.FindDer(der),
              it == oracle.end() ? core::CertCorpus::kNoRow : it->second);
  }
  EXPECT_TRUE(corpus.CheckInvariants());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorpusFindDerProperty, ::testing::Range(0, 6));
INSTANTIATE_TEST_SUITE_P(Seeds, InternerProperty, ::testing::Range(0, 6));
INSTANTIATE_TEST_SUITE_P(Seeds, HashIndexProperty, ::testing::Range(0, 6));

// ----------------------------------------------- SHA-256 compression paths ----

// The digest of `message` through one block function alone: FIPS 180-4
// padding done here, independently of Sha256::Finish, and the padded blocks
// handed over in random runs so state carries across calls.
crypto::Sha256Digest DigestWith(crypto::internal::Sha256BlockFn blocks,
                                BytesView message, util::Rng& rng) {
  Bytes padded(message.begin(), message.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(message.size()) * 8;
  for (int shift = 56; shift >= 0; shift -= 8)
    padded.push_back(static_cast<std::uint8_t>(bits >> shift));

  std::array<std::uint32_t, 8> state = crypto::internal::kSha256InitialState;
  std::size_t done = 0;
  const std::size_t total = padded.size() / 64;
  while (done < total) {
    const std::size_t run = 1 + rng.NextBelow(total - done);
    blocks(state.data(), padded.data() + done * 64, run);
    done += run;
  }
  crypto::Sha256Digest digest;
  for (std::size_t i = 0; i < 32; ++i)
    digest[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  return digest;
}

std::string HexOf(const crypto::Sha256Digest& digest) {
  return util::HexEncode(Bytes(digest.begin(), digest.end()));
}

// FIPS 180-4 example vectors plus the one-million-'a' digest, on one path.
void ExpectKnownAnswers(crypto::internal::Sha256BlockFn blocks) {
  util::Rng rng(1);
  const std::pair<std::string_view, std::string_view> vectors[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
  };
  for (const auto& [message, want] : vectors)
    EXPECT_EQ(HexOf(DigestWith(blocks, ToBytes(message), rng)), want)
        << '"' << message << '"';
  EXPECT_EQ(HexOf(DigestWith(blocks, Bytes(1'000'000, 'a'), rng)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Paths, ScalarKnownAnswers) {
  ExpectKnownAnswers(&crypto::internal::Sha256BlocksScalar);
}

TEST(Sha256Paths, ShaNiKnownAnswers) {
  const auto shani = crypto::internal::Sha256BlocksShaNi();
  if (shani == nullptr) GTEST_SKIP() << "no SHA extensions on this CPU/build";
  ExpectKnownAnswers(shani);
}

class Sha256Differential : public Seeded {
 protected:
  Bytes RandomMessage() {
    Bytes message(rng_.NextBelow(4097));
    rng_.Fill(message.data(), message.size());
    return message;
  }
};

// Sha256 (whichever path the process chose) fed through random Update
// splits, including empty, 1-, 63-, 64- and 65-byte pieces, matches the
// scalar oracle's digest of the whole message.
TEST_P(Sha256Differential, UpdateSplitsMatchScalarOracle) {
  constexpr std::size_t kEdgeSplits[] = {0, 1, 63, 64, 65};
  for (int trial = 0; trial < 64; ++trial) {
    const Bytes message = RandomMessage();
    const crypto::Sha256Digest oracle =
        DigestWith(&crypto::internal::Sha256BlocksScalar, message, rng_);
    ASSERT_EQ(crypto::Sha256::Hash(message), oracle)
        << "length " << message.size();

    crypto::Sha256 ctx;
    std::size_t pos = 0;
    while (pos < message.size()) {
      const std::size_t pick = rng_.NextBelow(2 * std::size(kEdgeSplits));
      const std::size_t want = pick < std::size(kEdgeSplits)
                                   ? kEdgeSplits[pick]
                                   : rng_.NextBelow(message.size() + 1);
      const std::size_t n = std::min(want, message.size() - pos);
      ctx.Update(BytesView(message.data() + pos, n));
      pos += n;
    }
    ASSERT_EQ(ctx.Finish(), oracle) << "length " << message.size();
  }
}

// The SHA-NI block function against the scalar one on the same padded
// blocks, with independent random multi-block runs on each side.
TEST_P(Sha256Differential, ShaNiMatchesScalarOracle) {
  const auto shani = crypto::internal::Sha256BlocksShaNi();
  if (shani == nullptr) GTEST_SKIP() << "no SHA extensions on this CPU/build";
  for (int trial = 0; trial < 64; ++trial) {
    const Bytes message = RandomMessage();
    ASSERT_EQ(DigestWith(shani, message, rng_),
              DigestWith(&crypto::internal::Sha256BlocksScalar, message, rng_))
        << "length " << message.size();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Sha256Differential, ::testing::Range(0, 8));

}  // namespace
}  // namespace rev
