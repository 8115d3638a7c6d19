// Allocation regression tests for the new-certificate parse path and the
// OCSP serve path. This binary replaces the global operator new with one
// that counts calls, so a test can assert how many heap allocations a call
// makes: matching an OID against a well-known one must make none,
// ParseCertView only the ones of its two URL vectors, ParseCertificate only
// those and the copies its Certificate owns, signing a
// certificate, OCSP response or CRL only its result's vectors, the CRL and
// OCSP request parses none, and a cache hit none by POST and one by GET.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "asn1/oid.h"
#include "asn1/reader.h"
#include "crl/crl.h"
#include "crypto/signer.h"
#include "ocsp/ocsp.h"
#include "ocsp/responder.h"
#include "serve/frontend.h"
#include "util/hex.h"
#include "x509/certificate.h"
#include "x509/spki.h"
#include "x509/view.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* Allocate(std::size_t n) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

// Out of line, so GCC does not pair an inlined operator new with this free
// and report a mismatched new/delete.
[[gnu::noinline]] void Release(void* p) noexcept { std::free(p); }

}  // namespace

// The whole replaceable non-aligned family, so every allocation is counted
// and every pointer is released by the allocator that made it.
void* operator new(std::size_t n) {
  if (void* p = Allocate(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n);
}
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { Release(p); }

namespace rev {
namespace {

constexpr util::Timestamp kNow = 1'420'000'000;

// Heap allocations made while `f` runs.
template <typename F>
std::size_t AllocationsDuring(F&& f) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  f();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

Bytes LeafDer(std::vector<std::string> crl_urls,
              std::vector<std::string> ocsp_urls) {
  x509::TbsCertificate tbs;
  tbs.serial = x509::Serial{0x01, 0x02, 0x03};
  tbs.issuer = x509::Name::Make("Alloc CA", "Alloc");
  tbs.subject = x509::Name::FromCommonName("www.alloc.sim");
  tbs.not_before = kNow - 1000;
  tbs.not_after = kNow + 1000;
  tbs.public_key = crypto::SimKeyFromLabel("alloc-leaf").Public();
  tbs.crl_urls = std::move(crl_urls);
  tbs.ocsp_urls = std::move(ocsp_urls);
  tbs.dns_names = {"www.alloc.sim"};
  tbs.key_usage = x509::kKeyUsageDigitalSignature;  // critical, known
  tbs.policies = {asn1::oids::VerisignEvPolicy()};
  return x509::SignCertificate(tbs, crypto::SimKeyFromLabel("alloc-ca")).der;
}

TEST(Allocations, CountingOperatorNewSeesAVector) {
  EXPECT_EQ(AllocationsDuring([] {
              std::vector<int> v(3);
              ASSERT_EQ(v.size(), 3u);
            }),
            1u);
}

TEST(Allocations, DecodeSignatureAlgorithmMakesNone) {
  for (const crypto::KeyType type :
       {crypto::KeyType::kSimSha256, crypto::KeyType::kRsaSha256}) {
    const Bytes alg = asn1::Encode(
        [type](asn1::Writer& w) { x509::EncodeSignatureAlgorithm(w, type); });
    asn1::Reader warm(alg);
    ASSERT_EQ(x509::DecodeSignatureAlgorithm(warm), type);  // OID statics
    std::optional<crypto::KeyType> decoded;
    EXPECT_EQ(AllocationsDuring([&] {
                asn1::Reader r(alg);
                decoded = x509::DecodeSignatureAlgorithm(r);
              }),
              0u);
    EXPECT_EQ(decoded, type);
  }
}

TEST(Allocations, OidEqualityMakesNone) {
  const auto decoded = asn1::Oid::DecodeContent(asn1::oids::AdOcsp().content());
  ASSERT_TRUE(decoded);
  const asn1::Oid& ocsp = asn1::oids::AdOcsp();
  const asn1::Oid& ev = asn1::oids::VerisignEvPolicy();
  bool same = false;
  bool other = true;
  EXPECT_EQ(AllocationsDuring([&] {
              same = *decoded == ocsp;
              other = *decoded == ev;
            }),
            0u);
  EXPECT_TRUE(same);
  EXPECT_FALSE(other);
}

TEST(Allocations, ParseCertViewMakesOnlyItsUrlVectors) {
  const Bytes one_each = LeafDer({"http://crl.alloc.sim/a.crl"},
                                 {"http://ocsp.alloc.sim/"});
  const Bytes no_urls = LeafDer({}, {});
  ASSERT_TRUE(x509::ParseCertView(one_each));  // warms the OID statics

  std::optional<x509::CertView> view;
  EXPECT_EQ(AllocationsDuring([&] { view = x509::ParseCertView(one_each); }),
            2u);
  ASSERT_TRUE(view);
  EXPECT_EQ(view->crl_urls.size(), 1u);
  EXPECT_EQ(view->ocsp_urls.size(), 1u);
  EXPECT_TRUE(view->is_ev);

  view.reset();
  EXPECT_EQ(AllocationsDuring([&] { view = x509::ParseCertView(no_urls); }),
            0u);
  ASSERT_TRUE(view);
  EXPECT_TRUE(view->crl_urls.empty());
  EXPECT_TRUE(view->is_ev);
}

// The full parse is the view's walk plus the owned copies a Certificate
// holds, built from the view's slices; no extension or name is copied
// whole on the way. For this leaf: the view's 2 URL vectors; der, tbs_der,
// signature and serial (4); the issuer's 3 attributes (3 vector growths, 3
// OIDs) and the subject's 1 (2); the sim key (1); the CRL and OCSP lists
// and their URL strings (4); the SAN list (1, its name fits inline); the
// policy list and its OID (2).
TEST(Allocations, ParseCertificatePinned) {
  const Bytes one_each = LeafDer({"http://crl.alloc.sim/a.crl"},
                                 {"http://ocsp.alloc.sim/"});
  ASSERT_TRUE(x509::ParseCertificate(one_each));  // warms the OID statics

  std::optional<x509::Certificate> cert;
  EXPECT_EQ(AllocationsDuring([&] { cert = x509::ParseCertificate(one_each); }),
            22u);
  ASSERT_TRUE(cert);
  EXPECT_EQ(cert->tbs.crl_urls.size(), 1u);
  EXPECT_TRUE(cert->IsEv());
}

// ------------------------------------------------------------ encoders ----

// Signing writes the DER through one buffer, so the count is the result's
// own vectors plus the copy of the input fields the result carries: no
// allocation per TLV.
TEST(Allocations, SignCertificatePinned) {
  const crypto::KeyPair key = crypto::SimKeyFromLabel("alloc-ca");
  x509::TbsCertificate tbs;
  tbs.serial = x509::Serial{0x01, 0x02, 0x03};
  tbs.issuer = x509::Name::Make("Alloc CA", "Alloc");
  tbs.subject = x509::Name::FromCommonName("www.alloc.sim");
  tbs.not_before = kNow - 1000;
  tbs.not_after = kNow + 1000;
  tbs.public_key = crypto::SimKeyFromLabel("alloc-leaf").Public();
  tbs.crl_urls = {"http://crl.alloc.sim/a.crl"};
  tbs.ocsp_urls = {"http://ocsp.alloc.sim/"};
  tbs.dns_names = {"www.alloc.sim"};
  tbs.key_usage = x509::kKeyUsageDigitalSignature;
  ASSERT_FALSE(x509::SignCertificate(tbs, key).der.empty());  // OID statics

  // Certificate::tbs is a copy of the input: 13 allocations for this
  // shape (names, URL and SAN lists, key, serial).
  const std::size_t copy = AllocationsDuring([&] {
    const x509::TbsCertificate tbs_copy = tbs;
    ASSERT_EQ(tbs_copy.serial.size(), 3u);
  });
  EXPECT_EQ(copy, 13u);
  // Then der, tbs_der and signature: one each.
  EXPECT_EQ(AllocationsDuring([&] {
              const x509::Certificate cert = x509::SignCertificate(tbs, key);
              ASSERT_GT(cert.der.size(), 300u);
            }),
            copy + 3);
}

TEST(Allocations, SignOcspResponsePinned) {
  const crypto::KeyPair key = crypto::SimKeyFromLabel("alloc-ocsp");
  ocsp::SingleResponse single;
  single.cert_id.issuer_name_hash = Bytes(32, 0x01);
  single.cert_id.issuer_key_hash = Bytes(32, 0x02);
  single.cert_id.serial = x509::Serial(16, 0x42);
  single.status = ocsp::CertStatus::kGood;
  single.this_update = kNow;
  single.next_update = kNow + 4 * util::kSecondsPerDay;
  ASSERT_FALSE(ocsp::SignOcspResponse(single, kNow, key).der.empty());

  // 3 for the one copy of the single the response carries (its three byte
  // fields; `more_singles` stays empty) and 4 for the encoding: the working
  // buffer, tbs_der, signature and the exact-size der. It was 11 while the
  // response also kept every single in a vector beside `single` (1 + 3).
  EXPECT_EQ(AllocationsDuring([&] {
              const ocsp::OcspResponse response =
                  ocsp::SignOcspResponse(single, kNow, key);
              ASSERT_EQ(response.der.capacity(), response.der.size());
              ASSERT_TRUE(response.more_singles.empty());
            }),
            7u);
}

// 100 entries with 16-byte serials, every fourth with a reason.
crl::TbsCrl HundredEntryTbs() {
  crl::TbsCrl tbs;
  tbs.issuer = x509::Name::Make("Alloc CA", "Alloc");
  tbs.this_update = kNow;
  tbs.next_update = kNow + util::kSecondsPerDay;
  tbs.crl_number = 7;
  for (std::uint8_t i = 0; i < 100; ++i) {
    tbs.entries.push_back({x509::Serial(16, i), kNow - 1000,
                           i % 4 == 0 ? x509::ReasonCode::kKeyCompromise
                                      : x509::ReasonCode::kNoReasonCode});
  }
  return tbs;
}

TEST(Allocations, SignCrlPinned) {
  const crypto::KeyPair key = crypto::SimKeyFromLabel("alloc-crl");
  ASSERT_FALSE(crl::SignCrl(HundredEntryTbs(), key).der.empty());
  // A TBS moved in is kept, not copied: the 25 reasons and 100 entries of
  // the encoding allocate nothing more than der and the signature.
  crl::TbsCrl tbs = HundredEntryTbs();
  std::optional<crl::Crl> crl;
  EXPECT_EQ(AllocationsDuring([&] { crl = crl::SignCrl(std::move(tbs), key); }),
            2u);
  EXPECT_GT(crl->der.size(), 4000u);
  EXPECT_EQ(crl->tbs.entries.size(), 100u);
}

TEST(Allocations, CrlViewParseAndWalkMakeNone) {
  const crl::Crl crl =
      crl::SignCrl(HundredEntryTbs(), crypto::SimKeyFromLabel("alloc-crl"));
  std::size_t walked = 0;
  std::size_t reasons = 0;
  EXPECT_EQ(AllocationsDuring([&] {
              const auto view = crl::ParseCrlView(crl.der);
              if (!view) return;
              for (const crl::CrlEntryView& entry : view->entries) {
                ++walked;
                reasons += entry.reason != x509::ReasonCode::kNoReasonCode;
              }
            }),
            0u);
  EXPECT_EQ(walked, 100u);
  EXPECT_EQ(reasons, 25u);
}

// ------------------------------------------------------ OCSP requests ----

x509::Certificate IssuerCert() {
  x509::TbsCertificate tbs;
  tbs.serial = x509::Serial{0x41};
  tbs.issuer = tbs.subject = x509::Name::Make("Alloc OCSP CA", "Alloc");
  tbs.not_before = 0;
  tbs.not_after = kNow + 100'000'000;
  tbs.public_key = crypto::SimKeyFromLabel("alloc-ocsp").Public();
  tbs.basic_constraints = {true, -1};
  return x509::SignCertificate(tbs, crypto::SimKeyFromLabel("alloc-ocsp"));
}

Bytes RequestDer(const x509::Certificate& issuer,
                 std::vector<std::uint8_t> serials, Bytes nonce = {}) {
  ocsp::OcspRequest request;
  for (const std::uint8_t s : serials)
    request.cert_ids.push_back(ocsp::MakeCertId(issuer, {s}));
  request.nonce = std::move(nonce);
  return ocsp::EncodeOcspRequest(request);
}

TEST(Allocations, OcspRequestViewParseMakesNone) {
  const x509::Certificate issuer = IssuerCert();
  const Bytes one = RequestDer(issuer, {0x01});
  const Bytes three = RequestDer(issuer, {0x01, 0x02, 0x03}, Bytes{7, 7, 7});
  ASSERT_TRUE(ocsp::ParseOcspRequestView(three));  // warms the nonce OID

  for (const Bytes* der : {&one, &three}) {
    std::optional<ocsp::RequestView> parsed;
    std::size_t walked = 0;
    EXPECT_EQ(AllocationsDuring([&] {
                parsed = ocsp::ParseOcspRequestView(*der);
                if (!parsed) return;
                for (const ocsp::OcspRequestView& id : *parsed)
                  walked += id.serial.size();
              }),
              0u);
    ASSERT_TRUE(parsed);
    EXPECT_EQ(walked, parsed->size());  // one-byte serials
  }
}

// A cache hit costs the POST no allocation and the GET one: the decoded
// DER. Everything after the decode is the POST's path.
TEST(Allocations, FrontendCacheHitByPostMakesNoneAndByGetOne) {
  const x509::Certificate issuer = IssuerCert();
  ocsp::Responder responder(issuer, crypto::SimKeyFromLabel("alloc-ocsp"));
  responder.AddCertificate({0x01});
  serve::Frontend frontend;
  frontend.AttachResponder(&responder);
  const Bytes der = RequestDer(issuer, {0x01});
  std::string path(1, '/');
  path += util::Base64Encode(der);
  ASSERT_FALSE(frontend.Serve(der, kNow).cache_hit);  // the miss signs
  ASSERT_TRUE(frontend.Serve(der, kNow).cache_hit);   // warms the hit path

  serve::Frontend::ServeResult post, get;
  EXPECT_EQ(AllocationsDuring([&] { post = frontend.Serve(der, kNow); }), 0u);
  EXPECT_EQ(AllocationsDuring([&] { get = frontend.ServeGetPath(path, kNow); }),
            1u);
  EXPECT_TRUE(post.cache_hit);
  EXPECT_TRUE(get.cache_hit);
  ASSERT_TRUE(post.body && get.body);
  EXPECT_EQ(post.body, get.body);  // the one cached DER
}

// The cache keeps every pre-signed response for its serving window; a
// working reserve left in each (512 bytes against ~280 used) would add
// ~11 MB per 50 k serials. Misses and RebuildAll both store exact DER.
TEST(Allocations, CachedResponseDerHasNoSpareCapacity) {
  const x509::Certificate issuer = IssuerCert();
  ocsp::Responder responder(issuer, crypto::SimKeyFromLabel("alloc-ocsp"));
  for (std::uint8_t s = 1; s <= 3; ++s) responder.AddCertificate({s});
  responder.Revoke({0x03}, kNow - 100, x509::ReasonCode::kKeyCompromise);
  serve::Frontend frontend;
  frontend.AttachResponder(&responder);

  const Bytes miss = RequestDer(issuer, {0x01});
  const serve::Frontend::ServeResult signed_on_miss =
      frontend.Serve(miss, kNow);
  ASSERT_FALSE(signed_on_miss.cache_hit);
  ASSERT_TRUE(signed_on_miss.body);
  EXPECT_EQ(signed_on_miss.body->capacity(), signed_on_miss.body->size());

  ASSERT_EQ(frontend.RebuildAll(kNow + 60), 3u);
  for (const std::uint8_t s : {0x01, 0x02, 0x03}) {
    const serve::Frontend::ServeResult hit =
        frontend.Serve(RequestDer(issuer, {s}), kNow + 60);
    ASSERT_TRUE(hit.cache_hit) << int{s};
    ASSERT_TRUE(hit.body);
    EXPECT_GT(hit.body->size(), 200u);
    EXPECT_EQ(hit.body->capacity(), hit.body->size()) << int{s};
  }
}

}  // namespace
}  // namespace rev
