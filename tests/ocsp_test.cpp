// OCSP tests: request/response round-trips, status semantics, the
// responder's status database, and error responses.
#include <gtest/gtest.h>

#include <algorithm>

#include "asn1/writer.h"
#include "ocsp/ocsp.h"
#include "ocsp/responder.h"
#include "util/hex.h"
#include "util/rng.h"
#include "x509/name.h"

namespace rev::ocsp {
namespace {

constexpr util::Timestamp kNow = 1'412'208'000;  // 2014-10-02

crypto::KeyPair TestKey(std::string_view label) {
  return crypto::SimKeyFromLabel(label);
}

x509::Certificate MakeIssuerCert() {
  x509::TbsCertificate tbs;
  tbs.serial = x509::Serial{0x11};
  tbs.issuer = tbs.subject = x509::Name::Make("OCSP Test CA", "Test");
  tbs.not_before = 0;
  tbs.not_after = kNow + 10'000'000;
  tbs.public_key = TestKey("issuer").Public();
  tbs.basic_constraints = {true, -1};
  return x509::SignCertificate(tbs, TestKey("issuer"));
}

// The owned form of a parsed request, for comparing with what was encoded.
OcspRequest Owned(const RequestView& view) {
  OcspRequest out;
  for (const OcspRequestView& id : view) {
    out.cert_ids.push_back(
        {Bytes(id.issuer_name_hash.begin(), id.issuer_name_hash.end()),
         Bytes(id.issuer_key_hash.begin(), id.issuer_key_hash.end()),
         x509::Serial(id.serial.begin(), id.serial.end())});
  }
  out.nonce.assign(view.nonce().begin(), view.nonce().end());
  return out;
}

TEST(Ocsp, RequestRoundTrip) {
  const x509::Certificate issuer = MakeIssuerCert();
  OcspRequest request;
  request.cert_ids = {MakeCertId(issuer, x509::Serial{0xAA, 0xBB})};
  request.nonce = Bytes{1, 2, 3, 4};
  const Bytes der = EncodeOcspRequest(request);
  auto parsed = ParseOcspRequestView(der);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->size(), 1u);
  EXPECT_EQ(Owned(*parsed).cert_ids, request.cert_ids);
  EXPECT_EQ(Owned(*parsed).nonce, request.nonce);
  // A nonce makes it more than the single-cert shape.
  OcspRequestView single;
  EXPECT_FALSE(ParseSingleCertRequestView(der, &single));
}

TEST(Ocsp, RequestWithoutNonce) {
  const x509::Certificate issuer = MakeIssuerCert();
  OcspRequest request;
  request.cert_ids = {MakeCertId(issuer, x509::Serial{0x01})};
  const Bytes der = EncodeOcspRequest(request);
  auto parsed = ParseOcspRequestView(der);
  ASSERT_TRUE(parsed);
  EXPECT_TRUE(parsed->nonce().empty());

  OcspRequestView single;
  ASSERT_TRUE(ParseSingleCertRequestView(der, &single));
  EXPECT_TRUE(std::ranges::equal(single.issuer_key_hash,
                                 issuer.SubjectSpkiSha256()));
  EXPECT_TRUE(std::ranges::equal(single.serial, x509::Serial{0x01}));
}

TEST(Ocsp, MultiCertRequestIteratesInWireOrder) {
  const x509::Certificate issuer = MakeIssuerCert();
  OcspRequest request;
  request.cert_ids = {MakeCertId(issuer, x509::Serial{0x0B}),
                      MakeCertId(issuer, x509::Serial{0x0C}),
                      MakeCertId(issuer, x509::Serial{0x0A})};
  request.nonce = Bytes{9, 8, 7};
  const Bytes der = EncodeOcspRequest(request);
  auto parsed = ParseOcspRequestView(der);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->size(), 3u);
  EXPECT_TRUE(std::ranges::equal(parsed->front().serial, x509::Serial{0x0B}));
  EXPECT_EQ(Owned(*parsed).cert_ids, request.cert_ids);
  EXPECT_EQ(Owned(*parsed).nonce, request.nonce);
  OcspRequestView single;
  EXPECT_FALSE(ParseSingleCertRequestView(der, &single));
}

TEST(Ocsp, GetFormRoundTrip) {
  const x509::Certificate issuer = MakeIssuerCert();
  OcspRequest request;
  request.cert_ids = {MakeCertId(issuer, x509::Serial{0xAA, 0xBB, 0xCC})};
  const std::string path = OcspGetPath(request);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), '/');
  const auto der = util::Base64Decode(std::string_view(path).substr(1));
  ASSERT_TRUE(der);
  EXPECT_EQ(*der, EncodeOcspRequest(request));
  auto parsed = ParseOcspRequestView(*der);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(Owned(*parsed).cert_ids, request.cert_ids);
}

TEST(Ocsp, RequestRejectsGarbage) {
  EXPECT_FALSE(ParseOcspRequestView(Bytes{}));
  EXPECT_FALSE(ParseOcspRequestView(Bytes{0x30, 0x00}));
  EXPECT_FALSE(ParseOcspRequestView(ToBytes("ABC")));
}

TEST(Ocsp, CertIdHashesIssuer) {
  const x509::Certificate issuer = MakeIssuerCert();
  const CertId id = MakeCertId(issuer, x509::Serial{0x01});
  EXPECT_EQ(id.issuer_name_hash.size(), 32u);
  EXPECT_EQ(id.issuer_key_hash.size(), 32u);
  EXPECT_EQ(id.issuer_key_hash, issuer.SubjectSpkiSha256());
}

class OcspResponseTest : public ::testing::Test {
 protected:
  x509::Certificate issuer_ = MakeIssuerCert();
  crypto::KeyPair key_ = TestKey("issuer");
};

TEST_F(OcspResponseTest, GoodRoundTrip) {
  SingleResponse single;
  single.cert_id = MakeCertId(issuer_, x509::Serial{0x42});
  single.status = CertStatus::kGood;
  single.this_update = kNow;
  single.next_update = kNow + 4 * util::kSecondsPerDay;
  const OcspResponse response = SignOcspResponse(single, kNow, key_);

  auto parsed = ParseOcspResponse(response.der);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->status, ResponseStatus::kSuccessful);
  EXPECT_EQ(parsed->single.status, CertStatus::kGood);
  EXPECT_EQ(parsed->single.cert_id, single.cert_id);
  EXPECT_EQ(parsed->single.this_update, kNow);
  EXPECT_EQ(parsed->single.next_update, single.next_update);
  EXPECT_EQ(parsed->produced_at, kNow);
  EXPECT_TRUE(VerifyOcspSignature(*parsed, key_.Public()));
}

TEST_F(OcspResponseTest, RevokedRoundTrip) {
  SingleResponse single;
  single.cert_id = MakeCertId(issuer_, x509::Serial{0x43});
  single.status = CertStatus::kRevoked;
  single.revocation_time = kNow - 100'000;
  single.reason = x509::ReasonCode::kKeyCompromise;
  single.this_update = kNow;
  const OcspResponse response = SignOcspResponse(single, kNow, key_);

  auto parsed = ParseOcspResponse(response.der);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->single.status, CertStatus::kRevoked);
  EXPECT_EQ(parsed->single.revocation_time, single.revocation_time);
  EXPECT_EQ(parsed->single.reason, x509::ReasonCode::kKeyCompromise);
  EXPECT_EQ(parsed->single.next_update, 0);
}

TEST_F(OcspResponseTest, UnknownRoundTrip) {
  SingleResponse single;
  single.cert_id = MakeCertId(issuer_, x509::Serial{0x44});
  single.status = CertStatus::kUnknown;
  single.this_update = kNow;
  auto parsed = ParseOcspResponse(SignOcspResponse(single, kNow, key_).der);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->single.status, CertStatus::kUnknown);
}

TEST_F(OcspResponseTest, SignatureTamperRejected) {
  SingleResponse single;
  single.cert_id = MakeCertId(issuer_, x509::Serial{0x45});
  single.status = CertStatus::kGood;
  single.this_update = kNow;
  OcspResponse response = SignOcspResponse(single, kNow, key_);
  response.signature[3] ^= 1;
  EXPECT_FALSE(VerifyOcspSignature(response, key_.Public()));
  EXPECT_FALSE(VerifyOcspSignature(response, TestKey("wrong").Public()));
}

TEST_F(OcspResponseTest, ErrorResponses) {
  for (ResponseStatus status :
       {ResponseStatus::kMalformedRequest, ResponseStatus::kInternalError,
        ResponseStatus::kTryLater, ResponseStatus::kUnauthorized}) {
    const OcspResponse error = MakeErrorResponse(status);
    auto parsed = ParseOcspResponse(error.der);
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->status, status);
    EXPECT_FALSE(VerifyOcspSignature(*parsed, key_.Public()));
  }
}

TEST_F(OcspResponseTest, SmallWireSize) {
  // §5.2: an OCSP exchange is typically under 1 KB — a core advantage
  // over CRLs.
  SingleResponse single;
  single.cert_id = MakeCertId(issuer_, x509::Serial{0x46});
  single.status = CertStatus::kGood;
  single.this_update = kNow;
  single.next_update = kNow + 4 * util::kSecondsPerDay;
  const OcspResponse response = SignOcspResponse(single, kNow, key_);
  EXPECT_LT(response.der.size(), 1024u);
  OcspRequest request;
  request.cert_ids = {single.cert_id};
  EXPECT_LT(EncodeOcspRequest(request).size(), 1024u);
}

// The responseType OID is matched by its DER content octets: one arc more,
// or a non-minimal 0x80 octet before the last arc, is not id-pkix-ocsp-basic.
TEST_F(OcspResponseTest, ResponseTypeOidVariantsRejected) {
  SingleResponse single;
  single.cert_id = MakeCertId(issuer_, x509::Serial{0x78});
  single.status = CertStatus::kGood;
  single.this_update = kNow;
  const Bytes der = SignOcspResponse(single, kNow, key_).der;
  const Bytes& basic = asn1::oids::OcspBasic().content();
  const auto at = std::search(der.begin(), der.end(), basic.begin(),
                              basic.end());
  ASSERT_NE(at, der.end());
  const auto pos = static_cast<std::size_t>(at - der.begin());
  ASSERT_GE(pos, 2u);
  ASSERT_EQ(der[pos - 2], asn1::kTagOid);

  // Rebuilds the response with `oid` as the type's content octets; every
  // enclosing length grows by one, so re-encode the wrapper from parts.
  const auto with_type = [&](const Bytes& oid) {
    Bytes out;
    asn1::Writer w(out);
    const std::size_t outer = w.Begin(asn1::kTagSequence);
    w.Enumerated(0);
    const std::size_t wrapper = w.BeginContext(0);
    const std::size_t response_bytes = w.Begin(asn1::kTagSequence);
    w.Tlv(asn1::kTagOid, oid);
    out.insert(out.end(),
               der.begin() + static_cast<std::ptrdiff_t>(pos + basic.size()),
               der.end());  // the response OCTET STRING, as signed
    w.End(response_bytes);
    w.End(wrapper);
    w.End(outer);
    return out;
  };
  ASSERT_TRUE(ParseOcspResponse(with_type(basic)));

  Bytes longer = basic;
  longer.push_back(0x01);
  Bytes padded = basic;
  padded.insert(padded.end() - 1, 0x80);
  EXPECT_FALSE(ParseOcspResponse(with_type(longer)));
  EXPECT_FALSE(ParseOcspResponse(with_type(padded)));
}

// ----------------------------------------------------------- responder ----

class ResponderTest : public ::testing::Test {
 protected:
  ResponderTest()
      : issuer_(MakeIssuerCert()),
        responder_(issuer_, TestKey("issuer"), 4 * util::kSecondsPerDay) {}

  // Requests are answered by serve::Frontend (serve_test); the database
  // is read here the way the frontend and stapling read it.
  Bytes Query(const x509::Serial& serial) {
    return responder_.StatusFor(serial, kNow).der;
  }

  x509::Certificate issuer_;
  Responder responder_;
};

TEST_F(ResponderTest, GoodForRegistered) {
  responder_.AddCertificate(x509::Serial{0x01});
  auto parsed = ParseOcspResponse(Query(x509::Serial{0x01}));
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->single.status, CertStatus::kGood);
  EXPECT_EQ(parsed->single.next_update, kNow + 4 * util::kSecondsPerDay);
  EXPECT_TRUE(VerifyOcspSignature(*parsed, TestKey("issuer").Public()));
}

TEST_F(ResponderTest, UnknownForUnregistered) {
  auto parsed = ParseOcspResponse(Query(x509::Serial{0x99}));
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->single.status, CertStatus::kUnknown);
}

TEST_F(ResponderTest, RevokedAfterRevoke) {
  responder_.AddCertificate(x509::Serial{0x02});
  responder_.Revoke(x509::Serial{0x02}, kNow - 500,
                    x509::ReasonCode::kCaCompromise);
  auto parsed = ParseOcspResponse(Query(x509::Serial{0x02}));
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->single.status, CertStatus::kRevoked);
  EXPECT_EQ(parsed->single.revocation_time, kNow - 500);
  EXPECT_EQ(parsed->single.reason, x509::ReasonCode::kCaCompromise);
}

TEST_F(ResponderTest, RemoveYieldsUnknown) {
  responder_.AddCertificate(x509::Serial{0x03});
  responder_.Remove(x509::Serial{0x03});
  auto parsed = ParseOcspResponse(Query(x509::Serial{0x03}));
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->single.status, CertStatus::kUnknown);
}

TEST_F(ResponderTest, StatusForStapling) {
  responder_.AddCertificate(x509::Serial{0x05});
  const OcspResponse staple = responder_.StatusFor(x509::Serial{0x05}, kNow);
  EXPECT_EQ(staple.status, ResponseStatus::kSuccessful);
  EXPECT_EQ(staple.single.status, CertStatus::kGood);
  auto parsed = ParseOcspResponse(staple.der);
  ASSERT_TRUE(parsed);
  EXPECT_TRUE(VerifyOcspSignature(*parsed, TestKey("issuer").Public()));
}

TEST_F(ResponderTest, RevokeIsIdempotentInResponder) {
  responder_.AddCertificate(x509::Serial{0x06});
  responder_.Revoke(x509::Serial{0x06}, kNow - 100, x509::ReasonCode::kUnspecified);
  responder_.Revoke(x509::Serial{0x06}, kNow - 50, x509::ReasonCode::kSuperseded);
  auto parsed = ParseOcspResponse(Query(x509::Serial{0x06}));
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->single.status, CertStatus::kRevoked);
}

}  // namespace
}  // namespace rev::ocsp
