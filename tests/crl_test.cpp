// CRL tests: round-trips through the view parse, signatures, entry
// semantics, lookups, and size behavior (the ~38 bytes/entry linearity of
// Fig. 5).
#include <gtest/gtest.h>

#include "asn1/reader.h"
#include "crl/crl.h"
#include "der_reference.h"
#include "util/rng.h"
#include "util/stats.h"

namespace rev::crl {
namespace {

constexpr util::Timestamp kNow = 1'400'000'000;

Bytes Own(BytesView view) { return Bytes(view.begin(), view.end()); }

crypto::KeyPair TestKey(std::string_view label) {
  return crypto::SimKeyFromLabel(label);
}

x509::Serial RandomSerial(util::Rng& rng, int len) {
  x509::Serial s(static_cast<std::size_t>(len));
  rng.Fill(s.data(), s.size());
  if (s[0] == 0) s[0] = 1;
  return s;
}

TbsCrl MakeTbs(std::size_t entries, util::Rng& rng, int serial_len = 16) {
  TbsCrl tbs;
  tbs.issuer = x509::Name::Make("CRL Test CA", "Test");
  tbs.this_update = kNow;
  tbs.next_update = kNow + util::kSecondsPerDay;
  tbs.crl_number = 7;
  for (std::size_t i = 0; i < entries; ++i) {
    CrlEntry entry;
    entry.serial = RandomSerial(rng, serial_len);
    entry.revocation_date = kNow - static_cast<util::Timestamp>(rng.NextBelow(10'000'000));
    entry.reason = (i % 3 == 0) ? x509::ReasonCode::kKeyCompromise
                                : x509::ReasonCode::kNoReasonCode;
    tbs.entries.push_back(std::move(entry));
  }
  return tbs;
}

TEST(Crl, SignParseRoundTrip) {
  util::Rng rng(1);
  const crypto::KeyPair key = TestKey("crlca");
  const Crl crl = SignCrl(MakeTbs(10, rng), key);

  const auto parsed = ParseCrlView(crl.der);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(Own(parsed->issuer_der), crl.tbs.issuer.Encode());
  EXPECT_EQ(parsed->this_update, crl.tbs.this_update);
  EXPECT_EQ(parsed->next_update, crl.tbs.next_update);
  EXPECT_EQ(parsed->crl_number, 7);
  EXPECT_EQ(parsed->sig_type, key.type);
  EXPECT_EQ(parsed->der.data(), crl.der.data());  // a view, not a copy
  ASSERT_EQ(parsed->num_entries, 10u);
  std::size_t i = 0;
  for (const CrlEntryView& entry : parsed->entries) {
    ASSERT_LT(i, crl.tbs.entries.size());
    EXPECT_EQ(Own(entry.serial), crl.tbs.entries[i].serial);
    EXPECT_EQ(entry.revocation_date, crl.tbs.entries[i].revocation_date);
    EXPECT_EQ(entry.reason, crl.tbs.entries[i].reason);
    ++i;
  }
  EXPECT_EQ(i, 10u);
}

TEST(Crl, EmptyCrl) {
  util::Rng rng(2);
  const Crl crl = SignCrl(MakeTbs(0, rng), TestKey("k"));
  const auto parsed = ParseCrlView(crl.der);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->num_entries, 0u);
  EXPECT_TRUE(parsed->entries.begin() == parsed->entries.end());
  EXPECT_FALSE(parsed->Find(x509::Serial{1, 2, 3}));
  // Tiny CRLs are well under 900 bytes (the raw-median observation, §5.2).
  EXPECT_LT(crl.SizeBytes(), 900u);
}

TEST(Crl, OptionalFieldsOmitted) {
  util::Rng rng(3);
  TbsCrl tbs = MakeTbs(1, rng);
  tbs.next_update = 0;
  tbs.crl_number = -1;
  const Crl crl = SignCrl(tbs, TestKey("k"));
  const auto parsed = ParseCrlView(crl.der);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->next_update, 0);
  EXPECT_EQ(parsed->crl_number, -1);
}

TEST(Crl, SignatureVerification) {
  util::Rng rng(4);
  const crypto::KeyPair key = TestKey("signer");
  const Crl crl = SignCrl(MakeTbs(5, rng), key);
  const auto parsed = ParseCrlView(crl.der);
  ASSERT_TRUE(parsed);
  EXPECT_TRUE(VerifyCrlSignature(*parsed, key.Public()));
  EXPECT_FALSE(VerifyCrlSignature(*parsed, TestKey("other").Public()));
}

TEST(Crl, TamperedEntryFailsSignature) {
  util::Rng rng(5);
  const crypto::KeyPair key = TestKey("signer2");
  Crl crl = SignCrl(MakeTbs(5, rng), key);
  Bytes tampered = crl.der;
  tampered[40] ^= 0xFF;
  const auto parsed = ParseCrlView(tampered);
  if (parsed) {
    EXPECT_FALSE(VerifyCrlSignature(*parsed, key.Public()));
  }
}

TEST(Crl, Expiry) {
  util::Rng rng(6);
  const Crl crl = SignCrl(MakeTbs(1, rng), TestKey("k"));
  EXPECT_FALSE(crl.IsExpired(kNow));
  EXPECT_FALSE(crl.IsExpired(kNow + util::kSecondsPerDay));
  EXPECT_TRUE(crl.IsExpired(kNow + util::kSecondsPerDay + 1));
}

TEST(Crl, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseCrlView(Bytes{}));
  EXPECT_FALSE(ParseCrlView(Bytes{0x30, 0x01, 0x00}));
  util::Rng rng(7);
  Bytes der = SignCrl(MakeTbs(3, rng), TestKey("k")).der;
  der.resize(der.size() - 10);
  EXPECT_FALSE(ParseCrlView(der));
}

// A NULL appended inside the outer AlgorithmIdentifier lies outside the
// signed TBS, where no signature check can catch it: the parse must reject
// it.
TEST(Crl, ParseRejectsBytesAfterTheOuterAlgorithm) {
  util::Rng rng(13);
  const Crl crl = SignCrl(MakeTbs(0, rng), TestKey("k"));
  asn1::Reader top(crl.der), seq;
  BytesView tbs, alg, signature;
  ASSERT_TRUE(top.ReadSequence(&seq) && seq.ReadRawTlv(&tbs) &&
              seq.ReadTagged(asn1::kTagSequence, &alg) &&
              seq.ReadRawTlv(&signature));
  namespace der = reference::asn1;
  const Bytes padded = der::EncodeSequence(
      {Own(tbs), der::EncodeSequence({Own(alg), der::EncodeNull()}),
       Own(signature)});
  EXPECT_EQ(padded.size(), crl.der.size() + 2);
  EXPECT_FALSE(ParseCrlView(padded));
}

// The parse fails closed on extensions (RFC 5280 §4.2, §5.2, §5.3): an
// unrecognised critical extension, in crlExtensions or in an entry, and a
// repeated CRLNumber or entry CRLReason reject the CRL; an unrecognised
// non-critical one is passed over, and a recognised one may be critical.
TEST(Crl, ParseFailsClosedOnExtensions) {
  namespace der = reference::asn1;
  namespace ref509 = reference::x509;
  const asn1::Oid unknown{1, 3, 6, 1, 4, 1, 99999, 9};
  const ref509::Extension number = ref509::MakeCrlNumber(7);
  const ref509::Extension reason =
      ref509::MakeCrlReason(x509::ReasonCode::kKeyCompromise);
  const auto critical = [](ref509::Extension ext) {
    ext.critical = true;
    return ext;
  };
  const ref509::Extension other{unknown, false, der::EncodeNull()};
  struct Row {
    const char* deviation;
    std::vector<ref509::Extension> crl_extensions;
    std::vector<ref509::Extension> entry_extensions;
    bool accepts;
  };
  const Row rows[] = {
      {"a CRL number and a reason", {number}, {reason}, true},
      {"an unknown CRL extension", {number, other}, {reason}, true},
      {"an unknown entry extension", {number}, {other, reason}, true},
      {"a critical CRL number", {critical(number)}, {reason}, true},
      {"a critical reason", {number}, {critical(reason)}, true},
      {"an unknown critical CRL extension",
       {number, critical(other)}, {reason}, false},
      {"an unknown critical CRL extension alone", {critical(other)}, {},
       false},
      {"an unknown critical entry extension",
       {number}, {reason, critical(other)}, false},
      {"an unknown critical entry extension alone", {number},
       {critical(other)}, false},
      {"two CRL numbers", {number, ref509::MakeCrlNumber(9)}, {reason}, false},
      {"two reasons in one entry", {number}, {reason, reason}, false},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.deviation);
    std::vector<Bytes> entry{der::EncodeIntegerUnsigned(Bytes{0x2A}),
                             der::EncodeTime(kNow - 1000)};
    if (!row.entry_extensions.empty())
      entry.push_back(ref509::EncodeExtensionList(row.entry_extensions));
    std::vector<Bytes> tbs{
        der::EncodeInteger(1),
        ref509::EncodeSignatureAlgorithm(crypto::KeyType::kSimSha256),
        ref509::EncodeName(x509::Name::Make("Critical CA", "C")),
        der::EncodeTime(kNow),
        der::EncodeSequence({der::EncodeSequence(entry)})};
    if (!row.crl_extensions.empty())
      tbs.push_back(der::EncodeContextExplicit(
          0, ref509::EncodeExtensionList(row.crl_extensions)));
    const Bytes crl = der::EncodeSequence(
        {der::EncodeSequence(tbs),
         ref509::EncodeSignatureAlgorithm(crypto::KeyType::kSimSha256),
         der::EncodeBitString(Bytes(32, 0x5A))});
    const std::optional<CrlView> view = ParseCrlView(crl);
    ASSERT_EQ(view.has_value(), row.accepts);
    if (!view) continue;
    const std::optional<CrlEntryView> found = view->Find(Bytes{0x2A});
    ASSERT_TRUE(found);
    EXPECT_EQ(found->reason, row.entry_extensions.empty()
                                 ? x509::ReasonCode::kNoReasonCode
                                 : x509::ReasonCode::kKeyCompromise);
    EXPECT_EQ(view->crl_number, 7);
  }
}

TEST(Crl, DescribeRendering) {
  util::Rng rng(12);
  const Crl crl = SignCrl(MakeTbs(25, rng), TestKey("k"));
  const std::string text = DescribeCrl(*ParseCrlView(crl.der), 5);
  EXPECT_NE(text.find("CRL Test CA"), std::string::npos);
  EXPECT_NE(text.find("entries     : 25"), std::string::npos);
  EXPECT_NE(text.find("... 20 more"), std::string::npos);
}

TEST(CrlView, FindSemantics) {
  util::Rng rng(8);
  const Crl crl = SignCrl(MakeTbs(100, rng), TestKey("k"));
  const auto view = ParseCrlView(crl.der);
  ASSERT_TRUE(view);
  EXPECT_EQ(view->num_entries, 100u);
  for (const CrlEntry& entry : crl.tbs.entries) {
    const auto found = view->Find(entry.serial);
    ASSERT_TRUE(found);
    EXPECT_EQ(Own(found->serial), entry.serial);
    EXPECT_EQ(found->revocation_date, entry.revocation_date);
    EXPECT_EQ(found->reason, entry.reason);
  }
  EXPECT_FALSE(view->Find(RandomSerial(rng, 16)));
  EXPECT_FALSE(view->Find(x509::Serial{}));
}

// Fig. 5 property: size grows linearly with entries, ~tens of bytes each.
TEST(Crl, SizeLinearInEntries) {
  util::Rng rng(9);
  std::vector<double> xs, ys;
  for (std::size_t n : {10u, 100u, 500u, 1000u, 5000u}) {
    const Crl crl = SignCrl(MakeTbs(n, rng), TestKey("k"));
    xs.push_back(static_cast<double>(n));
    ys.push_back(static_cast<double>(crl.SizeBytes()));
  }
  const util::LinearFit fit = util::FitLine(xs, ys);
  EXPECT_GT(fit.r, 0.999);
  // Our 16-byte serials + times + occasional reason put each entry in the
  // same ballpark as the paper's 38-byte average.
  EXPECT_GT(fit.slope, 25.0);
  EXPECT_LT(fit.slope, 60.0);
}

// Serial-length policy shifts per-entry size (the Fig. 5 variance).
TEST(Crl, SerialLengthAffectsSize) {
  util::Rng rng(10);
  const Crl small = SignCrl(MakeTbs(1000, rng, 8), TestKey("k"));
  const Crl large = SignCrl(MakeTbs(1000, rng, 21), TestKey("k"));
  EXPECT_GT(large.SizeBytes(), small.SizeBytes() + 10'000u);
}

TEST(Crl, LargeCrlRoundTrip) {
  util::Rng rng(11);
  const Crl crl = SignCrl(MakeTbs(20'000, rng), TestKey("k"));
  const auto parsed = ParseCrlView(crl.der);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->num_entries, 20'000u);
  EXPECT_GT(crl.SizeBytes(), 500'000u);
}

}  // namespace
}  // namespace rev::crl
