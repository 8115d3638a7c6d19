// DER encode/decode tests: known encodings, the writer's length
// back-patching and its refusals (high tag numbers, five-digit years),
// round-trip properties, and strictness (rejection of
// non-minimal/truncated forms).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "asn1/oid.h"
#include "asn1/reader.h"
#include "asn1/writer.h"
#include "util/hex.h"
#include "util/rng.h"

namespace rev::asn1 {
namespace {

using util::HexEncode;

// ------------------------------------------------------------- writer ----

// One primitive written through the Writer, as its own bytes.
Bytes IntegerDer(std::int64_t v) {
  return Encode([v](Writer& w) { w.Integer(v); });
}
Bytes UnsignedDer(const Bytes& magnitude) {
  return Encode([&magnitude](Writer& w) { w.IntegerUnsigned(magnitude); });
}
Bytes TimeDer(util::Timestamp ts) {
  return Encode([ts](Writer& w) { w.Time(ts); });
}

TEST(Writer, KnownIntegerEncodings) {
  EXPECT_EQ(HexEncode(IntegerDer(0)), "020100");
  EXPECT_EQ(HexEncode(IntegerDer(1)), "020101");
  EXPECT_EQ(HexEncode(IntegerDer(127)), "02017f");
  EXPECT_EQ(HexEncode(IntegerDer(128)), "02020080");
  EXPECT_EQ(HexEncode(IntegerDer(256)), "02020100");
  EXPECT_EQ(HexEncode(IntegerDer(-1)), "0201ff");
  EXPECT_EQ(HexEncode(IntegerDer(-128)), "020180");
  EXPECT_EQ(HexEncode(IntegerDer(-129)), "0202ff7f");
  EXPECT_EQ(HexEncode(IntegerDer(INT64_MAX)), "02087fffffffffffffff");
  EXPECT_EQ(HexEncode(IntegerDer(INT64_MIN)), "02088000000000000000");
  EXPECT_EQ(HexEncode(Encode([](Writer& w) { w.Enumerated(4); })), "0a0104");
}

TEST(Writer, KnownBoolean) {
  EXPECT_EQ(HexEncode(Encode([](Writer& w) { w.Boolean(true); })), "0101ff");
  EXPECT_EQ(HexEncode(Encode([](Writer& w) { w.Boolean(false); })), "010100");
}

TEST(Writer, KnownNull) {
  EXPECT_EQ(HexEncode(Encode([](Writer& w) { w.Null(); })), "0500");
}

TEST(Writer, KnownOid) {
  // sha256WithRSAEncryption = 1.2.840.113549.1.1.11
  EXPECT_EQ(HexEncode(Encode([](Writer& w) {
              w.ObjectId(oids::Sha256WithRsa());
            })),
            "06092a864886f70d01010b");
}

TEST(Writer, LongFormLength) {
  const Bytes tlv =
      Encode([](Writer& w) { w.OctetString(Bytes(200, 0xAB)); });
  EXPECT_EQ(tlv[0], 0x04);
  EXPECT_EQ(tlv[1], 0x81);  // long form, 1 length byte
  EXPECT_EQ(tlv[2], 200);
  EXPECT_EQ(tlv.size(), 203u);

  const Bytes big_tlv =
      Encode([](Writer& w) { w.OctetString(Bytes(70000, 0x00)); });
  EXPECT_EQ(HexEncode(BytesView(big_tlv).first(5)), "0483011170");
  EXPECT_EQ(big_tlv.size(), 70005u);
}

// Begin/End back-patches the same header Tlv writes when the length is
// known up front, on both sides of every length-octet boundary, with the
// content intact after the move.
TEST(Writer, BeginEndMatchesTlvAcrossLengthBoundaries) {
  for (const std::size_t n :
       {0u, 1u, 127u, 128u, 255u, 256u, 65535u, 65536u, 70000u}) {
    Bytes content(n);
    for (std::size_t i = 0; i < n; ++i)
      content[i] = static_cast<std::uint8_t>(i * 7 + 1);
    const Bytes whole =
        Encode([&](Writer& w) { w.Tlv(kTagSequence, content); });
    Bytes out{0xEE};  // a byte already in the buffer stays in front
    Writer w(out);
    const std::size_t seq = w.Begin(kTagSequence);
    out.insert(out.end(), content.begin(), content.end());
    w.End(seq);
    ASSERT_EQ(out.size(), whole.size() + 1) << n;
    EXPECT_EQ(out[0], 0xEE);
    EXPECT_TRUE(std::equal(whole.begin(), whole.end(), out.begin() + 1)) << n;
  }
}

TEST(Writer, NestedEndsPatchInnermostFirst) {
  // SEQUENCE { [0] { OCTET STRING (300 bytes) }, NULL }: the inner End
  // moves 303 bytes, the outer then moves everything after its own header.
  const Bytes der = Encode([](Writer& w) {
    const std::size_t outer = w.Begin(kTagSequence);
    const std::size_t tagged = w.BeginContext(0);
    w.OctetString(Bytes(300, 0x5A));
    w.End(tagged);
    w.Null();
    w.End(outer);
  });
  EXPECT_EQ(HexEncode(BytesView(der).first(14)),
            "30820136a08201300482012c5a5a");
  EXPECT_EQ(der.size(), 4u + 4u + 4u + 300u + 2u);
  EXPECT_EQ(HexEncode(BytesView(der).last(2)), "0500");
}

TEST(Writer, IntegerUnsignedPadding) {
  // High bit set => 0x00 prepended.
  EXPECT_EQ(HexEncode(UnsignedDer(Bytes{0x80})), "02020080");
  EXPECT_EQ(HexEncode(UnsignedDer(Bytes{0x7F})), "02017f");
  // Leading zeros stripped.
  EXPECT_EQ(HexEncode(UnsignedDer(Bytes{0x00, 0x00, 0x12})), "020112");
  EXPECT_EQ(HexEncode(UnsignedDer(Bytes{0x00, 0x80})), "02020080");
  // Zero encodes as one byte.
  EXPECT_EQ(HexEncode(UnsignedDer(Bytes{})), "020100");
  EXPECT_EQ(HexEncode(UnsignedDer(Bytes{0x00})), "020100");
  EXPECT_EQ(HexEncode(UnsignedDer(Bytes{0x00, 0x00, 0x00})), "020100");
}

TEST(Writer, TimeChoosesUtcVsGeneralized) {
  // 2014 => UTCTime (tag 0x17); 2050 => GeneralizedTime (tag 0x18).
  EXPECT_EQ(HexEncode(TimeDer(util::MakeDate(2014, 4, 8) + 3723)),
            "170d3134303430383031303230335a");  // 140408010203Z
  EXPECT_EQ(TimeDer(util::MakeDate(2050, 1, 1))[0], 0x18);
  EXPECT_EQ(TimeDer(util::MakeDate(1949, 12, 31))[0], 0x18);
  EXPECT_EQ(TimeDer(util::MakeDate(1950, 1, 1))[0], 0x17);
  EXPECT_EQ(HexEncode(Encode([](Writer& w) {
              w.GeneralizedTime(util::MakeDate(2014, 4, 8));
            })),
            "180f32303134303430383030303030305a");  // 20140408000000Z
}

// Years 0000 and 9999 are the ends of GeneralizedTime's four digits; both
// must read back exactly, and one second past either end must throw
// instead of emitting a year the reader rejects.
TEST(Writer, TimeBoundaryYearsRoundTripAndBeyondThrows) {
  EXPECT_EQ(util::ToCivil(kMinDerTime),
            (util::CivilTime{0, 1, 1, 0, 0, 0}));
  EXPECT_EQ(util::ToCivil(kMaxDerTime),
            (util::CivilTime{9999, 12, 31, 23, 59, 59}));
  for (const util::Timestamp ts : {kMinDerTime, kMaxDerTime}) {
    for (const bool generalized : {false, true}) {
      const Bytes der = Encode([&](Writer& w) {
        generalized ? w.GeneralizedTime(ts) : w.Time(ts);
      });
      EXPECT_EQ(der[0], kTagGeneralizedTime);
      Reader r{BytesView(der)};
      util::Timestamp decoded = 0;
      ASSERT_TRUE(r.ReadTime(&decoded)) << ts;
      EXPECT_EQ(decoded, ts);
    }
  }
  for (const util::Timestamp ts :
       {kMinDerTime - 1, kMaxDerTime + 1,
        std::numeric_limits<util::Timestamp>::min(),
        std::numeric_limits<util::Timestamp>::max()}) {
    Bytes out;
    Writer w(out);
    EXPECT_THROW(w.Time(ts), std::out_of_range) << ts;
    EXPECT_THROW(w.GeneralizedTime(ts), std::out_of_range) << ts;
    EXPECT_TRUE(out.empty());
  }
}

TEST(Writer, ContextTags) {
  EXPECT_EQ(ContextTag(0, false), 0x80);
  EXPECT_EQ(ContextTag(0, true), 0xA0);
  EXPECT_EQ(ContextTag(3, true), 0xA3);
  EXPECT_EQ(ContextTag(6, false), 0x86);
  EXPECT_EQ(ContextTag(30, true), 0xBE);
}

// Tag numbers from 31 up need the high-tag-number form; OR-ing them into
// one byte would set the constructed or class bits (32 -> 0xA0 | ...), so
// they throw in every build type, not just under assert.
TEST(Writer, ContextTagRejectsHighTagNumbers) {
  for (const unsigned n : {31u, 32u, 33u, 64u, 1000u}) {
    EXPECT_THROW(ContextTag(n, false), std::out_of_range) << n;
    EXPECT_THROW(ContextTag(n, true), std::out_of_range) << n;
    Bytes out;
    Writer w(out);
    EXPECT_THROW(w.BeginContext(n), std::out_of_range) << n;
    EXPECT_THROW(w.ContextPrimitive(n, {}), std::out_of_range) << n;
    EXPECT_TRUE(out.empty());
  }
}

// ---------------------------------------------------------------- oid ----

TEST(Oid, ParseAndToString) {
  auto oid = Oid::Parse("1.2.840.113549.1.1.11");
  ASSERT_TRUE(oid);
  EXPECT_EQ(*oid, oids::Sha256WithRsa());
  EXPECT_EQ(oid->ToString(), "1.2.840.113549.1.1.11");
}

TEST(Oid, ParseRejectsMalformed) {
  EXPECT_FALSE(Oid::Parse(""));
  EXPECT_FALSE(Oid::Parse("1"));
  EXPECT_FALSE(Oid::Parse("1..2"));
  EXPECT_FALSE(Oid::Parse("1.2."));
  EXPECT_FALSE(Oid::Parse(".1.2"));
  EXPECT_FALSE(Oid::Parse("3.1"));    // first component > 2
  EXPECT_FALSE(Oid::Parse("1.40"));   // second >= 40 under arc 1
  EXPECT_FALSE(Oid::Parse("1.2.x"));
}

TEST(Oid, ContentIsTheDerContentOctets) {
  EXPECT_EQ(oids::Sha256WithRsa().content(),
            (Bytes{0x2A, 0x86, 0x48, 0x86, 0xF7, 0x0D, 0x01, 0x01, 0x0B}));
  EXPECT_EQ(oids::BasicConstraints().content(), (Bytes{0x55, 0x1D, 0x13}));
  EXPECT_EQ(Oid::Parse("2.999.1")->content(), (Bytes{0x88, 0x37, 0x01}));
  EXPECT_EQ(Oid{}.content(), Bytes{});
}

TEST(Oid, ContentRoundTrip) {
  for (const char* s : {"1.2.840.113549.1.1.11", "2.5.29.31", "0.9.2342",
                        "2.16.840.1.113733.1.7.23.6", "1.3.6.1.4.1.55555.1.1",
                        "2.999.1", "0.0", "1.39.4294967295"}) {
    auto oid = Oid::Parse(s);
    ASSERT_TRUE(oid) << s;
    auto decoded = Oid::DecodeContent(oid->content());
    ASSERT_TRUE(decoded) << s;
    EXPECT_EQ(*decoded, *oid) << s;
    EXPECT_EQ(decoded->content(), oid->content()) << s;
    EXPECT_EQ(decoded->ToString(), s);
  }
}

TEST(Oid, DecodeRejectsNonMinimal) {
  // 0x80 leading continuation octet is forbidden.
  EXPECT_FALSE(Oid::DecodeContent(Bytes{0x2A, 0x80, 0x01}));
  // Truncated multi-byte component.
  EXPECT_FALSE(Oid::DecodeContent(Bytes{0x2A, 0x86}));
  // Empty.
  EXPECT_FALSE(Oid::DecodeContent(Bytes{}));
  // A subidentifier past 32 bits.
  EXPECT_FALSE(Oid::DecodeContent(Bytes{0x2A, 0x90, 0x80, 0x80, 0x80, 0x00}));
  for (const Bytes& bad :
       {Bytes{0x2A, 0x80, 0x01}, Bytes{0x2A, 0x86}, Bytes{}})
    EXPECT_FALSE(Oid::IsValidContent(bad));
  EXPECT_TRUE(Oid::IsValidContent(oids::AdOcsp().content()));
}

// ------------------------------------------------------------- reader ----

TEST(Reader, ReadTaggedSequence) {
  const Bytes der = Encode([](Writer& w) {
    const std::size_t seq = w.Begin(kTagSequence);
    w.Integer(42);
    w.Boolean(true);
    w.End(seq);
  });
  Reader r{BytesView(der)};
  Reader seq;
  ASSERT_TRUE(r.ReadSequence(&seq));
  EXPECT_TRUE(r.Empty());
  std::int64_t v;
  bool b;
  ASSERT_TRUE(seq.ReadInteger(&v));
  ASSERT_TRUE(seq.ReadBoolean(&b));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(b);
  EXPECT_TRUE(seq.Empty());
}

TEST(Reader, IntegerRoundTripProperty) {
  util::Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    const std::int64_t v = static_cast<std::int64_t>(rng.Next()) >>
                           rng.NextBelow(64);
    const Bytes der = IntegerDer(v);
    Reader r{BytesView(der)};
    std::int64_t decoded;
    ASSERT_TRUE(r.ReadInteger(&decoded));
    EXPECT_EQ(decoded, v);
  }
}

TEST(Reader, IntegerUnsignedRoundTrip) {
  util::Rng rng(2);
  for (int len : {1, 2, 8, 20, 49}) {
    Bytes magnitude(static_cast<std::size_t>(len));
    rng.Fill(magnitude.data(), magnitude.size());
    if (magnitude[0] == 0) magnitude[0] = 0x7F;
    const Bytes der = UnsignedDer(magnitude);
    Reader r{BytesView(der)};
    Bytes decoded;
    ASSERT_TRUE(r.ReadIntegerUnsigned(&decoded));
    EXPECT_EQ(decoded, magnitude);
  }
}

TEST(Reader, RejectsNegativeForUnsigned) {
  const Bytes der = IntegerDer(-5);
  Reader r{BytesView(der)};
  Bytes decoded;
  EXPECT_FALSE(r.ReadIntegerUnsigned(&decoded));
}

TEST(Reader, RejectsNonMinimalInteger) {
  // 0x00 0x01 is a non-minimal encoding of 1.
  const Bytes bad = {0x02, 0x02, 0x00, 0x01};
  Reader r{BytesView(bad)};
  std::int64_t v;
  EXPECT_FALSE(r.ReadInteger(&v));
  // 0xFF 0xFF is a non-minimal encoding of -1.
  const Bytes bad2 = {0x02, 0x02, 0xFF, 0xFF};
  Reader r2{BytesView(bad2)};
  EXPECT_FALSE(r2.ReadInteger(&v));
}

TEST(Reader, RejectsNonMinimalLength) {
  // Long-form length for a value that fits short form.
  const Bytes bad = {0x04, 0x81, 0x03, 0x01, 0x02, 0x03};
  Reader r{BytesView(bad)};
  BytesView content;
  EXPECT_FALSE(r.ReadOctetString(&content));
}

TEST(Reader, RejectsTruncated) {
  const Bytes der =
      Encode([](Writer& w) { w.OctetString(Bytes(100, 0x42)); });
  for (std::size_t cut : {1u, 2u, 50u, 101u}) {
    Reader r{BytesView(der.data(), der.size() - cut)};
    BytesView content;
    EXPECT_FALSE(r.ReadOctetString(&content)) << "cut " << cut;
  }
}

TEST(Reader, RejectsBadBooleanContent) {
  const Bytes bad = {0x01, 0x01, 0x42};  // DER requires 0x00 or 0xFF
  Reader r{BytesView(bad)};
  bool b;
  EXPECT_FALSE(r.ReadBoolean(&b));
}

TEST(Reader, BitStringUnusedBits) {
  const Bytes content = {0xAB, 0xCD};
  const Bytes der =
      Encode([&content](Writer& w) { w.BitString(content, 4); });
  Reader r{BytesView(der)};
  BytesView decoded;
  unsigned unused = 0;
  ASSERT_TRUE(r.ReadBitString(&decoded, &unused));
  EXPECT_EQ(unused, 4u);
  EXPECT_EQ(Bytes(decoded.begin(), decoded.end()), content);
  // Unused bits > 7 rejected.
  const Bytes bad = {0x03, 0x02, 0x08, 0xFF};
  Reader r2{BytesView(bad)};
  EXPECT_FALSE(r2.ReadBitString(&decoded, &unused));
}

TEST(Reader, TimeRoundTrip) {
  for (util::Timestamp ts :
       {util::MakeDate(1970, 1, 1), util::MakeDate(2014, 4, 8) + 8000,
        util::MakeDate(2049, 12, 31), util::MakeDate(2050, 1, 1),
        util::MakeDate(2099, 6, 15) + 12345}) {
    const Bytes der = TimeDer(ts);
    Reader r{BytesView(der)};
    util::Timestamp decoded;
    ASSERT_TRUE(r.ReadTime(&decoded)) << ts;
    EXPECT_EQ(decoded, ts);
  }
}

TEST(Reader, UtcTimeSlidingWindow) {
  // 490101000000Z -> 2049; 500101000000Z -> 1950.
  const Bytes y49 = Encode(
      [](Writer& w) { w.Tlv(kTagUtcTime, AsBytes("490101000000Z")); });
  const Bytes y50 = Encode(
      [](Writer& w) { w.Tlv(kTagUtcTime, AsBytes("500101000000Z")); });
  Reader r1{BytesView(y49)}, r2{BytesView(y50)};
  util::Timestamp t1, t2;
  ASSERT_TRUE(r1.ReadTime(&t1));
  ASSERT_TRUE(r2.ReadTime(&t2));
  EXPECT_EQ(util::ToCivil(t1).year, 2049);
  EXPECT_EQ(util::ToCivil(t2).year, 1950);
}

TEST(Reader, RejectsBadTime) {
  for (const char* bad : {"990231000000Z",  // Feb 31
                          "991301000000Z",  // month 13
                          "990101250000Z",  // hour 25
                          "990101000000",   // missing Z
                          "9901010000Z"}) { // too short
    const Bytes der =
        Encode([bad](Writer& w) { w.Tlv(kTagUtcTime, AsBytes(bad)); });
    Reader r{BytesView(der)};
    util::Timestamp ts;
    EXPECT_FALSE(r.ReadTime(&ts)) << bad;
  }
}

TEST(Reader, ContextTags) {
  const Bytes explicit_tag = Encode([](Writer& w) {
    const std::size_t tagged = w.BeginContext(3);
    w.Integer(7);
    w.End(tagged);
  });
  Reader r{BytesView(explicit_tag)};
  EXPECT_TRUE(r.NextIsContext(3));
  EXPECT_FALSE(r.NextIsContext(2));
  Reader content;
  ASSERT_TRUE(r.ReadContextExplicit(3, &content));
  std::int64_t v;
  ASSERT_TRUE(content.ReadInteger(&v));
  EXPECT_EQ(v, 7);

  const Bytes primitive = Encode(
      [](Writer& w) { w.ContextPrimitive(6, AsBytes("http://x/")); });
  Reader r2{BytesView(primitive)};
  BytesView uri;
  ASSERT_TRUE(r2.ReadContextPrimitive(6, &uri));
  EXPECT_EQ(ToString(uri), "http://x/");
}

TEST(Reader, ReadRawTlvPreservesBytes) {
  Bytes wrapper;
  Writer w(wrapper);
  const std::size_t outer_seq = w.Begin(kTagSequence);
  const std::size_t seq_start = w.size();
  const std::size_t inner_seq = w.Begin(kTagSequence);
  w.Integer(1);
  w.Null();
  w.End(inner_seq);
  const Bytes seq(wrapper.begin() + static_cast<std::ptrdiff_t>(seq_start),
                  wrapper.end());
  w.Boolean(false);
  w.End(outer_seq);
  Reader r{BytesView(wrapper)};
  Reader outer;
  ASSERT_TRUE(r.ReadSequence(&outer));
  BytesView raw;
  ASSERT_TRUE(outer.ReadRawTlv(&raw));
  EXPECT_EQ(Bytes(raw.begin(), raw.end()), seq);
  bool b;
  ASSERT_TRUE(outer.ReadBoolean(&b));
}

TEST(Reader, StringTypes) {
  const Bytes utf8 = Encode([](Writer& w) { w.Utf8String("héllo"); });
  const Bytes printable =
      Encode([](Writer& w) { w.PrintableString("hello"); });
  const Bytes ia5 =
      Encode([](Writer& w) { w.Ia5String("http://example.com"); });
  std::string s;
  Reader r1{BytesView(utf8)};
  ASSERT_TRUE(r1.ReadAnyString(&s));
  EXPECT_EQ(s, "héllo");
  Reader r2{BytesView(printable)};
  ASSERT_TRUE(r2.ReadAnyString(&s));
  EXPECT_EQ(s, "hello");
  Reader r3{BytesView(ia5)};
  ASSERT_TRUE(r3.ReadAnyString(&s));
  EXPECT_EQ(s, "http://example.com");
  // Wrong type rejected by tagged read.
  Reader r4{BytesView(utf8)};
  EXPECT_FALSE(r4.ReadStringTagged(kTagPrintableString, &s));
}

TEST(Reader, EnumeratedRoundTrip) {
  // superseded reason code
  const Bytes der = Encode([](Writer& w) { w.Enumerated(4); });
  Reader r{BytesView(der)};
  std::int64_t v;
  ASSERT_TRUE(r.ReadEnumerated(&v));
  EXPECT_EQ(v, 4);
}

// Nested structure round-trip property: build random trees and re-read.
class NestedRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(NestedRoundTrip, RandomTrees) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977);
  // Build a random SEQUENCE of primitives, possibly nested one level.
  Bytes der;
  Writer w(der);
  const std::size_t top_seq = w.Begin(kTagSequence);
  const int n = 1 + static_cast<int>(rng.NextBelow(6));
  std::vector<int> kinds;
  for (int i = 0; i < n; ++i) {
    const int kind = static_cast<int>(rng.NextBelow(4));
    kinds.push_back(kind);
    switch (kind) {
      case 0:
        w.Integer(static_cast<std::int64_t>(rng.Next()));
        break;
      case 1:
        w.Boolean(rng.Chance(0.5));
        break;
      case 2: {
        Bytes blob(rng.NextBelow(300));
        rng.Fill(blob.data(), blob.size());
        w.OctetString(blob);
        break;
      }
      case 3: {
        const std::size_t inner = w.Begin(kTagSequence);
        w.Null();
        w.Integer(7);
        w.End(inner);
        break;
      }
    }
  }
  w.End(top_seq);
  Reader top{BytesView(der)};
  Reader seq;
  ASSERT_TRUE(top.ReadSequence(&seq));
  for (int i = 0; i < n; ++i) {
    switch (kinds[static_cast<std::size_t>(i)]) {
      case 0: {
        std::int64_t v;
        ASSERT_TRUE(seq.ReadInteger(&v));
        break;
      }
      case 1: {
        bool b;
        ASSERT_TRUE(seq.ReadBoolean(&b));
        break;
      }
      case 2: {
        BytesView blob;
        ASSERT_TRUE(seq.ReadOctetString(&blob));
        break;
      }
      case 3: {
        Reader inner;
        ASSERT_TRUE(seq.ReadSequence(&inner));
        ASSERT_TRUE(inner.ReadNull());
        std::int64_t v;
        ASSERT_TRUE(inner.ReadInteger(&v));
        EXPECT_EQ(v, 7);
        break;
      }
    }
  }
  EXPECT_TRUE(seq.Empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, NestedRoundTrip, ::testing::Range(0, 20));

}  // namespace
}  // namespace rev::asn1
