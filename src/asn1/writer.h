// DER encoding (the strict, canonical subset of BER used by X.509).
//
// asn1::Writer appends DER to one caller-owned byte buffer; every encoder
// in the library writes through it. A constructed value is opened with
// Begin(tag), which writes the tag and a one-byte length placeholder, and
// closed with End(mark), which back-patches the length once the content is
// in place. Content of 128 bytes or more needs a long-form length: End then
// moves the content up by the extra length octets with one memmove.
// Primitives are written in place, so no TLV is built on its own and copied
// into its parent.
#pragma once

#include <cstdint>
#include <string_view>

#include "asn1/oid.h"
#include "util/bytes.h"
#include "util/time.h"

namespace rev::asn1 {

// Universal tag numbers (with constructed bit where applicable).
inline constexpr std::uint8_t kTagBoolean = 0x01;
inline constexpr std::uint8_t kTagInteger = 0x02;
inline constexpr std::uint8_t kTagBitString = 0x03;
inline constexpr std::uint8_t kTagOctetString = 0x04;
inline constexpr std::uint8_t kTagNull = 0x05;
inline constexpr std::uint8_t kTagOid = 0x06;
inline constexpr std::uint8_t kTagEnumerated = 0x0A;
inline constexpr std::uint8_t kTagUtf8String = 0x0C;
inline constexpr std::uint8_t kTagPrintableString = 0x13;
inline constexpr std::uint8_t kTagIa5String = 0x16;
inline constexpr std::uint8_t kTagUtcTime = 0x17;
inline constexpr std::uint8_t kTagGeneralizedTime = 0x18;
inline constexpr std::uint8_t kTagSequence = 0x30;
inline constexpr std::uint8_t kTagSet = 0x31;

// The timestamps a four-digit year can name: 0000-01-01T00:00:00Z and
// 9999-12-31T23:59:59Z. Writer::Time and GeneralizedTime throw
// std::out_of_range outside them rather than emit DER no reader accepts.
inline constexpr util::Timestamp kMinDerTime = -62'167'219'200;
inline constexpr util::Timestamp kMaxDerTime = 253'402'300'799;

[[noreturn]] void ThrowBadContextTag(unsigned n);

// Context-specific tag byte [n]. Only the low-tag-number form (n <= 30) is
// supported; a larger n throws std::out_of_range in every build type, since
// it would otherwise spill into the class and constructed bits.
inline std::uint8_t ContextTag(unsigned n, bool constructed) {
  if (n > 30) ThrowBadContextTag(n);
  return static_cast<std::uint8_t>(0x80 | (constructed ? 0x20 : 0x00) | n);
}

class Writer {
 public:
  // Appends to `out`, after whatever it already holds.
  explicit Writer(Bytes& out) : out_(out) {}

  // Opens a constructed value (SEQUENCE, SET, [n] EXPLICIT, an OCTET
  // STRING wrapping DER, ...) and returns the mark End() closes it with.
  // Marks close innermost first.
  std::size_t Begin(std::uint8_t tag);
  // [n] constructed: EXPLICIT tagging, or an IMPLICIT constructed type.
  std::size_t BeginContext(unsigned n) { return Begin(ContextTag(n, true)); }
  void End(std::size_t mark);

  // A TLV whose content octets are given whole.
  void Tlv(std::uint8_t tag, BytesView content);
  // [n] IMPLICIT primitive with raw content octets.
  void ContextPrimitive(unsigned n, BytesView content) {
    Tlv(ContextTag(n, false), content);
  }

  void Boolean(bool value);
  void Integer(std::int64_t value);
  // Unsigned big-endian magnitude as INTEGER: leading zero bytes dropped,
  // 0x00 prepended when the top bit is set, zero as a single 0x00. Used
  // for serials and RSA values.
  void IntegerUnsigned(BytesView magnitude_be);
  void Enumerated(std::int64_t value);
  void Null();
  void ObjectId(const Oid& oid) { Tlv(kTagOid, oid.content()); }
  void OctetString(BytesView content) { Tlv(kTagOctetString, content); }
  void BitString(BytesView content, unsigned unused_bits = 0);
  void Utf8String(std::string_view s) { Tlv(kTagUtf8String, AsBytes(s)); }
  void PrintableString(std::string_view s) {
    Tlv(kTagPrintableString, AsBytes(s));
  }
  void Ia5String(std::string_view s) { Tlv(kTagIa5String, AsBytes(s)); }

  // X.509 Time: UTCTime for years in [1950, 2049], GeneralizedTime
  // otherwise. Both throw std::out_of_range outside [kMinDerTime,
  // kMaxDerTime].
  void Time(util::Timestamp ts);
  void GeneralizedTime(util::Timestamp ts);

  // Bytes in the buffer; an offset taken here names where the next value
  // starts.
  std::size_t size() const { return out_.size(); }
  // The bytes written from offset `from` on.
  BytesView Since(std::size_t from) const {
    return BytesView(out_).subspan(from);
  }

 private:
  // Tag and definite length of a value whose content length is known.
  void Header(std::uint8_t tag, std::size_t length);
  void SignedInteger(std::uint8_t tag, std::int64_t value);
  void TimeValue(std::uint8_t tag, const util::CivilTime& ct);

  Bytes& out_;
};

// Runs `encode(writer)` on a fresh buffer and returns it: the form for
// callers that want one value as its own byte vector.
template <typename F>
Bytes Encode(F&& encode) {
  Bytes out;
  Writer w(out);
  encode(w);
  return out;
}

}  // namespace rev::asn1
