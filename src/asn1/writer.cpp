#include "asn1/writer.h"

#include <cassert>
#include <cstdio>

namespace rev::asn1 {

std::uint8_t ContextTag(unsigned n, bool constructed) {
  assert(n < 31);
  return static_cast<std::uint8_t>(0x80 | (constructed ? 0x20 : 0x00) | n);
}

std::size_t HeaderSize(std::size_t content_len) {
  if (content_len < 0x80) return 2;
  std::size_t len_bytes = 0;
  for (std::size_t v = content_len; v; v >>= 8) ++len_bytes;
  return 2 + len_bytes;
}

Bytes Tlv(std::uint8_t tag, BytesView content) {
  Bytes out;
  out.reserve(HeaderSize(content.size()) + content.size());
  out.push_back(tag);
  const std::size_t n = content.size();
  if (n < 0x80) {
    out.push_back(static_cast<std::uint8_t>(n));
  } else {
    std::uint8_t len_be[8];
    int len_bytes = 0;
    for (std::size_t v = n; v; v >>= 8)
      len_be[len_bytes++] = static_cast<std::uint8_t>(v & 0xFF);
    out.push_back(static_cast<std::uint8_t>(0x80 | len_bytes));
    for (int i = len_bytes - 1; i >= 0; --i) out.push_back(len_be[i]);
  }
  Append(out, content);
  return out;
}

Bytes EncodeBoolean(bool value) {
  const std::uint8_t content = value ? 0xFF : 0x00;
  return Tlv(kTagBoolean, BytesView(&content, 1));
}

namespace {
Bytes IntegerContent(std::int64_t value) {
  // Two's-complement, minimal length.
  Bytes content;
  bool more = true;
  while (more) {
    const std::uint8_t byte = static_cast<std::uint8_t>(value & 0xFF);
    value >>= 8;
    // Finished when remaining bits are a pure sign extension of this byte.
    more = !((value == 0 && !(byte & 0x80)) || (value == -1 && (byte & 0x80)));
    content.push_back(byte);
  }
  // Bytes were collected little-endian; reverse.
  return Bytes(content.rbegin(), content.rend());
}
}  // namespace

Bytes EncodeInteger(std::int64_t value) {
  return Tlv(kTagInteger, IntegerContent(value));
}

Bytes EncodeIntegerUnsigned(BytesView magnitude_be) {
  Bytes content;
  std::size_t skip = 0;
  while (skip < magnitude_be.size() && magnitude_be[skip] == 0) ++skip;
  if (skip == magnitude_be.size()) {
    content.push_back(0x00);
  } else {
    if (magnitude_be[skip] & 0x80) content.push_back(0x00);
    content.insert(content.end(), magnitude_be.begin() + static_cast<std::ptrdiff_t>(skip),
                   magnitude_be.end());
  }
  return Tlv(kTagInteger, content);
}

Bytes EncodeEnumerated(std::int64_t value) {
  return Tlv(kTagEnumerated, IntegerContent(value));
}

Bytes EncodeNull() { return Tlv(kTagNull, {}); }

Bytes EncodeOid(const Oid& oid) { return Tlv(kTagOid, oid.content()); }

Bytes EncodeOctetString(BytesView content) {
  return Tlv(kTagOctetString, content);
}

Bytes EncodeBitString(BytesView content, unsigned unused_bits) {
  Bytes inner;
  inner.reserve(content.size() + 1);
  inner.push_back(static_cast<std::uint8_t>(unused_bits));
  Append(inner, content);
  return Tlv(kTagBitString, inner);
}

Bytes EncodeUtf8String(std::string_view s) {
  return Tlv(kTagUtf8String, ToBytes(s));
}

Bytes EncodePrintableString(std::string_view s) {
  return Tlv(kTagPrintableString, ToBytes(s));
}

Bytes EncodeIa5String(std::string_view s) {
  return Tlv(kTagIa5String, ToBytes(s));
}

Bytes EncodeUtcTime(util::Timestamp ts) {
  const util::CivilTime ct = util::ToCivil(ts);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%02d%02d%02d%02d%02d%02dZ", ct.year % 100,
                ct.month, ct.day, ct.hour, ct.minute, ct.second);
  return Tlv(kTagUtcTime, ToBytes(buf));
}

Bytes EncodeGeneralizedTime(util::Timestamp ts) {
  const util::CivilTime ct = util::ToCivil(ts);
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%04d%02d%02d%02d%02d%02dZ", ct.year,
                ct.month, ct.day, ct.hour, ct.minute, ct.second);
  return Tlv(kTagGeneralizedTime, ToBytes(buf));
}

Bytes EncodeTime(util::Timestamp ts) {
  const int year = util::ToCivil(ts).year;
  return (year >= 1950 && year <= 2049) ? EncodeUtcTime(ts)
                                        : EncodeGeneralizedTime(ts);
}

Bytes Concat(const std::vector<Bytes>& parts) {
  std::size_t total = 0;
  for (const Bytes& p : parts) total += p.size();
  Bytes out;
  out.reserve(total);
  for (const Bytes& p : parts) Append(out, p);
  return out;
}

Bytes EncodeSequence(const std::vector<Bytes>& children) {
  return Tlv(kTagSequence, Concat(children));
}

Bytes EncodeSet(const std::vector<Bytes>& children) {
  return Tlv(kTagSet, Concat(children));
}

Bytes EncodeContextExplicit(unsigned n, BytesView child_tlv) {
  return Tlv(ContextTag(n, /*constructed=*/true), child_tlv);
}

Bytes EncodeContextPrimitive(unsigned n, BytesView content) {
  return Tlv(ContextTag(n, /*constructed=*/false), content);
}

Bytes EncodeContextConstructed(unsigned n, BytesView content) {
  return Tlv(ContextTag(n, /*constructed=*/true), content);
}

}  // namespace rev::asn1
