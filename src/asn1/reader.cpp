#include "asn1/reader.h"

#include "asn1/writer.h"

namespace rev::asn1 {

bool Reader::ParseHeader(std::uint8_t* tag, std::size_t* header_len,
                         std::size_t* content_len) const {
  if (pos_ + 2 > data_.size()) return false;
  *tag = data_[pos_];
  const std::uint8_t first = data_[pos_ + 1];
  if (first < 0x80) {
    *header_len = 2;
    *content_len = first;
  } else {
    const std::size_t len_bytes = first & 0x7F;
    if (len_bytes == 0 || len_bytes > sizeof(std::size_t)) return false;
    if (pos_ + 2 + len_bytes > data_.size()) return false;
    std::size_t n = 0;
    for (std::size_t i = 0; i < len_bytes; ++i)
      n = (n << 8) | data_[pos_ + 2 + i];
    // DER: length must use the minimal form.
    if (n < 0x80) return false;
    if (len_bytes > 1 && data_[pos_ + 2] == 0) return false;
    *header_len = 2 + len_bytes;
    *content_len = n;
  }
  return pos_ + *header_len + *content_len <= data_.size();
}

bool Reader::PeekTag(std::uint8_t* tag) const {
  if (pos_ >= data_.size()) return false;
  *tag = data_[pos_];
  return true;
}

bool Reader::NextIs(std::uint8_t tag) const {
  std::uint8_t t;
  return PeekTag(&t) && t == tag;
}

bool Reader::ReadTlv(std::uint8_t* tag, BytesView* content) {
  std::size_t header_len, content_len;
  if (!ParseHeader(tag, &header_len, &content_len)) return false;
  *content = data_.subspan(pos_ + header_len, content_len);
  pos_ += header_len + content_len;
  return true;
}

bool Reader::ReadTagged(std::uint8_t tag, BytesView* content) {
  std::uint8_t t;
  std::size_t header_len, content_len;
  if (!ParseHeader(&t, &header_len, &content_len) || t != tag) return false;
  *content = data_.subspan(pos_ + header_len, content_len);
  pos_ += header_len + content_len;
  return true;
}

bool Reader::ReadRawTlv(BytesView* tlv) {
  std::uint8_t t;
  std::size_t header_len, content_len;
  if (!ParseHeader(&t, &header_len, &content_len)) return false;
  *tlv = data_.subspan(pos_, header_len + content_len);
  pos_ += header_len + content_len;
  return true;
}

bool Reader::ReadSequence(Reader* inner) {
  BytesView content;
  if (!ReadTagged(kTagSequence, &content)) return false;
  *inner = Reader(content);
  return true;
}

bool Reader::ReadSet(Reader* inner) {
  BytesView content;
  if (!ReadTagged(kTagSet, &content)) return false;
  *inner = Reader(content);
  return true;
}

bool Reader::ReadBoolean(bool* value) {
  BytesView content;
  if (!ReadTagged(kTagBoolean, &content) || content.size() != 1) return false;
  // DER: TRUE must be 0xFF.
  if (content[0] != 0x00 && content[0] != 0xFF) return false;
  *value = content[0] == 0xFF;
  return true;
}

namespace {
bool CheckMinimalInteger(BytesView content) {
  if (content.empty()) return false;
  if (content.size() >= 2) {
    // Leading 0x00 only allowed before a byte with high bit set; leading
    // 0xFF only before a byte with high bit clear.
    if (content[0] == 0x00 && !(content[1] & 0x80)) return false;
    if (content[0] == 0xFF && (content[1] & 0x80)) return false;
  }
  return true;
}

bool DecodeInt64(BytesView content, std::int64_t* value) {
  if (!CheckMinimalInteger(content) || content.size() > 8) return false;
  std::int64_t v = (content[0] & 0x80) ? -1 : 0;
  for (std::uint8_t b : content) v = (v << 8) | b;
  *value = v;
  return true;
}
}  // namespace

bool Reader::ReadInteger(std::int64_t* value) {
  BytesView content;
  return ReadTagged(kTagInteger, &content) && DecodeInt64(content, value);
}

bool Reader::ReadIntegerUnsigned(Bytes* magnitude_be) {
  BytesView content;
  if (!ReadTagged(kTagInteger, &content) || !CheckMinimalInteger(content))
    return false;
  if (content[0] & 0x80) return false;  // negative
  std::size_t skip = (content.size() > 1 && content[0] == 0x00) ? 1 : 0;
  magnitude_be->assign(content.begin() + static_cast<std::ptrdiff_t>(skip),
                       content.end());
  return true;
}

bool Reader::ReadIntegerUnsignedView(BytesView* magnitude_be) {
  BytesView content;
  if (!ReadTagged(kTagInteger, &content) || !CheckMinimalInteger(content))
    return false;
  if (content[0] & 0x80) return false;  // negative
  const std::size_t skip = (content.size() > 1 && content[0] == 0x00) ? 1 : 0;
  *magnitude_be = content.subspan(skip);
  return true;
}

bool Reader::ReadEnumerated(std::int64_t* value) {
  BytesView content;
  return ReadTagged(kTagEnumerated, &content) && DecodeInt64(content, value);
}

bool Reader::ReadNull() {
  BytesView content;
  return ReadTagged(kTagNull, &content) && content.empty();
}

bool Reader::ReadOid(Oid* oid) {
  BytesView content;
  if (!ReadTagged(kTagOid, &content)) return false;
  auto decoded = Oid::DecodeContent(content);
  if (!decoded) return false;
  *oid = *std::move(decoded);
  return true;
}

bool Reader::ReadOidView(BytesView* content) {
  return ReadTagged(kTagOid, content) && Oid::IsValidContent(*content);
}

bool Reader::ReadOctetString(BytesView* content) {
  return ReadTagged(kTagOctetString, content);
}

bool Reader::ReadBitString(BytesView* content, unsigned* unused_bits) {
  BytesView inner;
  if (!ReadTagged(kTagBitString, &inner) || inner.empty()) return false;
  if (inner[0] > 7) return false;
  if (unused_bits) *unused_bits = inner[0];
  *content = inner.subspan(1);
  return true;
}

bool Reader::ReadStringTagged(std::uint8_t tag, std::string* s) {
  BytesView content;
  if (!ReadTagged(tag, &content)) return false;
  s->assign(content.begin(), content.end());
  return true;
}

bool Reader::ReadAnyString(std::string* s) {
  std::uint8_t tag;
  if (!PeekTag(&tag)) return false;
  if (tag != kTagUtf8String && tag != kTagPrintableString &&
      tag != kTagIa5String)
    return false;
  return ReadStringTagged(tag, s);
}

std::optional<util::Timestamp> ParseTimeContent(std::uint8_t tag,
                                                BytesView content) {
  auto digits = [&content](std::size_t pos, int len) -> int {
    int v = 0;
    for (std::size_t i = pos; i < pos + static_cast<std::size_t>(len); ++i) {
      if (content[i] < '0' || content[i] > '9') return -1;
      v = v * 10 + (content[i] - '0');
    }
    return v;
  };

  util::CivilTime ct;
  std::size_t rest;
  if (tag == kTagUtcTime) {
    if (content.size() != 13 || content.back() != 'Z') return std::nullopt;
    const int yy = digits(0, 2);
    if (yy < 0) return std::nullopt;
    // RFC 5280 sliding window: 00-49 => 20xx, 50-99 => 19xx.
    ct.year = yy < 50 ? 2000 + yy : 1900 + yy;
    rest = 2;
  } else if (tag == kTagGeneralizedTime) {
    if (content.size() != 15 || content.back() != 'Z') return std::nullopt;
    ct.year = digits(0, 4);
    if (ct.year < 0) return std::nullopt;
    rest = 4;
  } else {
    return std::nullopt;
  }

  ct.month = digits(rest, 2);
  ct.day = digits(rest + 2, 2);
  ct.hour = digits(rest + 4, 2);
  ct.minute = digits(rest + 6, 2);
  ct.second = digits(rest + 8, 2);
  if (ct.month < 1 || ct.month > 12 || ct.day < 1 ||
      ct.day > util::DaysInMonth(ct.year, ct.month) || ct.hour < 0 ||
      ct.hour > 23 || ct.minute < 0 || ct.minute > 59 || ct.second < 0 ||
      ct.second > 59)
    return std::nullopt;
  return util::ToTimestamp(ct);
}

bool Reader::ReadTime(util::Timestamp* ts) {
  std::uint8_t tag;
  if (!PeekTag(&tag)) return false;
  BytesView content;
  if (!ReadTlv(&tag, &content)) return false;
  auto parsed = ParseTimeContent(tag, content);
  if (!parsed) return false;
  *ts = *parsed;
  return true;
}

bool Reader::NextIsContext(unsigned n) const {
  std::uint8_t tag;
  if (!PeekTag(&tag)) return false;
  return (tag & 0xC0) == 0x80 && (tag & 0x1F) == n;
}

bool Reader::ReadContextExplicit(unsigned n, Reader* inner) {
  BytesView content;
  if (!ReadTagged(ContextTag(n, /*constructed=*/true), &content)) return false;
  *inner = Reader(content);
  return true;
}

bool Reader::ReadContextPrimitive(unsigned n, BytesView* content) {
  return ReadTagged(ContextTag(n, /*constructed=*/false), content);
}

bool Reader::ReadContextConstructed(unsigned n, Reader* inner) {
  BytesView content;
  if (!ReadTagged(ContextTag(n, /*constructed=*/true), &content)) return false;
  *inner = Reader(content);
  return true;
}

}  // namespace rev::asn1
