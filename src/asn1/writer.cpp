#include "asn1/writer.h"

#include <cstring>
#include <stdexcept>
#include <string>

namespace rev::asn1 {

void ThrowBadContextTag(unsigned n) {
  std::string message = "asn1::ContextTag: [";
  message += std::to_string(n);
  message += "] needs the high-tag-number form, which is not supported";
  throw std::out_of_range(message);
}

namespace {

// Octets of a long-form length: the big-endian bytes of `length`.
std::size_t LengthOctets(std::size_t length) {
  std::size_t n = 0;
  for (std::size_t v = length; v; v >>= 8) ++n;
  return n;
}

void CheckTimeRange(util::Timestamp ts) {
  if (ts < kMinDerTime || ts > kMaxDerTime) {
    std::string message = "asn1::Writer: timestamp ";
    message += std::to_string(ts);
    message += " falls outside years 0000-9999";
    throw std::out_of_range(message);
  }
}

}  // namespace

void Writer::Header(std::uint8_t tag, std::size_t length) {
  out_.push_back(tag);
  if (length < 0x80) {
    out_.push_back(static_cast<std::uint8_t>(length));
    return;
  }
  const std::size_t n = LengthOctets(length);
  out_.push_back(static_cast<std::uint8_t>(0x80 | n));
  for (std::size_t i = n; i-- > 0;)
    out_.push_back(static_cast<std::uint8_t>(length >> (8 * i)));
}

std::size_t Writer::Begin(std::uint8_t tag) {
  out_.push_back(tag);
  out_.push_back(0);  // length placeholder, patched by End
  return out_.size();
}

void Writer::End(std::size_t mark) {
  const std::size_t length = out_.size() - mark;
  if (length < 0x80) {
    out_[mark - 1] = static_cast<std::uint8_t>(length);
    return;
  }
  // Long form: the placeholder becomes 0x80|n and the n length octets go
  // between it and the content, which moves up to make room.
  const std::size_t n = LengthOctets(length);
  out_.resize(out_.size() + n);
  std::uint8_t* content = out_.data() + mark;
  std::memmove(content + n, content, length);
  content[-1] = static_cast<std::uint8_t>(0x80 | n);
  for (std::size_t i = 0; i < n; ++i)
    content[i] = static_cast<std::uint8_t>(length >> (8 * (n - 1 - i)));
}

void Writer::Tlv(std::uint8_t tag, BytesView content) {
  Header(tag, content.size());
  Append(out_, content);
}

void Writer::Boolean(bool value) {
  Header(kTagBoolean, 1);
  out_.push_back(value ? 0xFF : 0x00);
}

void Writer::SignedInteger(std::uint8_t tag, std::int64_t value) {
  // Minimal two's complement: n bytes hold `value` iff the bits above the
  // n-byte sign bit are all copies of it.
  std::size_t n = 1;
  while (n < 8) {
    const std::int64_t high = value >> (8 * n - 1);
    if (high == 0 || high == -1) break;
    ++n;
  }
  Header(tag, n);
  for (std::size_t i = n; i-- > 0;)
    out_.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
}

void Writer::Integer(std::int64_t value) { SignedInteger(kTagInteger, value); }

void Writer::Enumerated(std::int64_t value) {
  SignedInteger(kTagEnumerated, value);
}

void Writer::IntegerUnsigned(BytesView magnitude_be) {
  std::size_t skip = 0;
  while (skip < magnitude_be.size() && magnitude_be[skip] == 0) ++skip;
  const BytesView digits = magnitude_be.subspan(skip);
  if (digits.empty()) {
    Header(kTagInteger, 1);
    out_.push_back(0x00);
    return;
  }
  const bool pad = (digits[0] & 0x80) != 0;
  Header(kTagInteger, digits.size() + (pad ? 1 : 0));
  if (pad) out_.push_back(0x00);
  Append(out_, digits);
}

void Writer::Null() { Header(kTagNull, 0); }

void Writer::BitString(BytesView content, unsigned unused_bits) {
  Header(kTagBitString, content.size() + 1);
  out_.push_back(static_cast<std::uint8_t>(unused_bits));
  Append(out_, content);
}

void Writer::TimeValue(std::uint8_t tag, const util::CivilTime& ct) {
  // YYMMDDHHMMSSZ (UTCTime) or YYYYMMDDHHMMSSZ (GeneralizedTime).
  std::uint8_t text[15];
  std::uint8_t* p = text;
  const auto two = [&p](int v) {
    *p++ = static_cast<std::uint8_t>('0' + v / 10);
    *p++ = static_cast<std::uint8_t>('0' + v % 10);
  };
  if (tag == kTagGeneralizedTime) two(ct.year / 100);
  two(ct.year % 100);
  two(ct.month);
  two(ct.day);
  two(ct.hour);
  two(ct.minute);
  two(ct.second);
  *p++ = 'Z';
  Tlv(tag, BytesView(text, static_cast<std::size_t>(p - text)));
}

void Writer::Time(util::Timestamp ts) {
  CheckTimeRange(ts);
  const util::CivilTime ct = util::ToCivil(ts);
  TimeValue(ct.year >= 1950 && ct.year <= 2049 ? kTagUtcTime
                                               : kTagGeneralizedTime,
            ct);
}

void Writer::GeneralizedTime(util::Timestamp ts) {
  CheckTimeRange(ts);
  TimeValue(kTagGeneralizedTime, util::ToCivil(ts));
}

}  // namespace rev::asn1
