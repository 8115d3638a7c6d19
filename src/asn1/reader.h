// DER decoding with strict validation (definite, minimal lengths only).
//
// A Reader is a non-owning cursor over a byte span; nested structures are
// read by materializing a child Reader over the content octets. All methods
// return false (without advancing past the error) on malformed input.
#pragma once

#include <cstdint>
#include <iterator>
#include <optional>
#include <string>

#include "asn1/oid.h"
#include "util/bytes.h"
#include "util/time.h"

namespace rev::asn1 {

class Reader {
 public:
  Reader() = default;
  explicit Reader(BytesView data) : data_(data) {}

  bool Empty() const { return pos_ >= data_.size(); }

  // Peeks the tag byte of the next TLV (false if empty).
  bool PeekTag(std::uint8_t* tag) const;

  // True if the next TLV has the given tag.
  bool NextIs(std::uint8_t tag) const;

  // Reads one TLV: outputs the tag and a view of the content octets.
  bool ReadTlv(std::uint8_t* tag, BytesView* content);

  // Reads one TLV with a required tag.
  bool ReadTagged(std::uint8_t tag, BytesView* content);

  // Reads the entire next TLV including its header (for extracting the raw
  // bytes of a signed sub-structure such as TBSCertificate).
  bool ReadRawTlv(BytesView* tlv);

  // Typed readers -----------------------------------------------------------

  bool ReadSequence(Reader* inner);
  bool ReadSet(Reader* inner);
  bool ReadBoolean(bool* value);
  // INTEGER that must fit in int64 (two's complement).
  bool ReadInteger(std::int64_t* value);
  // INTEGER as unsigned big-endian magnitude; fails on negative values.
  bool ReadIntegerUnsigned(Bytes* magnitude_be);
  // Zero-copy variant: a view of the magnitude (sign-padding byte stripped),
  // aliasing the input buffer.
  bool ReadIntegerUnsignedView(BytesView* magnitude_be);
  bool ReadEnumerated(std::int64_t* value);
  bool ReadNull();
  bool ReadOid(Oid* oid);
  // Zero-copy variant: a view of the content octets, rejected where ReadOid
  // rejects them (Oid::IsValidContent).
  bool ReadOidView(BytesView* content);
  bool ReadOctetString(BytesView* content);
  bool ReadBitString(BytesView* content, unsigned* unused_bits);
  // Any of UTF8String / PrintableString / IA5String.
  bool ReadAnyString(std::string* s);
  bool ReadStringTagged(std::uint8_t tag, std::string* s);
  // UTCTime or GeneralizedTime.
  bool ReadTime(util::Timestamp* ts);

  // Context-specific helpers -------------------------------------------------

  // True if next TLV is context tag [n] (constructed or primitive).
  bool NextIsContext(unsigned n) const;
  // Reads explicit [n] { ... }, materializing a Reader over the inner TLVs.
  bool ReadContextExplicit(unsigned n, Reader* inner);
  // Reads implicit [n] content octets.
  bool ReadContextPrimitive(unsigned n, BytesView* content);
  // Reads implicit constructed [n], materializing a Reader over the content.
  bool ReadContextConstructed(unsigned n, Reader* inner);

 private:
  // Parses the header at pos_; on success sets *tag, *header_len, *content_len.
  bool ParseHeader(std::uint8_t* tag, std::size_t* header_len,
                   std::size_t* content_len) const;

  BytesView data_;
  std::size_t pos_ = 0;
};

// The items of a list that a parse validated whole, each read by `Read`.
// Range-for over it yields them in wire order without copying or
// allocating; every read succeeded in the parse, so iteration cannot fail.
template <typename Item, bool (*Read)(Reader&, Item*)>
class ValidatedList {
 public:
  class Iterator {
   public:
    explicit Iterator(BytesView list) : rest_(list) { ++*this; }
    const Item& operator*() const { return item_; }
    Iterator& operator++() {
      done_ = rest_.Empty() || !Read(rest_, &item_);
      return *this;
    }
    bool operator==(std::default_sentinel_t) const { return done_; }

   private:
    Reader rest_;
    Item item_{};
    bool done_ = false;
  };

  ValidatedList() = default;
  explicit ValidatedList(BytesView list) : list_(list) {}
  Iterator begin() const { return Iterator(list_); }
  std::default_sentinel_t end() const { return {}; }
  // The content octets of the list, for a walk that reads less of each
  // item than `Read` does.
  BytesView bytes() const { return list_; }

 private:
  BytesView list_;  // content octets of the list
};

// Parses a DER Time content (UTCTime "YYMMDDHHMMSSZ" with the RFC 5280 sliding
// window, or GeneralizedTime "YYYYMMDDHHMMSSZ").
std::optional<util::Timestamp> ParseTimeContent(std::uint8_t tag,
                                                BytesView content);

}  // namespace rev::asn1
