// X.501 distinguished names (the subject/issuer fields of certificates).
//
// Modeled as an ordered list of single-attribute RDNs, which covers every
// name this library produces and the overwhelming majority seen in the wild.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "asn1/oid.h"
#include "asn1/reader.h"
#include "asn1/writer.h"
#include "util/bytes.h"

namespace rev::x509 {

struct NameAttribute {
  asn1::Oid type;
  std::string value;

  friend bool operator==(const NameAttribute&, const NameAttribute&) = default;
};

class Name {
 public:
  Name() = default;

  // Convenience constructors for the common shapes.
  static Name FromCommonName(std::string_view cn);
  static Name Make(std::string_view cn, std::string_view org,
                   std::string_view country = "US");

  void Add(asn1::Oid type, std::string_view value);

  // First CommonName attribute, or empty string.
  std::string CommonName() const;
  std::string Organization() const;

  const std::vector<NameAttribute>& attributes() const { return attributes_; }
  bool Empty() const { return attributes_.empty(); }

  // "CN=example.com, O=Example Org, C=US".
  std::string ToString() const;

  // RDNSequence: one single-attribute SET per attribute, each value a
  // UTF8String.
  void Encode(asn1::Writer& w) const;
  Bytes Encode() const {
    return asn1::Encode([this](asn1::Writer& w) { Encode(w); });
  }
  // Reads one Name TLV, the one accept rule for names: a SEQUENCE of
  // non-empty SETs of AttributeTypeAndValue, each a DER OID and then a
  // UTF8String, PrintableString or IA5String with nothing after it. `*der`,
  // if set, receives the raw TLV (the DerKey); `*out`, if set, gets the
  // attributes appended. With `out` null nothing is allocated.
  static bool Read(asn1::Reader& r, BytesView* der, Name* out);

  // DER bytes, usable as a map key for issuer lookups.
  Bytes DerKey() const { return Encode(); }

  friend bool operator==(const Name&, const Name&) = default;

 private:
  std::vector<NameAttribute> attributes_;
};

}  // namespace rev::x509
