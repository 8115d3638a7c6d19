// X.501 distinguished names (the subject/issuer fields of certificates).
//
// Modeled as an ordered list of single-attribute RDNs, which covers every
// name this library produces and the overwhelming majority seen in the wild.
#pragma once

#include <optional>
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
  static std::optional<Name> Decode(asn1::Reader& r);

  // DER bytes, usable as a map key for issuer lookups.
  Bytes DerKey() const { return Encode(); }

  friend bool operator==(const Name&, const Name&) = default;

 private:
  std::vector<NameAttribute> attributes_;
};

}  // namespace rev::x509
