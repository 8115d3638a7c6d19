// ASN.1 OBJECT IDENTIFIER values, plus the well-known OIDs this library uses.
//
// An Oid is its DER content octets (no tag/length) and nothing else. They
// are encoded once, when the Oid is built from components or parsed from
// dotted form; EncodeOid and == use them as they are, and ToString decodes
// them on demand. DER allows one encoding per OID (DecodeContent rejects
// non-minimal subidentifiers), so comparing content bytes accepts and
// rejects exactly what decoding both sides and comparing arcs would: a
// parser can match a borrowed OID view against oids::X().content() without
// building an Oid.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>

#include "util/bytes.h"

namespace rev::asn1 {

class Oid {
 public:
  Oid() = default;
  Oid(std::initializer_list<std::uint32_t> components);

  // Parses dotted-decimal form ("1.2.840.113549.1.1.11").
  static std::optional<Oid> Parse(std::string_view dotted);

  // True if `content` is valid DER content octets of an OID: non-empty,
  // every subidentifier minimal (no leading 0x80 octet), terminated and
  // within 32 bits. Allocates nothing.
  static bool IsValidContent(BytesView content);
  // Validates `content` (IsValidContent) and copies it.
  static std::optional<Oid> DecodeContent(BytesView content);

  // DER content octets (without tag/length).
  const Bytes& content() const { return content_; }

  std::string ToString() const;

  friend bool operator==(const Oid&, const Oid&) = default;

 private:
  Bytes content_;
};

// True if a borrowed OID content view is exactly `oid`'s content octets.
inline bool OidContentIs(BytesView content, const Oid& oid) {
  const Bytes& want = oid.content();
  return content.size() == want.size() &&
         std::equal(content.begin(), content.end(), want.begin());
}

// Well-known OIDs.
namespace oids {

// Signature algorithms.
const Oid& Sha256WithRsa();        // 1.2.840.113549.1.1.11
const Oid& RsaEncryption();        // 1.2.840.113549.1.1.1
const Oid& SimSha256();            // 1.3.6.1.4.1.55555.1.1 (private arc, sim scheme)
const Oid& Sha256();               // 2.16.840.1.101.3.4.2.1

// Name attribute types.
const Oid& CommonName();           // 2.5.4.3
const Oid& OrganizationName();     // 2.5.4.10
const Oid& CountryName();          // 2.5.4.6

// Certificate extensions.
const Oid& BasicConstraints();     // 2.5.29.19
const Oid& KeyUsage();             // 2.5.29.15
const Oid& CrlDistributionPoints();// 2.5.29.31
const Oid& AuthorityInfoAccess();  // 1.3.6.1.5.5.7.1.1
const Oid& CertificatePolicies();  // 2.5.29.32
const Oid& SubjectAltName();       // 2.5.29.17
const Oid& SubjectKeyIdentifier(); // 2.5.29.14
const Oid& NameConstraints();      // 2.5.29.30
const Oid& AuthorityKeyIdentifier(); // 2.5.29.35
const Oid& CrlReason();            // 2.5.29.21
const Oid& CrlNumber();            // 2.5.29.20

// Access method for AIA.
const Oid& AdOcsp();               // 1.3.6.1.5.5.7.48.1
const Oid& AdCaIssuers();          // 1.3.6.1.5.5.7.48.2

// EV policy (the Verisign EV OID the paper uses for its test suite).
const Oid& VerisignEvPolicy();     // 2.16.840.1.113733.1.7.23.6

// OCSP.
const Oid& OcspBasic();            // 1.3.6.1.5.5.7.48.1.1
const Oid& OcspNonce();            // 1.3.6.1.5.5.7.48.1.2

}  // namespace oids

}  // namespace rev::asn1
