// X.509v3 extensions: the borrowed extension-list reader plus typed codecs
// for every extension this library reads or writes. Each Encode* writes one
// whole Extension (extnID, critical, extnValue) through an asn1::Writer; the
// caller writes the enclosing SEQUENCE OF.
//
// Each certificate extension's Parse* reads its extnValue and is the one
// accept rule for it: ParseCertView calls it to validate and to pick out its
// columns, ParseCertificate to build the owned field. An output may be null;
// the parser then only validates, allocates nothing, and accepts exactly the
// same bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "asn1/oid.h"
#include "asn1/reader.h"
#include "asn1/writer.h"
#include "util/bytes.h"

namespace rev::x509 {

// One Extension of a validated list. Every field aliases the list's DER.
struct ExtensionView {
  BytesView oid;  // content octets of extnID
  bool critical = false;
  BytesView value;  // the DER inside the extnValue OCTET STRING
};

// Reads Extension ::= SEQUENCE { extnID OBJECT IDENTIFIER (valid DER),
// critical BOOLEAN DEFAULT FALSE, extnValue OCTET STRING }, with nothing
// after extnValue.
bool ReadExtension(asn1::Reader& r, ExtensionView* out);

// An extension list (SEQUENCE OF Extension) that ReadExtensions validated.
using Extensions = asn1::ValidatedList<ExtensionView, ReadExtension>;

// Reads SEQUENCE OF Extension into `*out`, the one extension-list reader of
// certificates, CRLs and OCSP messages. `visit(ext)` sees each extension in
// wire order as it is read, in the same pass; the read fails when an
// extension is malformed or `visit` returns false.
template <typename Visit>
bool ReadExtensions(asn1::Reader& r, Extensions* out, Visit&& visit) {
  BytesView content;
  if (!r.ReadTagged(asn1::kTagSequence, &content)) return false;
  asn1::Reader list(content);
  for (ExtensionView ext; !list.Empty();)
    if (!ReadExtension(list, &ext) || !visit(ext)) return false;
  *out = Extensions(content);
  return true;
}
inline bool ReadExtensions(asn1::Reader& r, Extensions* out) {
  return ReadExtensions(r, out, [](const ExtensionView&) { return true; });
}

// The extensions a certificate parse understands. A certificate carrying
// one of them twice is rejected (RFC 5280 §4.2); one outside the set is
// skipped unless it is critical.
enum class CertExtension : std::uint8_t {
  kBasicConstraints,
  kNameConstraints,
  kKeyUsage,
  kCrlDistributionPoints,
  kAuthorityInfoAccess,
  kCertificatePolicies,
  kSubjectAltName,
  kSubjectKeyIdentifier,
  kAuthorityKeyIdentifier,
  kUnknown,
};
CertExtension ClassifyCertExtension(BytesView oid_content);

// Opens an Extension: writes extnID and, when set, critical, then opens
// the extnValue OCTET STRING, whose content (the extension's own DER) the
// caller writes before EndExtension closes both.
struct ExtensionMark {
  std::size_t extension;
  std::size_t value;
};
ExtensionMark BeginExtension(asn1::Writer& w, const asn1::Oid& oid,
                             bool critical);
void EndExtension(asn1::Writer& w, ExtensionMark mark);

// BasicConstraints ----------------------------------------------------------

struct BasicConstraints {
  bool is_ca = false;
  int path_len = -1;  // -1 = absent
};
void EncodeBasicConstraints(asn1::Writer& w, const BasicConstraints& bc);
bool ParseBasicConstraints(BytesView value, BasicConstraints* out);

// KeyUsage ------------------------------------------------------------------

// Named bits per RFC 5280 §4.2.1.3 (bit 0 = digitalSignature ... ).
enum KeyUsageBits : std::uint16_t {
  kKeyUsageDigitalSignature = 1u << 0,
  kKeyUsageKeyEncipherment = 1u << 2,
  kKeyUsageKeyCertSign = 1u << 5,
  kKeyUsageCrlSign = 1u << 6,
};
void EncodeKeyUsage(asn1::Writer& w, std::uint16_t bits);
bool ParseKeyUsage(BytesView value, std::uint16_t* bits);

// CRLDistributionPoints -----------------------------------------------------

void EncodeCrlDistributionPoints(asn1::Writer& w,
                                 std::span<const std::string> urls);
// The URIs of every distribution point's fullName, as views into `value`.
bool ParseCrlDistributionPoints(BytesView value,
                                std::vector<std::string_view>* urls);

// AuthorityInfoAccess -------------------------------------------------------

void EncodeAuthorityInfoAccess(
    asn1::Writer& w, std::span<const std::string> ocsp_urls,
    std::span<const std::string> ca_issuer_urls = {});
// The id-ad-ocsp URIs, as views into `value`; other access methods are
// skipped.
bool ParseAuthorityInfoAccess(BytesView value,
                              std::vector<std::string_view>* ocsp_urls);

// CertificatePolicies -------------------------------------------------------

void EncodeCertificatePolicies(asn1::Writer& w,
                               std::span<const asn1::Oid> policies);
// `*is_ev` is set when the Verisign EV policy is among them.
bool ParseCertificatePolicies(BytesView value,
                              std::vector<asn1::Oid>* policies,
                              bool* is_ev = nullptr);

// SubjectAltName (dNSName entries only) --------------------------------------

void EncodeSubjectAltName(asn1::Writer& w,
                          std::span<const std::string> dns_names);
bool ParseSubjectAltName(BytesView value,
                         std::vector<std::string>* dns_names);

// NameConstraints (dNSName subtrees only) -------------------------------------
//
// The paper (§2.1 footnote 2) notes this extension exists precisely to
// scope a CA's issuing authority "but it is rarely used and few clients
// support it"; chain verification enforces it only when asked.

struct NameConstraints {
  // DNS suffixes; an empty permitted list means "no restriction".
  std::vector<std::string> permitted_dns;
  std::vector<std::string> excluded_dns;

  bool Empty() const { return permitted_dns.empty() && excluded_dns.empty(); }
};

void EncodeNameConstraints(asn1::Writer& w, const NameConstraints& nc);
bool ParseNameConstraints(BytesView value, NameConstraints* out);

// True if `dns_name` falls within the subtree `suffix` ("example.com"
// matches itself and any subdomain).
bool DnsNameInSubtree(std::string_view dns_name, std::string_view suffix);

// Checks a DNS name against the constraints.
bool NameConstraintsAllow(const NameConstraints& nc, std::string_view dns_name);

// Subject/Authority key identifiers ------------------------------------------

void EncodeSubjectKeyIdentifier(asn1::Writer& w, BytesView key_id);
bool ParseSubjectKeyIdentifier(BytesView value, Bytes* key_id);

void EncodeAuthorityKeyIdentifier(asn1::Writer& w, BytesView key_id);
bool ParseAuthorityKeyIdentifier(BytesView value, Bytes* key_id);

// CRL entry/respective extensions ---------------------------------------------

// RFC 5280 CRLReason codes. kUnspecified is also what a revocation without
// the extension maps to; kNoReasonCode marks "extension absent" when the
// distinction matters (CRLSet inclusion rules, §7.1).
enum class ReasonCode : std::int8_t {
  kNoReasonCode = -1,  // extension absent
  kUnspecified = 0,
  kKeyCompromise = 1,
  kCaCompromise = 2,
  kAffiliationChanged = 3,
  kSuperseded = 4,
  kCessationOfOperation = 5,
  kCertificateHold = 6,
  kRemoveFromCrl = 8,
  kPrivilegeWithdrawn = 9,
  kAaCompromise = 10,
};

const char* ReasonCodeName(ReasonCode rc);

void EncodeCrlReason(asn1::Writer& w, ReasonCode rc);
std::optional<ReasonCode> ParseCrlReason(BytesView value);

void EncodeCrlNumber(asn1::Writer& w, std::int64_t number);
std::optional<std::int64_t> ParseCrlNumber(BytesView value);

}  // namespace rev::x509
