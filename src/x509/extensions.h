// X.509v3 extensions: the generic wrapper plus typed codecs for every
// extension this library reads or writes. Each Encode* writes one whole
// Extension (extnID, critical, extnValue) through an asn1::Writer; the
// caller writes the enclosing SEQUENCE OF.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "asn1/oid.h"
#include "asn1/reader.h"
#include "asn1/writer.h"
#include "util/bytes.h"

namespace rev::x509 {

// Generic extension: `value` holds the DER inside the extnValue OCTET STRING.
struct Extension {
  asn1::Oid oid;
  bool critical = false;
  Bytes value;
};

std::optional<Extension> DecodeExtension(asn1::Reader& r);
std::optional<std::vector<Extension>> DecodeExtensionList(asn1::Reader& r);

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
std::optional<BasicConstraints> ParseBasicConstraints(BytesView value);

// KeyUsage ------------------------------------------------------------------

// Named bits per RFC 5280 §4.2.1.3 (bit 0 = digitalSignature ... ).
enum KeyUsageBits : std::uint16_t {
  kKeyUsageDigitalSignature = 1u << 0,
  kKeyUsageKeyEncipherment = 1u << 2,
  kKeyUsageKeyCertSign = 1u << 5,
  kKeyUsageCrlSign = 1u << 6,
};
void EncodeKeyUsage(asn1::Writer& w, std::uint16_t bits);
std::optional<std::uint16_t> ParseKeyUsage(BytesView value);

// CRLDistributionPoints -----------------------------------------------------

void EncodeCrlDistributionPoints(asn1::Writer& w,
                                 std::span<const std::string> urls);
std::optional<std::vector<std::string>> ParseCrlDistributionPoints(
    BytesView value);

// AuthorityInfoAccess -------------------------------------------------------

struct AuthorityInfoAccess {
  std::vector<std::string> ocsp_urls;
  std::vector<std::string> ca_issuer_urls;
};
void EncodeAuthorityInfoAccess(
    asn1::Writer& w, std::span<const std::string> ocsp_urls,
    std::span<const std::string> ca_issuer_urls = {});
std::optional<AuthorityInfoAccess> ParseAuthorityInfoAccess(BytesView value);

// CertificatePolicies -------------------------------------------------------

void EncodeCertificatePolicies(asn1::Writer& w,
                               std::span<const asn1::Oid> policies);
std::optional<std::vector<asn1::Oid>> ParseCertificatePolicies(BytesView value);

// SubjectAltName (dNSName entries only) --------------------------------------

void EncodeSubjectAltName(asn1::Writer& w,
                          std::span<const std::string> dns_names);
std::optional<std::vector<std::string>> ParseSubjectAltName(BytesView value);

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
std::optional<NameConstraints> ParseNameConstraints(BytesView value);

// True if `dns_name` falls within the subtree `suffix` ("example.com"
// matches itself and any subdomain).
bool DnsNameInSubtree(std::string_view dns_name, std::string_view suffix);

// Checks a DNS name against the constraints.
bool NameConstraintsAllow(const NameConstraints& nc, std::string_view dns_name);

// Subject/Authority key identifiers ------------------------------------------

void EncodeSubjectKeyIdentifier(asn1::Writer& w, BytesView key_id);
std::optional<Bytes> ParseSubjectKeyIdentifier(BytesView value);

void EncodeAuthorityKeyIdentifier(asn1::Writer& w, BytesView key_id);
std::optional<Bytes> ParseAuthorityKeyIdentifier(BytesView value);

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
