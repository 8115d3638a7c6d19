#include "x509/extensions.h"

namespace rev::x509 {

namespace {
// GeneralName uniformResourceIdentifier is IMPLICIT [6] IA5String.
constexpr unsigned kGeneralNameUri = 6;
// GeneralName dNSName is IMPLICIT [2] IA5String.
constexpr unsigned kGeneralNameDns = 2;
}  // namespace

ExtensionMark BeginExtension(asn1::Writer& w, const asn1::Oid& oid,
                             bool critical) {
  const std::size_t extension = w.Begin(asn1::kTagSequence);
  w.ObjectId(oid);
  if (critical) w.Boolean(true);
  return {extension, w.Begin(asn1::kTagOctetString)};
}

void EndExtension(asn1::Writer& w, ExtensionMark mark) {
  w.End(mark.value);
  w.End(mark.extension);
}

bool ReadExtension(asn1::Reader& r, ExtensionView* out) {
  asn1::Reader ext;
  out->critical = false;
  return r.ReadSequence(&ext) && ext.ReadOidView(&out->oid) &&
         (!ext.NextIs(asn1::kTagBoolean) || ext.ReadBoolean(&out->critical)) &&
         ext.ReadOctetString(&out->value) && ext.Empty();
}

CertExtension ClassifyCertExtension(BytesView oid_content) {
  namespace oids = asn1::oids;
  // In CertExtension order.
  static const asn1::Oid* const kKnown[] = {
      &oids::BasicConstraints(),      &oids::NameConstraints(),
      &oids::KeyUsage(),              &oids::CrlDistributionPoints(),
      &oids::AuthorityInfoAccess(),   &oids::CertificatePolicies(),
      &oids::SubjectAltName(),        &oids::SubjectKeyIdentifier(),
      &oids::AuthorityKeyIdentifier()};
  for (std::size_t i = 0; i < std::size(kKnown); ++i)
    if (asn1::OidContentIs(oid_content, *kKnown[i]))
      return static_cast<CertExtension>(i);
  return CertExtension::kUnknown;
}

// BasicConstraints ----------------------------------------------------------

void EncodeBasicConstraints(asn1::Writer& w, const BasicConstraints& bc) {
  const ExtensionMark ext =
      BeginExtension(w, asn1::oids::BasicConstraints(), /*critical=*/true);
  const std::size_t seq = w.Begin(asn1::kTagSequence);
  if (bc.is_ca) w.Boolean(true);
  if (bc.path_len >= 0) w.Integer(bc.path_len);
  w.End(seq);
  EndExtension(w, ext);
}

bool ParseBasicConstraints(BytesView value, BasicConstraints* out) {
  asn1::Reader r(value);
  asn1::Reader seq;
  if (!r.ReadSequence(&seq)) return false;
  BasicConstraints bc;
  if (seq.NextIs(asn1::kTagBoolean)) {
    if (!seq.ReadBoolean(&bc.is_ca)) return false;
  }
  if (seq.NextIs(asn1::kTagInteger)) {
    std::int64_t v;
    if (!seq.ReadInteger(&v) || v < 0) return false;
    bc.path_len = static_cast<int>(v);
  }
  if (out) *out = bc;
  return true;
}

// KeyUsage ------------------------------------------------------------------

void EncodeKeyUsage(asn1::Writer& w, std::uint16_t bits) {
  // Named-bit BIT STRING: bit 0 is the MSB of the first octet; DER strips
  // trailing zero bits.
  int highest = -1;
  for (int i = 15; i >= 0; --i) {
    if (bits & (1u << i)) {
      highest = i;
      break;
    }
  }
  std::uint8_t content[2] = {0, 0};
  std::size_t num_bytes = 0;
  unsigned unused = 0;
  if (highest >= 0) {
    const int num_bits = highest + 1;
    num_bytes = static_cast<std::size_t>((num_bits + 7) / 8);
    for (int i = 0; i <= highest; ++i) {
      if (bits & (1u << i))
        content[i / 8] |= static_cast<std::uint8_t>(0x80 >> (i % 8));
    }
    unused = static_cast<unsigned>(static_cast<int>(num_bytes) * 8 - num_bits);
  }
  const ExtensionMark ext =
      BeginExtension(w, asn1::oids::KeyUsage(), /*critical=*/true);
  w.BitString(BytesView(content, num_bytes), unused);
  EndExtension(w, ext);
}

bool ParseKeyUsage(BytesView value, std::uint16_t* bits) {
  asn1::Reader r(value);
  BytesView content;
  unsigned unused;
  if (!r.ReadBitString(&content, &unused)) return false;
  if (!bits) return true;
  *bits = 0;
  for (std::size_t byte = 0; byte < content.size() && byte < 2; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      if (content[byte] & (0x80 >> bit))
        *bits |= static_cast<std::uint16_t>(1u << (byte * 8 + static_cast<std::size_t>(bit)));
    }
  }
  return true;
}

// CRLDistributionPoints -----------------------------------------------------

void EncodeCrlDistributionPoints(asn1::Writer& w,
                                 std::span<const std::string> urls) {
  const ExtensionMark ext = BeginExtension(
      w, asn1::oids::CrlDistributionPoints(), /*critical=*/false);
  const std::size_t points = w.Begin(asn1::kTagSequence);
  for (const std::string& url : urls) {
    // DistributionPoint ::= SEQUENCE { distributionPoint [0] EXPLICIT
    //   DistributionPointName OPTIONAL, ... }
    // DistributionPointName ::= CHOICE { fullName [0] IMPLICIT GeneralNames }
    const std::size_t point = w.Begin(asn1::kTagSequence);
    const std::size_t dp_name = w.BeginContext(0);
    const std::size_t full_name = w.BeginContext(0);
    w.ContextPrimitive(kGeneralNameUri, AsBytes(url));
    w.End(full_name);
    w.End(dp_name);
    w.End(point);
  }
  w.End(points);
  EndExtension(w, ext);
}

bool ParseCrlDistributionPoints(BytesView value,
                                std::vector<std::string_view>* urls) {
  asn1::Reader r(value);
  asn1::Reader points;
  if (!r.ReadSequence(&points)) return false;
  while (!points.Empty()) {
    asn1::Reader point;
    if (!points.ReadSequence(&point)) return false;
    asn1::Reader dp_name;
    if (!point.ReadContextConstructed(0, &dp_name)) continue;
    asn1::Reader full_name;
    if (!dp_name.ReadContextConstructed(0, &full_name)) continue;
    while (!full_name.Empty()) {
      BytesView uri;
      if (full_name.ReadContextPrimitive(kGeneralNameUri, &uri)) {
        urls->push_back(AsStringView(uri));
      } else {
        // Skip non-URI general names.
        std::uint8_t tag;
        BytesView skipped;
        if (!full_name.ReadTlv(&tag, &skipped)) return false;
      }
    }
  }
  return true;
}

// AuthorityInfoAccess -------------------------------------------------------

void EncodeAuthorityInfoAccess(asn1::Writer& w,
                               std::span<const std::string> ocsp_urls,
                               std::span<const std::string> ca_issuer_urls) {
  const ExtensionMark ext = BeginExtension(
      w, asn1::oids::AuthorityInfoAccess(), /*critical=*/false);
  const std::size_t descriptions = w.Begin(asn1::kTagSequence);
  const auto describe = [&w](const asn1::Oid& method, const std::string& url) {
    const std::size_t description = w.Begin(asn1::kTagSequence);
    w.ObjectId(method);
    w.ContextPrimitive(kGeneralNameUri, AsBytes(url));
    w.End(description);
  };
  for (const std::string& url : ocsp_urls) describe(asn1::oids::AdOcsp(), url);
  for (const std::string& url : ca_issuer_urls)
    describe(asn1::oids::AdCaIssuers(), url);
  w.End(descriptions);
  EndExtension(w, ext);
}

bool ParseAuthorityInfoAccess(BytesView value,
                              std::vector<std::string_view>* ocsp_urls) {
  asn1::Reader r(value);
  asn1::Reader descriptions;
  if (!r.ReadSequence(&descriptions)) return false;
  while (!descriptions.Empty()) {
    asn1::Reader desc;
    BytesView method;
    BytesView uri;
    if (!descriptions.ReadSequence(&desc) || !desc.ReadOidView(&method))
      return false;
    if (!desc.ReadContextPrimitive(kGeneralNameUri, &uri)) continue;
    if (ocsp_urls && asn1::OidContentIs(method, asn1::oids::AdOcsp()))
      ocsp_urls->push_back(AsStringView(uri));
  }
  return true;
}

// CertificatePolicies -------------------------------------------------------

void EncodeCertificatePolicies(asn1::Writer& w,
                               std::span<const asn1::Oid> policies) {
  const ExtensionMark ext = BeginExtension(
      w, asn1::oids::CertificatePolicies(), /*critical=*/false);
  const std::size_t infos = w.Begin(asn1::kTagSequence);
  for (const asn1::Oid& policy : policies) {
    const std::size_t info = w.Begin(asn1::kTagSequence);
    w.ObjectId(policy);
    w.End(info);
  }
  w.End(infos);
  EndExtension(w, ext);
}

bool ParseCertificatePolicies(BytesView value,
                              std::vector<asn1::Oid>* policies, bool* is_ev) {
  asn1::Reader r(value);
  asn1::Reader infos;
  if (!r.ReadSequence(&infos)) return false;
  while (!infos.Empty()) {
    asn1::Reader info;
    BytesView policy;
    if (!infos.ReadSequence(&info) || !info.ReadOidView(&policy)) return false;
    if (is_ev && asn1::OidContentIs(policy, asn1::oids::VerisignEvPolicy()))
      *is_ev = true;
    if (policies) policies->push_back(*asn1::Oid::DecodeContent(policy));
  }
  return true;
}

// SubjectAltName ------------------------------------------------------------

void EncodeSubjectAltName(asn1::Writer& w,
                          std::span<const std::string> dns_names) {
  const ExtensionMark ext =
      BeginExtension(w, asn1::oids::SubjectAltName(), /*critical=*/false);
  const std::size_t names = w.Begin(asn1::kTagSequence);
  for (const std::string& dns : dns_names)
    w.ContextPrimitive(kGeneralNameDns, AsBytes(dns));
  w.End(names);
  EndExtension(w, ext);
}

bool ParseSubjectAltName(BytesView value,
                         std::vector<std::string>* dns_names) {
  asn1::Reader r(value);
  asn1::Reader names;
  if (!r.ReadSequence(&names)) return false;
  while (!names.Empty()) {
    BytesView dns;
    if (names.ReadContextPrimitive(kGeneralNameDns, &dns)) {
      if (dns_names) dns_names->emplace_back(AsStringView(dns));
    } else {
      std::uint8_t tag;
      BytesView skipped;
      if (!names.ReadTlv(&tag, &skipped)) return false;
    }
  }
  return true;
}

// NameConstraints -------------------------------------------------------------

namespace {

// GeneralSubtrees ::= SEQUENCE OF GeneralSubtree;
// GeneralSubtree ::= SEQUENCE { base GeneralName } (min/max omitted = DER
// defaults). We only emit dNSName bases, as the [n] IMPLICIT GeneralSubtrees.
void EncodeSubtrees(asn1::Writer& w, unsigned n,
                    const std::vector<std::string>& dns_suffixes) {
  const std::size_t subtrees = w.BeginContext(n);
  for (const std::string& suffix : dns_suffixes) {
    const std::size_t subtree = w.Begin(asn1::kTagSequence);
    w.ContextPrimitive(kGeneralNameDns, AsBytes(suffix));
    w.End(subtree);
  }
  w.End(subtrees);
}

bool DecodeSubtrees(asn1::Reader& r, std::vector<std::string>* out) {
  while (!r.Empty()) {
    asn1::Reader subtree;
    if (!r.ReadSequence(&subtree)) return false;
    BytesView dns;
    if (subtree.ReadContextPrimitive(kGeneralNameDns, &dns)) {
      if (out) out->emplace_back(AsStringView(dns));
    } else {
      std::uint8_t tag;
      BytesView skipped;
      if (!subtree.ReadTlv(&tag, &skipped)) return false;  // skip other bases
    }
  }
  return true;
}

}  // namespace

void EncodeNameConstraints(asn1::Writer& w, const NameConstraints& nc) {
  const ExtensionMark ext =
      BeginExtension(w, asn1::oids::NameConstraints(), /*critical=*/true);
  const std::size_t seq = w.Begin(asn1::kTagSequence);
  if (!nc.permitted_dns.empty()) EncodeSubtrees(w, 0, nc.permitted_dns);
  if (!nc.excluded_dns.empty()) EncodeSubtrees(w, 1, nc.excluded_dns);
  w.End(seq);
  EndExtension(w, ext);
}

bool ParseNameConstraints(BytesView value, NameConstraints* out) {
  asn1::Reader r(value);
  asn1::Reader seq;
  if (!r.ReadSequence(&seq)) return false;
  if (seq.NextIsContext(0)) {
    asn1::Reader permitted;
    if (!seq.ReadContextConstructed(0, &permitted) ||
        !DecodeSubtrees(permitted, out ? &out->permitted_dns : nullptr))
      return false;
  }
  if (seq.NextIsContext(1)) {
    asn1::Reader excluded;
    if (!seq.ReadContextConstructed(1, &excluded) ||
        !DecodeSubtrees(excluded, out ? &out->excluded_dns : nullptr))
      return false;
  }
  return true;
}

bool DnsNameInSubtree(std::string_view dns_name, std::string_view suffix) {
  if (suffix.empty()) return true;
  if (dns_name.size() < suffix.size()) return false;
  if (dns_name.size() == suffix.size()) return dns_name == suffix;
  // Must match on a label boundary: "notexample.com" !< "example.com".
  return dns_name.substr(dns_name.size() - suffix.size()) == suffix &&
         dns_name[dns_name.size() - suffix.size() - 1] == '.';
}

bool NameConstraintsAllow(const NameConstraints& nc,
                          std::string_view dns_name) {
  for (const std::string& excluded : nc.excluded_dns)
    if (DnsNameInSubtree(dns_name, excluded)) return false;
  if (nc.permitted_dns.empty()) return true;
  for (const std::string& permitted : nc.permitted_dns)
    if (DnsNameInSubtree(dns_name, permitted)) return true;
  return false;
}

// Key identifiers -----------------------------------------------------------

void EncodeSubjectKeyIdentifier(asn1::Writer& w, BytesView key_id) {
  const ExtensionMark ext = BeginExtension(
      w, asn1::oids::SubjectKeyIdentifier(), /*critical=*/false);
  w.OctetString(key_id);
  EndExtension(w, ext);
}

bool ParseSubjectKeyIdentifier(BytesView value, Bytes* key_id) {
  asn1::Reader r(value);
  BytesView id;
  if (!r.ReadOctetString(&id)) return false;
  if (key_id) key_id->assign(id.begin(), id.end());
  return true;
}

void EncodeAuthorityKeyIdentifier(asn1::Writer& w, BytesView key_id) {
  // AuthorityKeyIdentifier ::= SEQUENCE { keyIdentifier [0] IMPLICIT ... }
  const ExtensionMark ext = BeginExtension(
      w, asn1::oids::AuthorityKeyIdentifier(), /*critical=*/false);
  const std::size_t seq = w.Begin(asn1::kTagSequence);
  w.ContextPrimitive(0, key_id);
  w.End(seq);
  EndExtension(w, ext);
}

bool ParseAuthorityKeyIdentifier(BytesView value, Bytes* key_id) {
  asn1::Reader r(value);
  asn1::Reader seq;
  BytesView id;
  if (!r.ReadSequence(&seq) || !seq.ReadContextPrimitive(0, &id)) return false;
  if (key_id) key_id->assign(id.begin(), id.end());
  return true;
}

// CRL extensions ------------------------------------------------------------

const char* ReasonCodeName(ReasonCode rc) {
  switch (rc) {
    case ReasonCode::kNoReasonCode: return "noReasonCode";
    case ReasonCode::kUnspecified: return "unspecified";
    case ReasonCode::kKeyCompromise: return "keyCompromise";
    case ReasonCode::kCaCompromise: return "cACompromise";
    case ReasonCode::kAffiliationChanged: return "affiliationChanged";
    case ReasonCode::kSuperseded: return "superseded";
    case ReasonCode::kCessationOfOperation: return "cessationOfOperation";
    case ReasonCode::kCertificateHold: return "certificateHold";
    case ReasonCode::kRemoveFromCrl: return "removeFromCRL";
    case ReasonCode::kPrivilegeWithdrawn: return "privilegeWithdrawn";
    case ReasonCode::kAaCompromise: return "aACompromise";
  }
  return "unknown";
}

void EncodeCrlReason(asn1::Writer& w, ReasonCode rc) {
  const ExtensionMark ext =
      BeginExtension(w, asn1::oids::CrlReason(), /*critical=*/false);
  w.Enumerated(static_cast<std::int64_t>(rc));
  EndExtension(w, ext);
}

std::optional<ReasonCode> ParseCrlReason(BytesView value) {
  asn1::Reader r(value);
  std::int64_t v;
  if (!r.ReadEnumerated(&v) || v < 0 || v > 10 || v == 7) return std::nullopt;
  return static_cast<ReasonCode>(v);
}

void EncodeCrlNumber(asn1::Writer& w, std::int64_t number) {
  const ExtensionMark ext =
      BeginExtension(w, asn1::oids::CrlNumber(), /*critical=*/false);
  w.Integer(number);
  EndExtension(w, ext);
}

std::optional<std::int64_t> ParseCrlNumber(BytesView value) {
  asn1::Reader r(value);
  std::int64_t v;
  if (!r.ReadInteger(&v) || v < 0) return std::nullopt;
  return v;
}

}  // namespace rev::x509
