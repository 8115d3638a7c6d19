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

std::optional<Extension> DecodeExtension(asn1::Reader& r) {
  asn1::Reader seq;
  if (!r.ReadSequence(&seq)) return std::nullopt;
  Extension ext;
  if (!seq.ReadOid(&ext.oid)) return std::nullopt;
  if (seq.NextIs(asn1::kTagBoolean)) {
    if (!seq.ReadBoolean(&ext.critical)) return std::nullopt;
  }
  BytesView value;
  if (!seq.ReadOctetString(&value)) return std::nullopt;
  ext.value.assign(value.begin(), value.end());
  return ext;
}

std::optional<std::vector<Extension>> DecodeExtensionList(asn1::Reader& r) {
  asn1::Reader list;
  if (!r.ReadSequence(&list)) return std::nullopt;
  std::vector<Extension> out;
  while (!list.Empty()) {
    auto ext = DecodeExtension(list);
    if (!ext) return std::nullopt;
    out.push_back(*std::move(ext));
  }
  return out;
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

std::optional<BasicConstraints> ParseBasicConstraints(BytesView value) {
  asn1::Reader r(value);
  asn1::Reader seq;
  if (!r.ReadSequence(&seq)) return std::nullopt;
  BasicConstraints bc;
  if (seq.NextIs(asn1::kTagBoolean)) {
    if (!seq.ReadBoolean(&bc.is_ca)) return std::nullopt;
  }
  if (seq.NextIs(asn1::kTagInteger)) {
    std::int64_t v;
    if (!seq.ReadInteger(&v) || v < 0) return std::nullopt;
    bc.path_len = static_cast<int>(v);
  }
  return bc;
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

std::optional<std::uint16_t> ParseKeyUsage(BytesView value) {
  asn1::Reader r(value);
  BytesView content;
  unsigned unused;
  if (!r.ReadBitString(&content, &unused)) return std::nullopt;
  std::uint16_t bits = 0;
  for (std::size_t byte = 0; byte < content.size() && byte < 2; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      if (content[byte] & (0x80 >> bit))
        bits |= static_cast<std::uint16_t>(1u << (byte * 8 + static_cast<std::size_t>(bit)));
    }
  }
  return bits;
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

std::optional<std::vector<std::string>> ParseCrlDistributionPoints(
    BytesView value) {
  asn1::Reader r(value);
  asn1::Reader points;
  if (!r.ReadSequence(&points)) return std::nullopt;
  std::vector<std::string> urls;
  while (!points.Empty()) {
    asn1::Reader point;
    if (!points.ReadSequence(&point)) return std::nullopt;
    asn1::Reader dp_name;
    if (!point.ReadContextConstructed(0, &dp_name)) continue;
    asn1::Reader full_name;
    if (!dp_name.ReadContextConstructed(0, &full_name)) continue;
    while (!full_name.Empty()) {
      BytesView uri;
      if (full_name.ReadContextPrimitive(kGeneralNameUri, &uri)) {
        urls.emplace_back(uri.begin(), uri.end());
      } else {
        // Skip non-URI general names.
        std::uint8_t tag;
        BytesView skipped;
        if (!full_name.ReadTlv(&tag, &skipped)) return std::nullopt;
      }
    }
  }
  return urls;
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

std::optional<AuthorityInfoAccess> ParseAuthorityInfoAccess(BytesView value) {
  asn1::Reader r(value);
  asn1::Reader descriptions;
  if (!r.ReadSequence(&descriptions)) return std::nullopt;
  AuthorityInfoAccess aia;
  while (!descriptions.Empty()) {
    asn1::Reader desc;
    if (!descriptions.ReadSequence(&desc)) return std::nullopt;
    asn1::Oid method;
    BytesView uri;
    if (!desc.ReadOid(&method)) return std::nullopt;
    if (!desc.ReadContextPrimitive(kGeneralNameUri, &uri)) continue;
    if (method == asn1::oids::AdOcsp()) {
      aia.ocsp_urls.emplace_back(uri.begin(), uri.end());
    } else if (method == asn1::oids::AdCaIssuers()) {
      aia.ca_issuer_urls.emplace_back(uri.begin(), uri.end());
    }
  }
  return aia;
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

std::optional<std::vector<asn1::Oid>> ParseCertificatePolicies(
    BytesView value) {
  asn1::Reader r(value);
  asn1::Reader infos;
  if (!r.ReadSequence(&infos)) return std::nullopt;
  std::vector<asn1::Oid> out;
  while (!infos.Empty()) {
    asn1::Reader info;
    if (!infos.ReadSequence(&info)) return std::nullopt;
    asn1::Oid policy;
    if (!info.ReadOid(&policy)) return std::nullopt;
    out.push_back(std::move(policy));
  }
  return out;
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

std::optional<std::vector<std::string>> ParseSubjectAltName(BytesView value) {
  asn1::Reader r(value);
  asn1::Reader names;
  if (!r.ReadSequence(&names)) return std::nullopt;
  std::vector<std::string> out;
  while (!names.Empty()) {
    BytesView dns;
    if (names.ReadContextPrimitive(kGeneralNameDns, &dns)) {
      out.emplace_back(dns.begin(), dns.end());
    } else {
      std::uint8_t tag;
      BytesView skipped;
      if (!names.ReadTlv(&tag, &skipped)) return std::nullopt;
    }
  }
  return out;
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
      out->emplace_back(dns.begin(), dns.end());
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

std::optional<NameConstraints> ParseNameConstraints(BytesView value) {
  asn1::Reader r(value);
  asn1::Reader seq;
  if (!r.ReadSequence(&seq)) return std::nullopt;
  NameConstraints nc;
  if (seq.NextIsContext(0)) {
    asn1::Reader permitted;
    if (!seq.ReadContextConstructed(0, &permitted) ||
        !DecodeSubtrees(permitted, &nc.permitted_dns))
      return std::nullopt;
  }
  if (seq.NextIsContext(1)) {
    asn1::Reader excluded;
    if (!seq.ReadContextConstructed(1, &excluded) ||
        !DecodeSubtrees(excluded, &nc.excluded_dns))
      return std::nullopt;
  }
  return nc;
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

std::optional<Bytes> ParseSubjectKeyIdentifier(BytesView value) {
  asn1::Reader r(value);
  BytesView id;
  if (!r.ReadOctetString(&id)) return std::nullopt;
  return Bytes(id.begin(), id.end());
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

std::optional<Bytes> ParseAuthorityKeyIdentifier(BytesView value) {
  asn1::Reader r(value);
  asn1::Reader seq;
  if (!r.ReadSequence(&seq)) return std::nullopt;
  BytesView id;
  if (!seq.ReadContextPrimitive(0, &id)) return std::nullopt;
  return Bytes(id.begin(), id.end());
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
