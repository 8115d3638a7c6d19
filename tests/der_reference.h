// The concatenating DER encoders the library used before asn1::Writer,
// kept as the reference the one-buffer encoders must match byte for byte
// (property_test's DerWriterDifferential). Each value was built as its own
// Bytes and copied into its parent. The bodies are the old ones verbatim;
// only what a header needs was changed: `inline`, Name::Encode as the free
// EncodeName, and calls qualified where the new overloads would otherwise
// be found as well.
//
// Below them, the allocating certificate parser the library used before
// ParseCertificate became ParseCertView plus materialization: a second walk
// of the same DER with its own copy of each field's accept rule. It is the
// reference the one walk must agree with (property_test's
// ViewFullParseAgreement), verbatim like the encoders, with Name::Decode as
// the free DecodeName building through Name::Add. Its AlgorithmIdentifier
// reader is the library's from before every SEQUENCE had to end at its
// last field, so the reference still accepts bytes after one.
//
// Last, the allocating CRL parser ParseCrlView replaced, verbatim, with the
// owned Crl it filled (which then also kept copies of the signed bytes and
// the signature): the reference of property_test's CrlAgreement. It reads
// names and extension lists through the library's Name::Read and
// ReadExtensions, as it did, and AlgorithmIdentifiers through the copy here.
#pragma once

#include <cassert>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "asn1/reader.h"
#include "asn1/writer.h"
#include "crl/crl.h"
#include "crypto/signer.h"
#include "ocsp/ocsp.h"
#include "x509/certificate.h"
#include "x509/extensions.h"
#include "x509/name.h"
#include "x509/spki.h"

namespace rev::reference {

namespace asn1 {
using namespace ::rev::asn1;

inline std::uint8_t ContextTag(unsigned n, bool constructed) {
  assert(n < 31);
  return static_cast<std::uint8_t>(0x80 | (constructed ? 0x20 : 0x00) | n);
}

inline std::size_t HeaderSize(std::size_t content_len) {
  if (content_len < 0x80) return 2;
  std::size_t len_bytes = 0;
  for (std::size_t v = content_len; v; v >>= 8) ++len_bytes;
  return 2 + len_bytes;
}

inline Bytes Tlv(std::uint8_t tag, BytesView content) {
  Bytes out;
  out.reserve(HeaderSize(content.size()) + content.size());
  out.push_back(tag);
  const std::size_t n = content.size();
  if (n < 0x80) {
    out.push_back(static_cast<std::uint8_t>(n));
  } else {
    std::uint8_t len_be[8];
    int len_bytes = 0;
    for (std::size_t v = n; v; v >>= 8)
      len_be[len_bytes++] = static_cast<std::uint8_t>(v & 0xFF);
    out.push_back(static_cast<std::uint8_t>(0x80 | len_bytes));
    for (int i = len_bytes - 1; i >= 0; --i) out.push_back(len_be[i]);
  }
  Append(out, content);
  return out;
}

inline Bytes EncodeBoolean(bool value) {
  const std::uint8_t content = value ? 0xFF : 0x00;
  return Tlv(kTagBoolean, BytesView(&content, 1));
}

inline Bytes IntegerContent(std::int64_t value) {
  // Two's-complement, minimal length.
  Bytes content;
  bool more = true;
  while (more) {
    const std::uint8_t byte = static_cast<std::uint8_t>(value & 0xFF);
    value >>= 8;
    // Finished when remaining bits are a pure sign extension of this byte.
    more = !((value == 0 && !(byte & 0x80)) || (value == -1 && (byte & 0x80)));
    content.push_back(byte);
  }
  // Bytes were collected little-endian; reverse.
  return Bytes(content.rbegin(), content.rend());
}

inline Bytes EncodeInteger(std::int64_t value) {
  return Tlv(kTagInteger, IntegerContent(value));
}

inline Bytes EncodeIntegerUnsigned(BytesView magnitude_be) {
  Bytes content;
  std::size_t skip = 0;
  while (skip < magnitude_be.size() && magnitude_be[skip] == 0) ++skip;
  if (skip == magnitude_be.size()) {
    content.push_back(0x00);
  } else {
    if (magnitude_be[skip] & 0x80) content.push_back(0x00);
    content.insert(content.end(), magnitude_be.begin() + static_cast<std::ptrdiff_t>(skip),
                   magnitude_be.end());
  }
  return Tlv(kTagInteger, content);
}

inline Bytes EncodeEnumerated(std::int64_t value) {
  return Tlv(kTagEnumerated, IntegerContent(value));
}

inline Bytes EncodeNull() { return Tlv(kTagNull, {}); }

inline Bytes EncodeOid(const Oid& oid) { return Tlv(kTagOid, oid.content()); }

inline Bytes EncodeOctetString(BytesView content) {
  return Tlv(kTagOctetString, content);
}

inline Bytes EncodeBitString(BytesView content, unsigned unused_bits = 0) {
  Bytes inner;
  inner.reserve(content.size() + 1);
  inner.push_back(static_cast<std::uint8_t>(unused_bits));
  Append(inner, content);
  return Tlv(kTagBitString, inner);
}

inline Bytes EncodeUtf8String(std::string_view s) {
  return Tlv(kTagUtf8String, ToBytes(s));
}

inline Bytes EncodePrintableString(std::string_view s) {
  return Tlv(kTagPrintableString, ToBytes(s));
}

inline Bytes EncodeIa5String(std::string_view s) {
  return Tlv(kTagIa5String, ToBytes(s));
}

inline Bytes EncodeUtcTime(util::Timestamp ts) {
  const util::CivilTime ct = util::ToCivil(ts);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%02d%02d%02d%02d%02d%02dZ", ct.year % 100,
                ct.month, ct.day, ct.hour, ct.minute, ct.second);
  return Tlv(kTagUtcTime, ToBytes(buf));
}

inline Bytes EncodeGeneralizedTime(util::Timestamp ts) {
  const util::CivilTime ct = util::ToCivil(ts);
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%04d%02d%02d%02d%02d%02dZ", ct.year,
                ct.month, ct.day, ct.hour, ct.minute, ct.second);
  return Tlv(kTagGeneralizedTime, ToBytes(buf));
}

inline Bytes EncodeTime(util::Timestamp ts) {
  const int year = util::ToCivil(ts).year;
  return (year >= 1950 && year <= 2049) ? EncodeUtcTime(ts)
                                        : EncodeGeneralizedTime(ts);
}

inline Bytes Concat(const std::vector<Bytes>& parts) {
  std::size_t total = 0;
  for (const Bytes& p : parts) total += p.size();
  Bytes out;
  out.reserve(total);
  for (const Bytes& p : parts) Append(out, p);
  return out;
}

inline Bytes EncodeSequence(const std::vector<Bytes>& children) {
  return Tlv(kTagSequence, Concat(children));
}

inline Bytes EncodeSet(const std::vector<Bytes>& children) {
  return Tlv(kTagSet, Concat(children));
}

inline Bytes EncodeContextExplicit(unsigned n, BytesView child_tlv) {
  return Tlv(ContextTag(n, /*constructed=*/true), child_tlv);
}

inline Bytes EncodeContextPrimitive(unsigned n, BytesView content) {
  return Tlv(ContextTag(n, /*constructed=*/false), content);
}

inline Bytes EncodeContextConstructed(unsigned n, BytesView content) {
  return Tlv(ContextTag(n, /*constructed=*/true), content);
}

}  // namespace asn1

namespace x509 {
using namespace ::rev::x509;

// GeneralName uniformResourceIdentifier is IMPLICIT [6] IA5String.
constexpr unsigned kGeneralNameUri = 6;
// GeneralName dNSName is IMPLICIT [2] IA5String.
constexpr unsigned kGeneralNameDns = 2;

// Generic extension: `value` holds the DER inside the extnValue OCTET STRING.
struct Extension {
  asn1::Oid oid;
  bool critical = false;
  Bytes value;
};

struct AuthorityInfoAccess {
  std::vector<std::string> ocsp_urls;
  std::vector<std::string> ca_issuer_urls;
};

inline Bytes EncodeGeneralNameUri(const std::string& uri) {
  return asn1::EncodeContextPrimitive(kGeneralNameUri, ToBytes(uri));
}

inline Bytes EncodeExtension(const Extension& ext) {
  std::vector<Bytes> parts;
  parts.push_back(asn1::EncodeOid(ext.oid));
  if (ext.critical) parts.push_back(asn1::EncodeBoolean(true));
  parts.push_back(asn1::EncodeOctetString(ext.value));
  return asn1::EncodeSequence(parts);
}

inline Bytes EncodeExtensionList(const std::vector<Extension>& exts) {
  std::vector<Bytes> parts;
  parts.reserve(exts.size());
  for (const Extension& e : exts) parts.push_back(EncodeExtension(e));
  return asn1::EncodeSequence(parts);
}

inline Extension MakeBasicConstraints(const BasicConstraints& bc) {
  std::vector<Bytes> parts;
  if (bc.is_ca) parts.push_back(asn1::EncodeBoolean(true));
  if (bc.path_len >= 0) parts.push_back(asn1::EncodeInteger(bc.path_len));
  Extension ext;
  ext.oid = asn1::oids::BasicConstraints();
  ext.critical = true;
  ext.value = asn1::EncodeSequence(parts);
  return ext;
}

inline Extension MakeKeyUsage(std::uint16_t bits) {
  // Named-bit BIT STRING: bit 0 is the MSB of the first octet; DER strips
  // trailing zero bits.
  int highest = -1;
  for (int i = 15; i >= 0; --i) {
    if (bits & (1u << i)) {
      highest = i;
      break;
    }
  }
  Bytes content;
  unsigned unused = 0;
  if (highest >= 0) {
    const int num_bits = highest + 1;
    const int num_bytes = (num_bits + 7) / 8;
    content.assign(static_cast<std::size_t>(num_bytes), 0);
    for (int i = 0; i <= highest; ++i) {
      if (bits & (1u << i))
        content[static_cast<std::size_t>(i / 8)] |= static_cast<std::uint8_t>(0x80 >> (i % 8));
    }
    unused = static_cast<unsigned>(num_bytes * 8 - num_bits);
  }
  Extension ext;
  ext.oid = asn1::oids::KeyUsage();
  ext.critical = true;
  ext.value = asn1::EncodeBitString(content, unused);
  return ext;
}

inline Extension MakeCrlDistributionPoints(const std::vector<std::string>& urls) {
  std::vector<Bytes> points;
  points.reserve(urls.size());
  for (const std::string& url : urls) {
    // DistributionPoint ::= SEQUENCE { distributionPoint [0] EXPLICIT
    //   DistributionPointName OPTIONAL, ... }
    // DistributionPointName ::= CHOICE { fullName [0] IMPLICIT GeneralNames }
    const Bytes general_name = EncodeGeneralNameUri(url);
    const Bytes full_name = asn1::EncodeContextConstructed(0, general_name);
    const Bytes dp_name = asn1::EncodeContextConstructed(0, full_name);
    points.push_back(asn1::EncodeSequence({dp_name}));
  }
  Extension ext;
  ext.oid = asn1::oids::CrlDistributionPoints();
  ext.critical = false;
  ext.value = asn1::EncodeSequence(points);
  return ext;
}

inline Extension MakeAuthorityInfoAccess(const AuthorityInfoAccess& aia) {
  std::vector<Bytes> descriptions;
  for (const std::string& url : aia.ocsp_urls) {
    descriptions.push_back(asn1::EncodeSequence(
        {asn1::EncodeOid(asn1::oids::AdOcsp()), EncodeGeneralNameUri(url)}));
  }
  for (const std::string& url : aia.ca_issuer_urls) {
    descriptions.push_back(
        asn1::EncodeSequence({asn1::EncodeOid(asn1::oids::AdCaIssuers()),
                              EncodeGeneralNameUri(url)}));
  }
  Extension ext;
  ext.oid = asn1::oids::AuthorityInfoAccess();
  ext.critical = false;
  ext.value = asn1::EncodeSequence(descriptions);
  return ext;
}

inline Extension MakeCertificatePolicies(const std::vector<asn1::Oid>& policies) {
  std::vector<Bytes> infos;
  infos.reserve(policies.size());
  for (const asn1::Oid& policy : policies)
    infos.push_back(asn1::EncodeSequence({asn1::EncodeOid(policy)}));
  Extension ext;
  ext.oid = asn1::oids::CertificatePolicies();
  ext.critical = false;
  ext.value = asn1::EncodeSequence(infos);
  return ext;
}

inline Extension MakeSubjectAltName(const std::vector<std::string>& dns_names) {
  std::vector<Bytes> names;
  names.reserve(dns_names.size());
  for (const std::string& dns : dns_names)
    names.push_back(asn1::EncodeContextPrimitive(kGeneralNameDns, ToBytes(dns)));
  Extension ext;
  ext.oid = asn1::oids::SubjectAltName();
  ext.critical = false;
  ext.value = asn1::EncodeSequence(names);
  return ext;
}

// GeneralSubtrees ::= SEQUENCE OF GeneralSubtree;
// GeneralSubtree ::= SEQUENCE { base GeneralName } (min/max omitted = DER
// defaults). We only emit dNSName bases.
inline Bytes EncodeSubtrees(const std::vector<std::string>& dns_suffixes) {
  std::vector<Bytes> subtrees;
  subtrees.reserve(dns_suffixes.size());
  for (const std::string& suffix : dns_suffixes) {
    subtrees.push_back(asn1::EncodeSequence(
        {asn1::EncodeContextPrimitive(kGeneralNameDns, ToBytes(suffix))}));
  }
  return asn1::Concat(subtrees);
}

inline Extension MakeNameConstraints(const NameConstraints& nc) {
  std::vector<Bytes> parts;
  if (!nc.permitted_dns.empty())
    parts.push_back(
        asn1::EncodeContextConstructed(0, EncodeSubtrees(nc.permitted_dns)));
  if (!nc.excluded_dns.empty())
    parts.push_back(
        asn1::EncodeContextConstructed(1, EncodeSubtrees(nc.excluded_dns)));
  Extension ext;
  ext.oid = asn1::oids::NameConstraints();
  ext.critical = true;
  ext.value = asn1::EncodeSequence(parts);
  return ext;
}

inline Extension MakeSubjectKeyIdentifier(BytesView key_id) {
  Extension ext;
  ext.oid = asn1::oids::SubjectKeyIdentifier();
  ext.critical = false;
  ext.value = asn1::EncodeOctetString(key_id);
  return ext;
}

inline Extension MakeAuthorityKeyIdentifier(BytesView key_id) {
  // AuthorityKeyIdentifier ::= SEQUENCE { keyIdentifier [0] IMPLICIT ... }
  Extension ext;
  ext.oid = asn1::oids::AuthorityKeyIdentifier();
  ext.critical = false;
  ext.value =
      asn1::EncodeSequence({asn1::EncodeContextPrimitive(0, key_id)});
  return ext;
}

inline Extension MakeCrlReason(ReasonCode rc) {
  Extension ext;
  ext.oid = asn1::oids::CrlReason();
  ext.critical = false;
  ext.value = asn1::EncodeEnumerated(static_cast<std::int64_t>(rc));
  return ext;
}

inline Extension MakeCrlNumber(std::int64_t number) {
  Extension ext;
  ext.oid = asn1::oids::CrlNumber();
  ext.critical = false;
  ext.value = asn1::EncodeInteger(number);
  return ext;
}

inline Bytes EncodeName(const Name& name) {
  std::vector<Bytes> rdns;
  rdns.reserve(name.attributes().size());
  for (const auto& attr : name.attributes()) {
    const Bytes atv = asn1::EncodeSequence(
        {asn1::EncodeOid(attr.type), asn1::EncodeUtf8String(attr.value)});
    rdns.push_back(asn1::EncodeSet({atv}));
  }
  return asn1::EncodeSequence(rdns);
}

inline Bytes EncodeSpki(const crypto::PublicKey& key) {
  Bytes alg;
  Bytes key_bits;
  if (key.type == crypto::KeyType::kRsaSha256) {
    alg = asn1::EncodeSequence(
        {asn1::EncodeOid(asn1::oids::RsaEncryption()), asn1::EncodeNull()});
    const Bytes rsa_pub = asn1::EncodeSequence(
        {asn1::EncodeIntegerUnsigned(key.rsa.n.ToBytes()),
         asn1::EncodeIntegerUnsigned(key.rsa.e.ToBytes())});
    key_bits = rsa_pub;
  } else {
    alg = asn1::EncodeSequence({asn1::EncodeOid(asn1::oids::SimSha256())});
    key_bits = key.sim_id;
  }
  return asn1::EncodeSequence({alg, asn1::EncodeBitString(key_bits)});
}

inline Bytes EncodeSignatureAlgorithm(crypto::KeyType type) {
  if (type == crypto::KeyType::kRsaSha256) {
    return asn1::EncodeSequence(
        {asn1::EncodeOid(asn1::oids::Sha256WithRsa()), asn1::EncodeNull()});
  }
  return asn1::EncodeSequence({asn1::EncodeOid(asn1::oids::SimSha256())});
}

inline std::vector<Extension> BuildExtensions(const TbsCertificate& tbs) {
  std::vector<Extension> exts;
  // Always encode BasicConstraints for CA certs; include an empty one for
  // leaves as real CAs commonly do.
  exts.push_back(MakeBasicConstraints(tbs.basic_constraints));
  if (!tbs.name_constraints.Empty())
    exts.push_back(MakeNameConstraints(tbs.name_constraints));
  if (tbs.key_usage != 0) exts.push_back(MakeKeyUsage(tbs.key_usage));
  if (!tbs.crl_urls.empty())
    exts.push_back(MakeCrlDistributionPoints(tbs.crl_urls));
  if (!tbs.ocsp_urls.empty()) {
    AuthorityInfoAccess aia;
    aia.ocsp_urls = tbs.ocsp_urls;
    exts.push_back(MakeAuthorityInfoAccess(aia));
  }
  if (!tbs.policies.empty())
    exts.push_back(MakeCertificatePolicies(tbs.policies));
  if (!tbs.dns_names.empty()) exts.push_back(MakeSubjectAltName(tbs.dns_names));
  if (!tbs.subject_key_id.empty())
    exts.push_back(MakeSubjectKeyIdentifier(tbs.subject_key_id));
  if (!tbs.authority_key_id.empty())
    exts.push_back(MakeAuthorityKeyIdentifier(tbs.authority_key_id));
  return exts;
}

inline Bytes EncodeTbs(const TbsCertificate& tbs, crypto::KeyType sig_type) {
  std::vector<Bytes> parts;
  // version [0] EXPLICIT INTEGER { v3(2) }
  parts.push_back(asn1::EncodeContextExplicit(0, asn1::EncodeInteger(2)));
  parts.push_back(asn1::EncodeIntegerUnsigned(tbs.serial));
  parts.push_back(EncodeSignatureAlgorithm(sig_type));
  parts.push_back(EncodeName(tbs.issuer));
  parts.push_back(asn1::EncodeSequence(
      {asn1::EncodeTime(tbs.not_before), asn1::EncodeTime(tbs.not_after)}));
  parts.push_back(EncodeName(tbs.subject));
  parts.push_back(EncodeSpki(tbs.public_key));
  parts.push_back(
      asn1::EncodeContextExplicit(3, EncodeExtensionList(BuildExtensions(tbs))));
  return asn1::EncodeSequence(parts);
}

inline Certificate SignCertificate(const TbsCertificate& tbs,
                            const crypto::KeyPair& issuer_key) {
  Certificate cert;
  cert.tbs = tbs;
  cert.sig_type = issuer_key.type;
  cert.tbs_der = reference::x509::EncodeTbs(tbs, issuer_key.type);
  cert.signature = crypto::Sign(issuer_key, cert.tbs_der);
  cert.der = asn1::EncodeSequence({cert.tbs_der,
                                   EncodeSignatureAlgorithm(issuer_key.type),
                                   asn1::EncodeBitString(cert.signature)});
  return cert;
}

// ------------------------------------------------------------- decoders ----

inline std::optional<Extension> DecodeExtension(asn1::Reader& r) {
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

inline std::optional<std::vector<Extension>> DecodeExtensionList(asn1::Reader& r) {
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

inline std::optional<Name> DecodeName(asn1::Reader& r) {
  asn1::Reader rdn_sequence;
  if (!r.ReadSequence(&rdn_sequence)) return std::nullopt;
  Name name;
  while (!rdn_sequence.Empty()) {
    asn1::Reader rdn_set;
    // RelativeDistinguishedName ::= SET SIZE (1..MAX) OF
    // AttributeTypeAndValue (X.501).
    if (!rdn_sequence.ReadSet(&rdn_set) || rdn_set.Empty())
      return std::nullopt;
    while (!rdn_set.Empty()) {
      asn1::Reader atv;
      if (!rdn_set.ReadSequence(&atv)) return std::nullopt;
      NameAttribute attr;
      std::string value;
      if (!atv.ReadOid(&attr.type) || !atv.ReadAnyString(&value) ||
          !atv.Empty())
        return std::nullopt;
      attr.value = std::move(value);
      name.Add(std::move(attr.type), attr.value);
    }
  }
  return name;
}

inline std::optional<crypto::PublicKey> DecodeSpki(asn1::Reader& r) {
  asn1::Reader spki;
  if (!r.ReadSequence(&spki)) return std::nullopt;
  asn1::Reader alg;
  if (!spki.ReadSequence(&alg)) return std::nullopt;
  // Compared as content bytes: an OID that is not valid DER matches neither
  // algorithm and fails like an unknown one.
  BytesView alg_oid;
  if (!alg.ReadTagged(asn1::kTagOid, &alg_oid)) return std::nullopt;

  BytesView key_bits;
  unsigned unused = 0;
  if (!spki.ReadBitString(&key_bits, &unused) || unused != 0)
    return std::nullopt;

  crypto::PublicKey key;
  if (asn1::OidContentIs(alg_oid, asn1::oids::RsaEncryption())) {
    if (!alg.ReadNull()) return std::nullopt;
    key.type = crypto::KeyType::kRsaSha256;
    asn1::Reader rsa(key_bits);
    asn1::Reader rsa_seq;
    Bytes n_be, e_be;
    if (!rsa.ReadSequence(&rsa_seq) || !rsa_seq.ReadIntegerUnsigned(&n_be) ||
        !rsa_seq.ReadIntegerUnsigned(&e_be))
      return std::nullopt;
    key.rsa.n = crypto::BigInt::FromBytes(n_be);
    key.rsa.e = crypto::BigInt::FromBytes(e_be);
  } else if (asn1::OidContentIs(alg_oid, asn1::oids::SimSha256())) {
    key.type = crypto::KeyType::kSimSha256;
    key.sim_id.assign(key_bits.begin(), key_bits.end());
    if (key.sim_id.size() != crypto::kSha256DigestSize) return std::nullopt;
  } else {
    return std::nullopt;
  }
  return key;
}

inline std::optional<BasicConstraints> ParseBasicConstraints(BytesView value) {
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

inline std::optional<std::uint16_t> ParseKeyUsage(BytesView value) {
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

inline std::optional<std::vector<std::string>> ParseCrlDistributionPoints(
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

inline std::optional<AuthorityInfoAccess> ParseAuthorityInfoAccess(BytesView value) {
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

inline std::optional<std::vector<asn1::Oid>> ParseCertificatePolicies(
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

inline std::optional<std::vector<std::string>> ParseSubjectAltName(BytesView value) {
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

inline bool DecodeSubtrees(asn1::Reader& r, std::vector<std::string>* out) {
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

inline std::optional<NameConstraints> ParseNameConstraints(BytesView value) {
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

inline std::optional<Bytes> ParseSubjectKeyIdentifier(BytesView value) {
  asn1::Reader r(value);
  BytesView id;
  if (!r.ReadOctetString(&id)) return std::nullopt;
  return Bytes(id.begin(), id.end());
}

inline std::optional<Bytes> ParseAuthorityKeyIdentifier(BytesView value) {
  asn1::Reader r(value);
  asn1::Reader seq;
  if (!r.ReadSequence(&seq)) return std::nullopt;
  BytesView id;
  if (!seq.ReadContextPrimitive(0, &id)) return std::nullopt;
  return Bytes(id.begin(), id.end());
}

inline std::optional<crypto::KeyType> DecodeSignatureAlgorithm(asn1::Reader& r) {
  asn1::Reader alg;
  if (!r.ReadSequence(&alg)) return std::nullopt;
  BytesView oid;
  if (!alg.ReadTagged(asn1::kTagOid, &oid)) return std::nullopt;
  if (asn1::OidContentIs(oid, asn1::oids::Sha256WithRsa())) {
    if (!alg.ReadNull()) return std::nullopt;
    return crypto::KeyType::kRsaSha256;
  }
  if (asn1::OidContentIs(oid, asn1::oids::SimSha256()))
    return crypto::KeyType::kSimSha256;
  return std::nullopt;
}

inline std::optional<Certificate> ParseCertificate(BytesView der) {
  asn1::Reader top(der);
  asn1::Reader cert_seq;
  if (!top.ReadSequence(&cert_seq) || !top.Empty()) return std::nullopt;

  Certificate cert;
  cert.der.assign(der.begin(), der.end());

  BytesView tbs_raw;
  {
    // Capture the raw TBS bytes, then parse them.
    asn1::Reader probe = cert_seq;
    if (!probe.ReadRawTlv(&tbs_raw)) return std::nullopt;
    cert_seq = probe;
  }
  cert.tbs_der.assign(tbs_raw.begin(), tbs_raw.end());

  asn1::Reader tbs(tbs_raw);
  asn1::Reader tbs_seq;
  if (!tbs.ReadSequence(&tbs_seq)) return std::nullopt;

  // version
  asn1::Reader version_reader;
  if (!tbs_seq.ReadContextExplicit(0, &version_reader)) return std::nullopt;
  std::int64_t version;
  if (!version_reader.ReadInteger(&version) || version != 2)
    return std::nullopt;

  if (!tbs_seq.ReadIntegerUnsigned(&cert.tbs.serial)) return std::nullopt;

  auto inner_sig_type = DecodeSignatureAlgorithm(tbs_seq);
  if (!inner_sig_type) return std::nullopt;

  auto issuer = DecodeName(tbs_seq);
  if (!issuer) return std::nullopt;
  cert.tbs.issuer = *std::move(issuer);

  asn1::Reader validity;
  if (!tbs_seq.ReadSequence(&validity) ||
      !validity.ReadTime(&cert.tbs.not_before) ||
      !validity.ReadTime(&cert.tbs.not_after))
    return std::nullopt;

  auto subject = DecodeName(tbs_seq);
  if (!subject) return std::nullopt;
  cert.tbs.subject = *std::move(subject);

  auto key = reference::x509::DecodeSpki(tbs_seq);
  if (!key) return std::nullopt;
  cert.tbs.public_key = *std::move(key);

  if (tbs_seq.NextIsContext(3)) {
    asn1::Reader ext_wrapper;
    if (!tbs_seq.ReadContextExplicit(3, &ext_wrapper)) return std::nullopt;
    auto exts = DecodeExtensionList(ext_wrapper);
    if (!exts) return std::nullopt;
    for (const Extension& ext : *exts) {
      if (ext.oid == asn1::oids::BasicConstraints()) {
        auto bc = reference::x509::ParseBasicConstraints(ext.value);
        if (!bc) return std::nullopt;
        cert.tbs.basic_constraints = *bc;
      } else if (ext.oid == asn1::oids::NameConstraints()) {
        auto nc = reference::x509::ParseNameConstraints(ext.value);
        if (!nc) return std::nullopt;
        cert.tbs.name_constraints = *std::move(nc);
      } else if (ext.oid == asn1::oids::KeyUsage()) {
        auto ku = reference::x509::ParseKeyUsage(ext.value);
        if (!ku) return std::nullopt;
        cert.tbs.key_usage = *ku;
      } else if (ext.oid == asn1::oids::CrlDistributionPoints()) {
        auto urls = reference::x509::ParseCrlDistributionPoints(ext.value);
        if (!urls) return std::nullopt;
        cert.tbs.crl_urls = *std::move(urls);
      } else if (ext.oid == asn1::oids::AuthorityInfoAccess()) {
        auto aia = reference::x509::ParseAuthorityInfoAccess(ext.value);
        if (!aia) return std::nullopt;
        cert.tbs.ocsp_urls = std::move(aia->ocsp_urls);
      } else if (ext.oid == asn1::oids::CertificatePolicies()) {
        auto policies = reference::x509::ParseCertificatePolicies(ext.value);
        if (!policies) return std::nullopt;
        cert.tbs.policies = *std::move(policies);
      } else if (ext.oid == asn1::oids::SubjectAltName()) {
        auto sans = reference::x509::ParseSubjectAltName(ext.value);
        if (!sans) return std::nullopt;
        cert.tbs.dns_names = *std::move(sans);
      } else if (ext.oid == asn1::oids::SubjectKeyIdentifier()) {
        auto ski = reference::x509::ParseSubjectKeyIdentifier(ext.value);
        if (!ski) return std::nullopt;
        cert.tbs.subject_key_id = *std::move(ski);
      } else if (ext.oid == asn1::oids::AuthorityKeyIdentifier()) {
        auto aki = reference::x509::ParseAuthorityKeyIdentifier(ext.value);
        if (!aki) return std::nullopt;
        cert.tbs.authority_key_id = *std::move(aki);
      } else if (ext.critical) {
        return std::nullopt;  // unknown critical extension
      }
    }
  }

  auto outer_sig_type = DecodeSignatureAlgorithm(cert_seq);
  if (!outer_sig_type || *outer_sig_type != *inner_sig_type)
    return std::nullopt;
  cert.sig_type = *outer_sig_type;

  BytesView sig_bits;
  unsigned unused = 0;
  if (!cert_seq.ReadBitString(&sig_bits, &unused) || unused != 0)
    return std::nullopt;
  cert.signature.assign(sig_bits.begin(), sig_bits.end());
  if (!cert_seq.Empty()) return std::nullopt;
  return cert;
}

}  // namespace x509

namespace ocsp {
using namespace ::rev::ocsp;

inline Bytes Sha256AlgorithmId() {
  return asn1::EncodeSequence(
      {asn1::EncodeOid(asn1::oids::Sha256()), asn1::EncodeNull()});
}

inline Bytes EncodeCertId(const CertId& id) {
  return asn1::EncodeSequence({Sha256AlgorithmId(),
                               asn1::EncodeOctetString(id.issuer_name_hash),
                               asn1::EncodeOctetString(id.issuer_key_hash),
                               asn1::EncodeIntegerUnsigned(id.serial)});
}

inline Bytes EncodeOcspRequest(const OcspRequest& request) {
  // requestList ::= SEQUENCE OF Request; Request ::= SEQUENCE { reqCert CertID }
  std::vector<Bytes> requests;
  requests.reserve(request.cert_ids.size());
  for (const CertId& id : request.cert_ids)
    requests.push_back(asn1::EncodeSequence({EncodeCertId(id)}));
  std::vector<Bytes> tbs_parts;
  tbs_parts.push_back(asn1::EncodeSequence(requests));  // requestList
  if (!request.nonce.empty()) {
    const x509::Extension nonce_ext{asn1::oids::OcspNonce(), false,
                                    asn1::EncodeOctetString(request.nonce)};
    tbs_parts.push_back(asn1::EncodeContextExplicit(
        2, x509::EncodeExtensionList({nonce_ext})));
  }
  const Bytes tbs = asn1::EncodeSequence(tbs_parts);
  return asn1::EncodeSequence({tbs});
}

inline Bytes EncodeSingleResponse(const SingleResponse& single) {
  std::vector<Bytes> parts;
  parts.push_back(EncodeCertId(single.cert_id));
  switch (single.status) {
    case CertStatus::kGood:
      parts.push_back(asn1::EncodeContextPrimitive(0, {}));
      break;
    case CertStatus::kRevoked: {
      std::vector<Bytes> revoked_info;
      revoked_info.push_back(asn1::EncodeGeneralizedTime(single.revocation_time));
      if (single.reason != x509::ReasonCode::kNoReasonCode) {
        revoked_info.push_back(asn1::EncodeContextExplicit(
            0, asn1::EncodeEnumerated(static_cast<std::int64_t>(single.reason))));
      }
      parts.push_back(
          asn1::EncodeContextConstructed(1, asn1::Concat(revoked_info)));
      break;
    }
    case CertStatus::kUnknown:
      parts.push_back(asn1::EncodeContextPrimitive(2, {}));
      break;
  }
  parts.push_back(asn1::EncodeGeneralizedTime(single.this_update));
  if (single.next_update != 0) {
    parts.push_back(asn1::EncodeContextExplicit(
        0, asn1::EncodeGeneralizedTime(single.next_update)));
  }
  return asn1::EncodeSequence(parts);
}

inline OcspResponse SignOcspResponse(const SingleResponse& single,
                              util::Timestamp produced_at,
                              const crypto::KeyPair& responder_key) {
  return SignOcspResponse(std::vector<SingleResponse>{single}, produced_at,
                          responder_key, {});
}

inline OcspResponse SignOcspResponse(const std::vector<SingleResponse>& singles,
                              util::Timestamp produced_at,
                              const crypto::KeyPair& responder_key,
                              BytesView nonce) {
  OcspResponse response;
  if (singles.empty()) return reference::ocsp::MakeErrorResponse(ResponseStatus::kInternalError);
  response.status = ResponseStatus::kSuccessful;
  response.single = singles.front();
  response.more_singles.assign(singles.begin() + 1, singles.end());
  response.nonce.assign(nonce.begin(), nonce.end());
  response.produced_at = produced_at;
  response.sig_type = responder_key.type;

  // ResponseData ::= SEQUENCE { responderID [2] byKey, producedAt,
  //                             responses SEQUENCE OF SingleResponse,
  //                             responseExtensions [1] EXPLICIT OPTIONAL }
  const Bytes responder_id = asn1::EncodeContextConstructed(
      2, asn1::EncodeOctetString(singles.front().cert_id.issuer_key_hash));
  std::vector<Bytes> encoded_singles;
  encoded_singles.reserve(singles.size());
  for (const SingleResponse& single : singles)
    encoded_singles.push_back(EncodeSingleResponse(single));
  std::vector<Bytes> data_parts{responder_id,
                                asn1::EncodeGeneralizedTime(produced_at),
                                asn1::EncodeSequence(encoded_singles)};
  if (!nonce.empty()) {
    const x509::Extension nonce_ext{asn1::oids::OcspNonce(), false,
                                    asn1::EncodeOctetString(response.nonce)};
    data_parts.push_back(asn1::EncodeContextExplicit(
        1, x509::EncodeExtensionList({nonce_ext})));
  }
  response.tbs_der = asn1::EncodeSequence(data_parts);
  response.signature = crypto::Sign(responder_key, response.tbs_der);

  const Bytes basic = asn1::EncodeSequence(
      {response.tbs_der, x509::EncodeSignatureAlgorithm(responder_key.type),
       asn1::EncodeBitString(response.signature)});
  const Bytes response_bytes = asn1::EncodeSequence(
      {asn1::EncodeOid(asn1::oids::OcspBasic()),
       asn1::EncodeOctetString(basic)});
  response.der = asn1::EncodeSequence(
      {asn1::EncodeEnumerated(0),
       asn1::EncodeContextExplicit(0, response_bytes)});
  return response;
}

inline OcspResponse MakeErrorResponse(ResponseStatus status) {
  OcspResponse response;
  response.status = status;
  response.der = asn1::EncodeSequence(
      {asn1::EncodeEnumerated(static_cast<std::int64_t>(status))});
  return response;
}

}  // namespace ocsp

namespace crl {
using namespace ::rev::crl;

inline Bytes EncodeEntry(const CrlEntry& entry) {
  std::vector<Bytes> parts;
  parts.push_back(asn1::EncodeIntegerUnsigned(entry.serial));
  parts.push_back(asn1::EncodeTime(entry.revocation_date));
  if (entry.reason != x509::ReasonCode::kNoReasonCode) {
    parts.push_back(x509::EncodeExtensionList({x509::MakeCrlReason(entry.reason)}));
  }
  return asn1::EncodeSequence(parts);
}

inline Bytes EncodeTbsCrl(const TbsCrl& tbs, crypto::KeyType sig_type) {
  std::vector<Bytes> parts;
  parts.push_back(asn1::EncodeInteger(1));  // v2
  parts.push_back(x509::EncodeSignatureAlgorithm(sig_type));
  parts.push_back(x509::EncodeName(tbs.issuer));
  parts.push_back(asn1::EncodeTime(tbs.this_update));
  if (tbs.next_update != 0) parts.push_back(asn1::EncodeTime(tbs.next_update));
  if (!tbs.entries.empty()) {
    std::vector<Bytes> entries;
    entries.reserve(tbs.entries.size());
    for (const CrlEntry& e : tbs.entries) entries.push_back(EncodeEntry(e));
    parts.push_back(asn1::EncodeSequence(entries));
  }
  if (tbs.crl_number >= 0) {
    parts.push_back(asn1::EncodeContextExplicit(
        0, x509::EncodeExtensionList({x509::MakeCrlNumber(tbs.crl_number)})));
  }
  return asn1::EncodeSequence(parts);
}

struct Crl {
  TbsCrl tbs;
  crypto::KeyType sig_type = crypto::KeyType::kSimSha256;
  Bytes tbs_der;
  Bytes signature;
  Bytes der;
};

inline Crl SignCrl(const TbsCrl& tbs, const crypto::KeyPair& issuer_key) {
  Crl crl;
  crl.tbs = tbs;
  crl.sig_type = issuer_key.type;
  crl.tbs_der = EncodeTbsCrl(tbs, issuer_key.type);
  crl.signature = crypto::Sign(issuer_key, crl.tbs_der);
  crl.der = asn1::EncodeSequence(
      {crl.tbs_der, x509::EncodeSignatureAlgorithm(issuer_key.type),
       asn1::EncodeBitString(crl.signature)});
  return crl;
}

inline std::optional<Crl> ParseCrl(BytesView der) {
  asn1::Reader top(der);
  asn1::Reader crl_seq;
  if (!top.ReadSequence(&crl_seq) || !top.Empty()) return std::nullopt;

  Crl crl;
  crl.der.assign(der.begin(), der.end());

  BytesView tbs_raw;
  {
    asn1::Reader probe = crl_seq;
    if (!probe.ReadRawTlv(&tbs_raw)) return std::nullopt;
    crl_seq = probe;
  }
  crl.tbs_der.assign(tbs_raw.begin(), tbs_raw.end());

  asn1::Reader tbs(tbs_raw);
  asn1::Reader tbs_seq;
  if (!tbs.ReadSequence(&tbs_seq)) return std::nullopt;

  std::int64_t version;
  if (!tbs_seq.ReadInteger(&version) || version != 1) return std::nullopt;

  auto inner_sig_type = x509::DecodeSignatureAlgorithm(tbs_seq);
  if (!inner_sig_type) return std::nullopt;

  if (!x509::Name::Read(tbs_seq, nullptr, &crl.tbs.issuer))
    return std::nullopt;

  if (!tbs_seq.ReadTime(&crl.tbs.this_update)) return std::nullopt;

  // nextUpdate is OPTIONAL: present iff next TLV is a time type.
  if (tbs_seq.NextIs(asn1::kTagUtcTime) ||
      tbs_seq.NextIs(asn1::kTagGeneralizedTime)) {
    if (!tbs_seq.ReadTime(&crl.tbs.next_update)) return std::nullopt;
  }

  if (tbs_seq.NextIs(asn1::kTagSequence)) {
    asn1::Reader entries;
    if (!tbs_seq.ReadSequence(&entries)) return std::nullopt;
    while (!entries.Empty()) {
      asn1::Reader entry_seq;
      if (!entries.ReadSequence(&entry_seq)) return std::nullopt;
      CrlEntry entry;
      if (!entry_seq.ReadIntegerUnsigned(&entry.serial) ||
          !entry_seq.ReadTime(&entry.revocation_date))
        return std::nullopt;
      if (entry_seq.NextIs(asn1::kTagSequence)) {
        x509::Extensions exts;
        if (!x509::ReadExtensions(entry_seq, &exts)) return std::nullopt;
        for (const x509::ExtensionView& ext : exts) {
          if (asn1::OidContentIs(ext.oid, asn1::oids::CrlReason())) {
            auto reason = x509::ParseCrlReason(ext.value);
            if (!reason) return std::nullopt;
            entry.reason = *reason;
          }
        }
      }
      crl.tbs.entries.push_back(std::move(entry));
    }
  }

  if (tbs_seq.NextIsContext(0)) {
    asn1::Reader ext_wrapper;
    if (!tbs_seq.ReadContextExplicit(0, &ext_wrapper)) return std::nullopt;
    x509::Extensions exts;
    if (!x509::ReadExtensions(ext_wrapper, &exts)) return std::nullopt;
    for (const x509::ExtensionView& ext : exts) {
      if (asn1::OidContentIs(ext.oid, asn1::oids::CrlNumber())) {
        auto number = x509::ParseCrlNumber(ext.value);
        if (!number) return std::nullopt;
        crl.tbs.crl_number = *number;
      }
    }
  }

  auto outer_sig_type = x509::DecodeSignatureAlgorithm(crl_seq);
  if (!outer_sig_type || *outer_sig_type != *inner_sig_type)
    return std::nullopt;
  crl.sig_type = *outer_sig_type;

  BytesView sig_bits;
  unsigned unused = 0;
  if (!crl_seq.ReadBitString(&sig_bits, &unused) || unused != 0)
    return std::nullopt;
  crl.signature.assign(sig_bits.begin(), sig_bits.end());
  if (!crl_seq.Empty()) return std::nullopt;
  return crl;
}

}  // namespace crl

}  // namespace rev::reference
