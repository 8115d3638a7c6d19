#include "x509/view.h"

#include "asn1/oid.h"
#include "asn1/reader.h"
#include "asn1/writer.h"
#include "x509/spki.h"

namespace rev::x509 {

namespace {

constexpr unsigned kGeneralNameUri = 6;

using asn1::OidContentIs;

// Reads an OBJECT IDENTIFIER as a borrowed view of its content octets,
// rejecting what Reader::ReadOid rejects, without building an Oid.
bool ReadOidView(asn1::Reader& r, BytesView* content) {
  return r.ReadTagged(asn1::kTagOid, content) &&
         asn1::Oid::IsValidContent(*content);
}

// Name check, accepting exactly what Name::Decode accepts without copying
// a byte: a SEQUENCE of non-empty SETs of AttributeTypeAndValue, each an
// OID and a string with nothing after it. The raw bytes are the DerKey.
bool ValidateNameTlv(asn1::Reader& r, BytesView* name_der) {
  {
    asn1::Reader probe = r;
    if (!probe.ReadRawTlv(name_der)) return false;
  }
  asn1::Reader rdns;
  if (!r.ReadSequence(&rdns)) return false;
  while (!rdns.Empty()) {
    asn1::Reader rdn;
    if (!rdns.ReadSet(&rdn)) return false;
    if (rdn.Empty()) return false;  // RDN ::= SET SIZE (1..MAX)
    while (!rdn.Empty()) {
      asn1::Reader attr;
      if (!rdn.ReadSequence(&attr)) return false;
      BytesView oid_content;
      if (!ReadOidView(attr, &oid_content)) return false;
      // A string tag Reader::ReadAnyString reads.
      std::uint8_t tag = 0;
      BytesView value;
      if (!attr.ReadTlv(&tag, &value) || !attr.Empty() ||
          (tag != asn1::kTagUtf8String && tag != asn1::kTagPrintableString &&
           tag != asn1::kTagIa5String))
        return false;
    }
  }
  return true;
}

// The CHOICE { fullName [0] GeneralNames } walk of ParseCrlDistributionPoints,
// collecting URI views instead of strings.
bool ParseCrlUrls(BytesView value, std::vector<std::string_view>* urls) {
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
        urls->emplace_back(reinterpret_cast<const char*>(uri.data()),
                           uri.size());
      } else {
        std::uint8_t tag;
        BytesView skipped;
        if (!full_name.ReadTlv(&tag, &skipped)) return false;
      }
    }
  }
  return true;
}

bool ParseOcspUrls(BytesView value, std::vector<std::string_view>* urls) {
  asn1::Reader r(value);
  asn1::Reader descriptions;
  if (!r.ReadSequence(&descriptions)) return false;
  while (!descriptions.Empty()) {
    asn1::Reader desc;
    if (!descriptions.ReadSequence(&desc)) return false;
    BytesView method;
    if (!ReadOidView(desc, &method)) return false;
    BytesView uri;
    if (!desc.ReadContextPrimitive(kGeneralNameUri, &uri)) continue;
    if (OidContentIs(method, asn1::oids::AdOcsp()))
      urls->emplace_back(reinterpret_cast<const char*>(uri.data()),
                         uri.size());
  }
  return true;
}

bool ParseEvBit(BytesView value, bool* is_ev) {
  asn1::Reader r(value);
  asn1::Reader infos;
  if (!r.ReadSequence(&infos)) return false;
  while (!infos.Empty()) {
    asn1::Reader info;
    if (!infos.ReadSequence(&info)) return false;
    BytesView policy;
    if (!ReadOidView(info, &policy)) return false;
    if (OidContentIs(policy, asn1::oids::VerisignEvPolicy())) *is_ev = true;
  }
  return true;
}

bool ParseCaBit(BytesView value, bool* is_ca) {
  asn1::Reader r(value);
  asn1::Reader seq;
  if (!r.ReadSequence(&seq)) return false;
  if (seq.NextIs(asn1::kTagBoolean)) {
    if (!seq.ReadBoolean(is_ca)) return false;
  }
  return true;
}

// True if `oid_content` names an extension the full parser knows. Critical
// extensions outside this set fail the parse, like ParseCertificate.
bool IsKnownExtension(BytesView oid_content) {
  namespace oids = asn1::oids;
  for (const asn1::Oid* oid :
       {&oids::BasicConstraints(), &oids::NameConstraints(), &oids::KeyUsage(),
        &oids::CrlDistributionPoints(), &oids::AuthorityInfoAccess(),
        &oids::CertificatePolicies(), &oids::SubjectAltName(),
        &oids::SubjectKeyIdentifier(), &oids::AuthorityKeyIdentifier()})
    if (OidContentIs(oid_content, *oid)) return true;
  return false;
}

}  // namespace

std::optional<CertView> ParseCertView(BytesView der) {
  CertView view;
  view.der = der;

  asn1::Reader top(der);
  asn1::Reader cert_seq;
  if (!top.ReadSequence(&cert_seq) || !top.Empty()) return std::nullopt;

  {
    asn1::Reader probe = cert_seq;
    if (!probe.ReadRawTlv(&view.tbs_der)) return std::nullopt;
    cert_seq = probe;
  }

  asn1::Reader tbs(view.tbs_der);
  asn1::Reader tbs_seq;
  if (!tbs.ReadSequence(&tbs_seq)) return std::nullopt;

  asn1::Reader version_reader;
  if (!tbs_seq.ReadContextExplicit(0, &version_reader)) return std::nullopt;
  std::int64_t version;
  if (!version_reader.ReadInteger(&version) || version != 2)
    return std::nullopt;

  if (!tbs_seq.ReadIntegerUnsignedView(&view.serial)) return std::nullopt;

  auto inner_sig_type = DecodeSignatureAlgorithm(tbs_seq);
  if (!inner_sig_type) return std::nullopt;

  if (!ValidateNameTlv(tbs_seq, &view.issuer_der)) return std::nullopt;

  asn1::Reader validity;
  if (!tbs_seq.ReadSequence(&validity) ||
      !validity.ReadTime(&view.not_before) ||
      !validity.ReadTime(&view.not_after))
    return std::nullopt;

  if (!ValidateNameTlv(tbs_seq, &view.subject_der)) return std::nullopt;

  // SPKI: skipped structurally — verification uses the *issuer's* key, so
  // corpus columns never need the subject key. cert() re-parses on demand.
  {
    BytesView spki_tlv;
    if (!tbs_seq.ReadRawTlv(&spki_tlv)) return std::nullopt;
  }

  if (tbs_seq.NextIsContext(3)) {
    asn1::Reader ext_wrapper;
    if (!tbs_seq.ReadContextExplicit(3, &ext_wrapper)) return std::nullopt;
    asn1::Reader ext_list;
    if (!ext_wrapper.ReadSequence(&ext_list)) return std::nullopt;
    while (!ext_list.Empty()) {
      asn1::Reader ext;
      if (!ext_list.ReadSequence(&ext)) return std::nullopt;
      BytesView oid_content;
      if (!ReadOidView(ext, &oid_content)) return std::nullopt;
      bool critical = false;
      if (ext.NextIs(asn1::kTagBoolean)) {
        if (!ext.ReadBoolean(&critical)) return std::nullopt;
      }
      BytesView value;
      if (!ext.ReadOctetString(&value)) return std::nullopt;

      if (OidContentIs(oid_content, asn1::oids::BasicConstraints())) {
        if (!ParseCaBit(value, &view.is_ca)) return std::nullopt;
      } else if (OidContentIs(oid_content,
                              asn1::oids::CrlDistributionPoints())) {
        if (!ParseCrlUrls(value, &view.crl_urls)) return std::nullopt;
      } else if (OidContentIs(oid_content,
                              asn1::oids::AuthorityInfoAccess())) {
        if (!ParseOcspUrls(value, &view.ocsp_urls)) return std::nullopt;
      } else if (OidContentIs(oid_content,
                              asn1::oids::CertificatePolicies())) {
        if (!ParseEvBit(value, &view.is_ev)) return std::nullopt;
      } else if (critical && !IsKnownExtension(oid_content)) {
        return std::nullopt;  // unknown critical extension
      }
    }
  }

  auto outer_sig_type = DecodeSignatureAlgorithm(cert_seq);
  if (!outer_sig_type || *outer_sig_type != *inner_sig_type)
    return std::nullopt;
  view.sig_type = *outer_sig_type;

  unsigned unused = 0;
  if (!cert_seq.ReadBitString(&view.signature, &unused) || unused != 0)
    return std::nullopt;
  if (!cert_seq.Empty()) return std::nullopt;
  return view;
}

}  // namespace rev::x509
