#include "x509/view.h"

#include "asn1/reader.h"
#include "x509/name.h"
#include "x509/spki.h"

namespace rev::x509 {

namespace {

// Validates one extension of a certificate with its Parse* and picks the
// view's columns out of it. `seen` holds a bit per known extension already
// read: a second instance fails (RFC 5280 §4.2), as does an unknown
// critical extension.
bool ReadCertExtension(const ExtensionView& ext, std::uint16_t* seen,
                       CertView* view) {
  const CertExtension kind = ClassifyCertExtension(ext.oid);
  if (kind == CertExtension::kUnknown) return !ext.critical;
  const auto bit = static_cast<std::uint16_t>(1u << static_cast<unsigned>(kind));
  if (*seen & bit) return false;
  *seen |= bit;
  switch (kind) {
    case CertExtension::kBasicConstraints: {
      BasicConstraints bc;
      if (!ParseBasicConstraints(ext.value, &bc)) return false;
      view->is_ca = bc.is_ca;
      return true;
    }
    case CertExtension::kNameConstraints:
      return ParseNameConstraints(ext.value, nullptr);
    case CertExtension::kKeyUsage:
      return ParseKeyUsage(ext.value, nullptr);
    case CertExtension::kCrlDistributionPoints:
      return ParseCrlDistributionPoints(ext.value, &view->crl_urls);
    case CertExtension::kAuthorityInfoAccess:
      return ParseAuthorityInfoAccess(ext.value, &view->ocsp_urls);
    case CertExtension::kCertificatePolicies:
      return ParseCertificatePolicies(ext.value, nullptr, &view->is_ev);
    case CertExtension::kSubjectAltName:
      return ParseSubjectAltName(ext.value, nullptr);
    case CertExtension::kSubjectKeyIdentifier:
      return ParseSubjectKeyIdentifier(ext.value, nullptr);
    case CertExtension::kAuthorityKeyIdentifier:
      return ParseAuthorityKeyIdentifier(ext.value, nullptr);
    case CertExtension::kUnknown:
      break;
  }
  return true;
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

  if (!Name::Read(tbs_seq, &view.issuer_der, nullptr)) return std::nullopt;

  asn1::Reader validity;
  if (!tbs_seq.ReadSequence(&validity) ||
      !validity.ReadTime(&view.not_before) ||
      !validity.ReadTime(&view.not_after) || !validity.Empty())
    return std::nullopt;

  if (!Name::Read(tbs_seq, &view.subject_der, nullptr)) return std::nullopt;
  if (!ReadSpki(tbs_seq, &view.spki_der, nullptr)) return std::nullopt;

  if (tbs_seq.NextIsContext(3)) {
    asn1::Reader ext_wrapper;
    std::uint16_t seen = 0;
    if (!tbs_seq.ReadContextExplicit(3, &ext_wrapper) ||
        !ReadExtensions(ext_wrapper, &view.extensions,
                        [&](const ExtensionView& ext) {
                          return ReadCertExtension(ext, &seen, &view);
                        }) ||
        !ext_wrapper.Empty())
      return std::nullopt;
  }
  if (!tbs_seq.Empty()) return std::nullopt;

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
