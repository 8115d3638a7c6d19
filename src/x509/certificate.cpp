#include "x509/certificate.h"

#include "crypto/sha256.h"
#include "util/hex.h"
#include "x509/spki.h"
#include "x509/view.h"

namespace rev::x509 {

const Bytes& Certificate::Fingerprint() const {
  if (fingerprint_.empty() && !der.empty())
    fingerprint_ = crypto::Sha256Bytes(der);
  return fingerprint_;
}

Bytes Certificate::SubjectSpkiSha256() const {
  return SpkiSha256(tbs.public_key);
}

bool Certificate::IsEv() const {
  for (const asn1::Oid& policy : tbs.policies)
    if (policy == asn1::oids::VerisignEvPolicy()) return true;
  return false;
}

namespace {
// Initial DER capacity for SignCertificate: a sim-keyed leaf is ~400 bytes,
// so the buffer grows at most once for larger (RSA, many-URL) shapes.
constexpr std::size_t kSignReserve = 512;
}  // namespace

void EncodeTbs(asn1::Writer& w, const TbsCertificate& tbs,
               crypto::KeyType sig_type) {
  const std::size_t tbs_seq = w.Begin(asn1::kTagSequence);
  // version [0] EXPLICIT INTEGER { v3(2) }
  const std::size_t version = w.BeginContext(0);
  w.Integer(2);
  w.End(version);
  w.IntegerUnsigned(tbs.serial);
  EncodeSignatureAlgorithm(w, sig_type);
  tbs.issuer.Encode(w);
  const std::size_t validity = w.Begin(asn1::kTagSequence);
  w.Time(tbs.not_before);
  w.Time(tbs.not_after);
  w.End(validity);
  tbs.subject.Encode(w);
  EncodeSpki(w, tbs.public_key);

  const std::size_t extensions = w.BeginContext(3);
  const std::size_t list = w.Begin(asn1::kTagSequence);
  // Always encode BasicConstraints for CA certs; include an empty one for
  // leaves as real CAs commonly do.
  EncodeBasicConstraints(w, tbs.basic_constraints);
  if (!tbs.name_constraints.Empty())
    EncodeNameConstraints(w, tbs.name_constraints);
  if (tbs.key_usage != 0) EncodeKeyUsage(w, tbs.key_usage);
  if (!tbs.crl_urls.empty()) EncodeCrlDistributionPoints(w, tbs.crl_urls);
  if (!tbs.ocsp_urls.empty()) EncodeAuthorityInfoAccess(w, tbs.ocsp_urls);
  if (!tbs.policies.empty()) EncodeCertificatePolicies(w, tbs.policies);
  if (!tbs.dns_names.empty()) EncodeSubjectAltName(w, tbs.dns_names);
  if (!tbs.subject_key_id.empty())
    EncodeSubjectKeyIdentifier(w, tbs.subject_key_id);
  if (!tbs.authority_key_id.empty())
    EncodeAuthorityKeyIdentifier(w, tbs.authority_key_id);
  w.End(list);
  w.End(extensions);
  w.End(tbs_seq);
}

Certificate SignCertificate(const TbsCertificate& tbs,
                            const crypto::KeyPair& issuer_key) {
  Certificate cert;
  cert.tbs = tbs;
  cert.sig_type = issuer_key.type;
  // Certificate ::= SIGNED { TBSCertificate }, in one buffer.
  cert.der.reserve(kSignReserve);
  asn1::Writer w(cert.der);
  EncodeSigned(
      w, issuer_key,
      [&](asn1::Writer& tbs_w) { EncodeTbs(tbs_w, tbs, issuer_key.type); },
      &cert.tbs_der, &cert.signature);
  return cert;
}

std::optional<Certificate> ParseCertificate(BytesView der) {
  const std::optional<CertView> view = ParseCertView(der);
  if (!view) return std::nullopt;
  Certificate cert;
  TbsCertificate& tbs = cert.tbs;
  cert.der.assign(der.begin(), der.end());
  cert.tbs_der.assign(view->tbs_der.begin(), view->tbs_der.end());
  cert.signature.assign(view->signature.begin(), view->signature.end());
  cert.sig_type = view->sig_type;
  tbs.serial.assign(view->serial.begin(), view->serial.end());
  tbs.not_before = view->not_before;
  tbs.not_after = view->not_after;
  tbs.crl_urls.assign(view->crl_urls.begin(), view->crl_urls.end());
  tbs.ocsp_urls.assign(view->ocsp_urls.begin(), view->ocsp_urls.end());

  // The rest is built from the view's slices by the readers that validated
  // them, so none of these fails.
  asn1::Reader issuer(view->issuer_der);
  asn1::Reader subject(view->subject_der);
  asn1::Reader spki(view->spki_der);
  bool ok = Name::Read(issuer, nullptr, &tbs.issuer) &&
            Name::Read(subject, nullptr, &tbs.subject) &&
            ReadSpki(spki, nullptr, &tbs.public_key);
  for (const ExtensionView& ext : view->extensions) {
    switch (ClassifyCertExtension(ext.oid)) {
      case CertExtension::kBasicConstraints:
        ok &= ParseBasicConstraints(ext.value, &tbs.basic_constraints);
        break;
      case CertExtension::kNameConstraints:
        ok &= ParseNameConstraints(ext.value, &tbs.name_constraints);
        break;
      case CertExtension::kKeyUsage:
        ok &= ParseKeyUsage(ext.value, &tbs.key_usage);
        break;
      case CertExtension::kCertificatePolicies:
        ok &= ParseCertificatePolicies(ext.value, &tbs.policies);
        break;
      case CertExtension::kSubjectAltName:
        ok &= ParseSubjectAltName(ext.value, &tbs.dns_names);
        break;
      case CertExtension::kSubjectKeyIdentifier:
        ok &= ParseSubjectKeyIdentifier(ext.value, &tbs.subject_key_id);
        break;
      case CertExtension::kAuthorityKeyIdentifier:
        ok &= ParseAuthorityKeyIdentifier(ext.value, &tbs.authority_key_id);
        break;
      case CertExtension::kCrlDistributionPoints:  // URLs: from the view
      case CertExtension::kAuthorityInfoAccess:
      case CertExtension::kUnknown:
        break;
    }
  }
  if (!ok) return std::nullopt;
  return cert;
}

bool VerifyCertificateSignature(const Certificate& cert,
                                const crypto::PublicKey& issuer_key) {
  if (issuer_key.type != cert.sig_type) return false;
  return crypto::Verify(issuer_key, cert.tbs_der, cert.signature);
}

std::string SerialToString(BytesView serial) {
  return util::HexEncode(serial);
}

}  // namespace rev::x509
