#include "x509/certificate.h"

#include "crypto/sha256.h"
#include "util/hex.h"
#include "x509/spki.h"

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

  auto issuer = Name::Decode(tbs_seq);
  if (!issuer) return std::nullopt;
  cert.tbs.issuer = *std::move(issuer);

  asn1::Reader validity;
  if (!tbs_seq.ReadSequence(&validity) ||
      !validity.ReadTime(&cert.tbs.not_before) ||
      !validity.ReadTime(&cert.tbs.not_after))
    return std::nullopt;

  auto subject = Name::Decode(tbs_seq);
  if (!subject) return std::nullopt;
  cert.tbs.subject = *std::move(subject);

  auto key = DecodeSpki(tbs_seq);
  if (!key) return std::nullopt;
  cert.tbs.public_key = *std::move(key);

  if (tbs_seq.NextIsContext(3)) {
    asn1::Reader ext_wrapper;
    if (!tbs_seq.ReadContextExplicit(3, &ext_wrapper)) return std::nullopt;
    auto exts = DecodeExtensionList(ext_wrapper);
    if (!exts) return std::nullopt;
    for (const Extension& ext : *exts) {
      if (ext.oid == asn1::oids::BasicConstraints()) {
        auto bc = ParseBasicConstraints(ext.value);
        if (!bc) return std::nullopt;
        cert.tbs.basic_constraints = *bc;
      } else if (ext.oid == asn1::oids::NameConstraints()) {
        auto nc = ParseNameConstraints(ext.value);
        if (!nc) return std::nullopt;
        cert.tbs.name_constraints = *std::move(nc);
      } else if (ext.oid == asn1::oids::KeyUsage()) {
        auto ku = ParseKeyUsage(ext.value);
        if (!ku) return std::nullopt;
        cert.tbs.key_usage = *ku;
      } else if (ext.oid == asn1::oids::CrlDistributionPoints()) {
        auto urls = ParseCrlDistributionPoints(ext.value);
        if (!urls) return std::nullopt;
        cert.tbs.crl_urls = *std::move(urls);
      } else if (ext.oid == asn1::oids::AuthorityInfoAccess()) {
        auto aia = ParseAuthorityInfoAccess(ext.value);
        if (!aia) return std::nullopt;
        cert.tbs.ocsp_urls = std::move(aia->ocsp_urls);
      } else if (ext.oid == asn1::oids::CertificatePolicies()) {
        auto policies = ParseCertificatePolicies(ext.value);
        if (!policies) return std::nullopt;
        cert.tbs.policies = *std::move(policies);
      } else if (ext.oid == asn1::oids::SubjectAltName()) {
        auto sans = ParseSubjectAltName(ext.value);
        if (!sans) return std::nullopt;
        cert.tbs.dns_names = *std::move(sans);
      } else if (ext.oid == asn1::oids::SubjectKeyIdentifier()) {
        auto ski = ParseSubjectKeyIdentifier(ext.value);
        if (!ski) return std::nullopt;
        cert.tbs.subject_key_id = *std::move(ski);
      } else if (ext.oid == asn1::oids::AuthorityKeyIdentifier()) {
        auto aki = ParseAuthorityKeyIdentifier(ext.value);
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

bool VerifyCertificateSignature(const Certificate& cert,
                                const crypto::PublicKey& issuer_key) {
  if (issuer_key.type != cert.sig_type) return false;
  return crypto::Verify(issuer_key, cert.tbs_der, cert.signature);
}

std::string SerialToString(const Serial& serial) {
  return util::HexEncode(serial);
}

}  // namespace rev::x509
