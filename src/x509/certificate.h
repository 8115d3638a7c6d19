// X.509v3 certificates: construction, DER encode, fingerprints, and the
// owned parse, which materializes the borrowed ParseCertView walk.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "asn1/writer.h"
#include "crypto/signer.h"
#include "util/bytes.h"
#include "util/time.h"
#include "x509/extensions.h"
#include "x509/name.h"

namespace rev::x509 {

// Serial numbers are unsigned big-endian magnitudes without leading zeros.
// CAs differ wildly in serial length (the paper observes serials up to 49
// decimal digits, which inflates CRL sizes), so we keep them as raw bytes.
using Serial = Bytes;

// The to-be-signed fields of a certificate, in builder-friendly form.
struct TbsCertificate {
  Serial serial;
  Name issuer;
  Name subject;
  util::Timestamp not_before = 0;
  util::Timestamp not_after = 0;
  crypto::PublicKey public_key;

  BasicConstraints basic_constraints;  // default: not a CA
  NameConstraints name_constraints;    // empty = omit the extension
  std::uint16_t key_usage = 0;         // 0 = omit the extension
  std::vector<std::string> crl_urls;
  std::vector<std::string> ocsp_urls;
  std::vector<asn1::Oid> policies;
  std::vector<std::string> dns_names;
  Bytes subject_key_id;    // empty = omit
  Bytes authority_key_id;  // empty = omit
};

// A parsed (or freshly signed) certificate. `tbs_der` is the exact signed
// byte range, so signatures verify against re-serialization drift.
class Certificate {
 public:
  TbsCertificate tbs;
  crypto::KeyType sig_type = crypto::KeyType::kSimSha256;
  Bytes tbs_der;
  Bytes signature;
  Bytes der;

  // SHA-256 of the full DER encoding; the library-wide identity of a cert.
  const Bytes& Fingerprint() const;

  // SHA-256 of the subject's SPKI (the CRLSet "parent" key when this is an
  // issuer certificate).
  Bytes SubjectSpkiSha256() const;

  bool IsCa() const { return tbs.basic_constraints.is_ca; }
  bool IsSelfIssued() const { return tbs.issuer == tbs.subject; }

  // True if the certificate asserts an Extended Validation policy.
  bool IsEv() const;

  // True at `t` within [not_before, not_after] — the paper's "fresh" notion.
  bool IsFresh(util::Timestamp t) const {
    return t >= tbs.not_before && t <= tbs.not_after;
  }

  // True if the certificate carries neither a CRL distribution point nor an
  // OCSP responder: it can never be revoked (§3.2).
  bool Unrevocable() const {
    return tbs.crl_urls.empty() && tbs.ocsp_urls.empty();
  }

 private:
  mutable Bytes fingerprint_;  // lazy cache
};

// Writes the DER TBSCertificate for the given fields and signature scheme.
void EncodeTbs(asn1::Writer& w, const TbsCertificate& tbs,
               crypto::KeyType sig_type);
inline Bytes EncodeTbs(const TbsCertificate& tbs, crypto::KeyType sig_type) {
  return asn1::Encode(
      [&](asn1::Writer& w) { EncodeTbs(w, tbs, sig_type); });
}

// Signs `tbs` with the issuer key, producing a complete certificate.
Certificate SignCertificate(const TbsCertificate& tbs,
                            const crypto::KeyPair& issuer_key);

// Parses a DER certificate: ParseCertView (x509/view.h), the one walk of
// certificate DER, then the owned fields built from the view's slices by
// the same readers that validated them. It accepts exactly what
// ParseCertView accepts: unknown non-critical extensions are ignored;
// unknown critical and duplicate known extensions fail the parse.
std::optional<Certificate> ParseCertificate(BytesView der);

// Verifies the certificate's signature with the purported issuer key.
bool VerifyCertificateSignature(const Certificate& cert,
                                const crypto::PublicKey& issuer_key);

// Renders a serial as lower-case hex (for reports and map keys).
std::string SerialToString(BytesView serial);

}  // namespace rev::x509
