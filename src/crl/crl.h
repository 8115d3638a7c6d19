// Certificate Revocation Lists (RFC 5280 §5): signed from the owned TbsCrl
// and read only through ParseCrlView, one walk that validates the whole CRL
// and allocates nothing. CRL byte sizes are *measured from real DER
// encodings*, which is what makes the Fig. 5 / Fig. 6 reproductions valid.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "asn1/reader.h"
#include "crypto/signer.h"
#include "util/bytes.h"
#include "util/time.h"
#include "x509/certificate.h"
#include "x509/extensions.h"
#include "x509/name.h"

namespace rev::crl {

struct CrlEntry {
  x509::Serial serial;
  util::Timestamp revocation_date = 0;
  // kNoReasonCode encodes "no crlEntryExtensions at all" — the common case
  // the paper observes (§4.2: the vast majority of revocations carry no
  // reason code).
  x509::ReasonCode reason = x509::ReasonCode::kNoReasonCode;
};

// The to-be-signed fields of a CRL.
struct TbsCrl {
  x509::Name issuer;
  util::Timestamp this_update = 0;
  util::Timestamp next_update = 0;  // 0 = omit
  std::vector<CrlEntry> entries;
  std::int64_t crl_number = -1;  // -1 = omit
};

class Crl {
 public:
  TbsCrl tbs;
  Bytes der;

  std::size_t SizeBytes() const { return der.size(); }

  // True once `t` passes nextUpdate (clients must re-fetch; §2.2).
  bool IsExpired(util::Timestamp t) const {
    return tbs.next_update != 0 && t > tbs.next_update;
  }
};

Crl SignCrl(TbsCrl tbs, const crypto::KeyPair& issuer_key);

// One revoked certificate of a parsed CRL; `serial` aliases the CRL's DER.
struct CrlEntryView {
  BytesView serial;  // unsigned big-endian magnitude, sign padding stripped
  util::Timestamp revocation_date = 0;
  x509::ReasonCode reason = x509::ReasonCode::kNoReasonCode;
};

// Reads one revokedCertificates entry: userCertificate, revocationDate
// and the optional crlEntryExtensions, whose CRLReason is kept; a second
// CRLReason or an unrecognised critical extension fails the read.
bool ReadCrlEntry(asn1::Reader& list, CrlEntryView* out);
using CrlEntries = asn1::ValidatedList<CrlEntryView, ReadCrlEntry>;

// A CRL parsed in one walk. Every view aliases the CRL DER: it is valid
// only while that buffer lives.
struct CrlView {
  BytesView der;
  BytesView tbs_der;     // the signed bytes
  BytesView signature;   // BIT STRING payload
  BytesView issuer_der;  // raw Name TLV
  util::Timestamp this_update = 0;
  util::Timestamp next_update = 0;  // 0 = absent
  std::int64_t crl_number = -1;     // -1 = absent
  crypto::KeyType sig_type = crypto::KeyType::kSimSha256;
  CrlEntries entries;  // in wire order
  std::size_t num_entries = 0;

  // The entry for `serial`, by a linear walk that reads only each entry's
  // serial: for one-off lookups.
  std::optional<CrlEntryView> Find(BytesView serial) const;
};

// Parses a DER CertificateList with a v2 TBSCertList, keeping the CRLNumber
// of its crlExtensions and each entry's CRLReason. It fails closed: a
// repeated CRLNumber or entry CRLReason (RFC 5280 §4.2) and an unrecognised
// critical extension in crlExtensions or in an entry (§5.2, §5.3) reject
// the CRL. Inner and outer signature algorithms must match, and every
// SEQUENCE must end at its last field. Returns nullopt on anything else.
std::optional<CrlView> ParseCrlView(BytesView der);

// True iff `key`, the issuer's, signed the CRL.
bool VerifyCrlSignature(const CrlView& crl, const crypto::PublicKey& key);

// Human-readable rendering: header plus the first `max_entries` entries.
std::string DescribeCrl(const CrlView& crl, std::size_t max_entries = 10);

}  // namespace rev::crl
