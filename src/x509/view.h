// Borrowed (zero-copy) certificate parsing.
//
// ParseCertView walks the same DER structure as ParseCertificate but
// materializes nothing: every field is a view aliasing the input buffer
// (issuer/subject as raw Name TLV bytes, URLs as string_views into the
// IA5String contents). The corpus layer (core::CertCorpus) runs it over
// arena-resident DER to populate its columns without ever building a
// Certificate object; the full parse stays available for the cold path
// (CertCorpus::cert()).
//
// Validation is strict enough to guarantee every view is in-bounds and the
// fast columns (dates, CA bit, EV bit, URLs, serial) agree with a full
// ParseCertificate of the same bytes; name internals are checked
// structurally (RDN nesting) without decoding attribute strings.
//
// Every OID is read as a view of its content octets, validated as DER
// (asn1::Oid::IsValidContent, what Reader::ReadOid rejects) and compared
// byte for byte with oids::X().content(); no Oid is built. The only heap
// allocations are the growth of the two URL vectors: none for a
// certificate without URLs, one per vector holding one URL
// (tests/alloc_test.cpp counts them; property_test's
// ViewFullParseAgreement checks near-miss OIDs against ParseCertificate).
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "crypto/signer.h"
#include "util/bytes.h"
#include "util/time.h"

namespace rev::x509 {

struct CertView {
  BytesView der;         // the whole certificate
  BytesView tbs_der;     // raw TBSCertificate TLV (the signed bytes)
  BytesView signature;   // BIT STRING payload
  BytesView serial;      // unsigned big-endian magnitude
  BytesView issuer_der;  // raw Name TLV (== Name::DerKey() of the full parse)
  BytesView subject_der;
  util::Timestamp not_before = 0;
  util::Timestamp not_after = 0;
  crypto::KeyType sig_type = crypto::KeyType::kSimSha256;
  bool is_ca = false;
  bool is_ev = false;  // asserts the Verisign EV policy
  std::vector<std::string_view> crl_urls;
  std::vector<std::string_view> ocsp_urls;
};

// Parses `der` into borrowed views. Returns nullopt on malformed input
// (including unknown critical extensions, mirroring ParseCertificate).
// The views alias `der`: they are valid only while that buffer lives.
std::optional<CertView> ParseCertView(BytesView der);

}  // namespace rev::x509
