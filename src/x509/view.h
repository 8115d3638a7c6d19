// The one walk of certificate DER.
//
// ParseCertView validates a whole certificate and materializes nothing:
// every field is a view aliasing the input buffer (issuer/subject/SPKI as
// raw TLV bytes, URLs as string_views into the IA5String contents, the
// extensions as a borrowed range). The corpus layer (core::CertCorpus) runs
// it over arena-resident DER to populate its columns without building a
// Certificate object. ParseCertificate is this walk plus materialization of
// the owned fields from the view's slices, so the two accept exactly the
// same bytes and agree on every column.
//
// Each field has one accept rule, shared with ParseCertificate: Name::Read
// for names, ReadSpki for the key, ReadExtensions for the extension list
// and one Parse* per known extension (x509/extensions.h), each called here
// to validate and to pick out the view's columns. A known extension seen
// twice fails the walk (RFC 5280 §4.2), as does an unknown critical one.
// Every SEQUENCE the walk reads must end where its last field does: bytes
// after a field the walk knows reject the certificate.
//
// Every OID is read as a view of its content octets, validated as DER and
// compared byte for byte with oids::X().content(); no Oid is built. The
// only heap allocations are the growth of the two URL vectors: none for a
// certificate without URLs, one per vector holding one URL
// (tests/alloc_test.cpp counts them).
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "crypto/signer.h"
#include "util/bytes.h"
#include "util/time.h"
#include "x509/extensions.h"

namespace rev::x509 {

struct CertView {
  BytesView der;         // the whole certificate
  BytesView tbs_der;     // raw TBSCertificate TLV (the signed bytes)
  BytesView signature;   // BIT STRING payload
  BytesView serial;      // unsigned big-endian magnitude
  BytesView issuer_der;  // raw Name TLV (== Name::DerKey() of the full parse)
  BytesView subject_der;
  BytesView spki_der;    // raw SubjectPublicKeyInfo TLV
  util::Timestamp not_before = 0;
  util::Timestamp not_after = 0;
  crypto::KeyType sig_type = crypto::KeyType::kSimSha256;
  bool is_ca = false;
  bool is_ev = false;  // asserts the Verisign EV policy
  std::vector<std::string_view> crl_urls;
  std::vector<std::string_view> ocsp_urls;
  Extensions extensions;  // in wire order; empty without the [3] field
};

// Parses `der` into borrowed views. Returns nullopt on malformed input
// (including unknown critical and duplicate known extensions). The views
// alias `der`: they are valid only while that buffer lives.
std::optional<CertView> ParseCertView(BytesView der);

}  // namespace rev::x509
