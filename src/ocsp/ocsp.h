// Online Certificate Status Protocol (RFC 6960). Requests carry one or more
// CertIDs (browsers issue single-cert requests, but the RFC allows batching
// and some clients batch a whole chain); responses carry one SingleResponse
// per requested certificate, in request order, and echo the request nonce.
// Requests are encoded from the owned OcspRequest and read back in one
// borrowed walk, ParseOcspRequestView, whatever their shape or transport.
#pragma once

#include <cstdint>
#include <iterator>
#include <optional>
#include <span>

#include "asn1/reader.h"
#include "crypto/signer.h"
#include "util/bytes.h"
#include "util/time.h"
#include "x509/certificate.h"
#include "x509/extensions.h"

namespace rev::ocsp {

// Identifies the certificate whose status is requested: SHA-256 hashes of
// the issuer name and issuer public key, plus the serial number.
struct CertId {
  Bytes issuer_name_hash;
  Bytes issuer_key_hash;
  x509::Serial serial;

  friend bool operator==(const CertId&, const CertId&) = default;
};

// Builds the CertID for `subject_serial` issued by `issuer`.
CertId MakeCertId(const x509::Certificate& issuer,
                  const x509::Serial& subject_serial);

struct OcspRequest {
  // requestList, in wire order. The single-cert shape browsers send is
  // `cert_ids = {id}`.
  std::vector<CertId> cert_ids;
  Bytes nonce;  // empty = no nonce extension
};

// Clients encode requests from the owned form; responders read them only
// through ParseOcspRequestView.
Bytes EncodeOcspRequest(const OcspRequest& request);

// One CertID of a parsed request. Every field aliases the request DER, so
// the view is valid only while that buffer lives.
struct OcspRequestView {
  BytesView issuer_name_hash;
  BytesView issuer_key_hash;
  BytesView serial;  // unsigned big-endian magnitude, sign padding stripped
};

// A whole OCSP request, parsed in one walk without copying or allocating.
// Range-for over it yields each CertID in wire order; the requestList was
// validated by the parse, so the iteration cannot fail.
class RequestView {
 public:
  class Iterator {
   public:
    const OcspRequestView& operator*() const { return id_; }
    Iterator& operator++();
    bool operator==(std::default_sentinel_t) const { return done_; }

   private:
    friend class RequestView;
    explicit Iterator(BytesView request_list);

    asn1::Reader rest_;
    OcspRequestView id_;
    bool done_ = false;
  };

  Iterator begin() const { return Iterator(request_list_); }
  std::default_sentinel_t end() const { return {}; }
  std::size_t size() const { return size_; }  // at least 1
  const OcspRequestView& front() const { return front_; }
  BytesView nonce() const { return nonce_; }  // empty = no nonce

 private:
  friend std::optional<RequestView> ParseOcspRequestView(BytesView der);

  BytesView request_list_;  // content octets of requestList
  OcspRequestView front_;
  std::size_t size_ = 1;
  BytesView nonce_;
};

// Parses a DER OCSPRequest: a requestList of one or more CertIDs, then the
// optional requestExtensions, whose nonce (the last, if several) is kept.
// What the responder does not use is skipped unread: a CertID's fields
// after the serial, singleRequestExtensions, the rest of the TBSRequest
// and optionalSignature. The one request parser: the serving frontend runs
// it on POST and GET alike.
std::optional<RequestView> ParseOcspRequestView(BytesView der);

// The dominant request shape: true iff `der` parses with exactly one CertID
// and no nonce, which is then written to `out`.
bool ParseSingleCertRequestView(BytesView der, OcspRequestView* out);

// RFC 6960 Appendix A: OCSP over HTTP GET — the request DER is base64ed
// into the URL path ("GET {url}/{base64(request)}"). Browsers issue GETs
// far more often than POSTs; the paper had to patch OpenSSL's responder to
// accept them (§6.2). serve::Frontend::ServeGetPath decodes it.
std::string OcspGetPath(const OcspRequest& request);

// RFC 6960 OCSPResponseStatus.
enum class ResponseStatus : std::uint8_t {
  kSuccessful = 0,
  kMalformedRequest = 1,
  kInternalError = 2,
  kTryLater = 3,
  kSigRequired = 5,
  kUnauthorized = 6,
};

// CertStatus of a single response. The paper stresses that `unknown` "does
// not indicate that the certificate in question should be trusted" (§2.2),
// yet several browsers treat it as good — the policy engine models both.
enum class CertStatus : std::uint8_t { kGood = 0, kRevoked = 1, kUnknown = 2 };

const char* CertStatusName(CertStatus s);

struct SingleResponse {
  CertId cert_id;
  CertStatus status = CertStatus::kUnknown;
  util::Timestamp revocation_time = 0;                       // iff revoked
  x509::ReasonCode reason = x509::ReasonCode::kNoReasonCode; // iff revoked
  util::Timestamp this_update = 0;
  util::Timestamp next_update = 0;  // 0 = omit
};

struct OcspResponse {
  ResponseStatus status = ResponseStatus::kInternalError;
  // Populated iff status == kSuccessful. `single` is the first
  // SingleResponse — the dominant single-cert shape; a multi-cert response
  // carries the others in `more_singles` (request order), which is empty,
  // and allocates nothing, for one certificate. Each is stored once.
  SingleResponse single;
  std::vector<SingleResponse> more_singles;
  Bytes nonce;  // echoed request nonce (responseExtensions), empty if none
  util::Timestamp produced_at = 0;
  crypto::KeyType sig_type = crypto::KeyType::kSimSha256;
  Bytes tbs_der;
  Bytes signature;
  Bytes der;
};

// Signs a successful response carrying `single`.
OcspResponse SignOcspResponse(const SingleResponse& single,
                              util::Timestamp produced_at,
                              const crypto::KeyPair& responder_key);

// Signs a successful response carrying `singles` in order (at least one),
// echoing `nonce` in responseExtensions when non-empty (RFC 6960 §4.4.1).
OcspResponse SignOcspResponse(std::span<const SingleResponse> singles,
                              util::Timestamp produced_at,
                              const crypto::KeyPair& responder_key,
                              BytesView nonce);

// Builds an unsuccessful (error) response; no signature per RFC 6960.
OcspResponse MakeErrorResponse(ResponseStatus status);

std::optional<OcspResponse> ParseOcspResponse(BytesView der);
bool VerifyOcspSignature(const OcspResponse& response,
                         const crypto::PublicKey& responder_key);

}  // namespace rev::ocsp
