#include "ocsp/ocsp.h"

#include "asn1/reader.h"
#include "crypto/sha256.h"
#include "util/hex.h"
#include "x509/spki.h"

namespace rev::ocsp {

const char* CertStatusName(CertStatus s) {
  switch (s) {
    case CertStatus::kGood: return "good";
    case CertStatus::kRevoked: return "revoked";
    case CertStatus::kUnknown: return "unknown";
  }
  return "?";
}

CertId MakeCertId(const x509::Certificate& issuer,
                  const x509::Serial& subject_serial) {
  CertId id;
  id.issuer_name_hash = crypto::Sha256Bytes(issuer.tbs.subject.Encode());
  id.issuer_key_hash = issuer.SubjectSpkiSha256();
  id.serial = subject_serial;
  return id;
}

namespace {

// Initial capacity of the buffer SignOcspResponse encodes into; the
// single-certificate shape the responders serve is ~280 bytes.
constexpr std::size_t kSignReserve = 512;

void EncodeCertId(asn1::Writer& w, const CertId& id) {
  const std::size_t cert_id = w.Begin(asn1::kTagSequence);
  const std::size_t hash_algorithm = w.Begin(asn1::kTagSequence);
  w.ObjectId(asn1::oids::Sha256());
  w.Null();
  w.End(hash_algorithm);
  w.OctetString(id.issuer_name_hash);
  w.OctetString(id.issuer_key_hash);
  w.IntegerUnsigned(id.serial);
  w.End(cert_id);
}

// [n] EXPLICIT Extensions holding the one nonce extension: the request's
// requestExtensions ([2]) or the response's responseExtensions ([1]).
void EncodeNonceExtensions(asn1::Writer& w, unsigned n, BytesView nonce) {
  const std::size_t wrapper = w.BeginContext(n);
  const std::size_t list = w.Begin(asn1::kTagSequence);
  const x509::ExtensionMark ext =
      x509::BeginExtension(w, asn1::oids::OcspNonce(), /*critical=*/false);
  w.OctetString(nonce);
  x509::EndExtension(w, ext);
  w.End(list);
  w.End(wrapper);
}

std::optional<CertId> DecodeCertId(asn1::Reader& r) {
  asn1::Reader seq;
  if (!r.ReadSequence(&seq)) return std::nullopt;
  asn1::Reader alg;
  if (!seq.ReadSequence(&alg)) return std::nullopt;  // hash algorithm, assumed SHA-256
  CertId id;
  BytesView name_hash, key_hash;
  if (!seq.ReadOctetString(&name_hash) || !seq.ReadOctetString(&key_hash) ||
      !seq.ReadIntegerUnsigned(&id.serial))
    return std::nullopt;
  id.issuer_name_hash.assign(name_hash.begin(), name_hash.end());
  id.issuer_key_hash.assign(key_hash.begin(), key_hash.end());
  return id;
}

}  // namespace

Bytes EncodeOcspRequest(const OcspRequest& request) {
  // OCSPRequest ::= SEQUENCE { tbsRequest SEQUENCE { requestList SEQUENCE
  //   OF Request, requestExtensions [2] EXPLICIT OPTIONAL } }
  // Request ::= SEQUENCE { reqCert CertID }
  Bytes der;
  asn1::Writer w(der);
  const std::size_t outer = w.Begin(asn1::kTagSequence);
  const std::size_t tbs = w.Begin(asn1::kTagSequence);
  const std::size_t request_list = w.Begin(asn1::kTagSequence);
  for (const CertId& id : request.cert_ids) {
    const std::size_t one = w.Begin(asn1::kTagSequence);
    EncodeCertId(w, id);
    w.End(one);
  }
  w.End(request_list);
  if (!request.nonce.empty()) EncodeNonceExtensions(w, 2, request.nonce);
  w.End(tbs);
  w.End(outer);
  return der;
}

namespace {

// Reads one Request of a requestList: its CertID's hashes and serial as
// views. The hash algorithm is assumed SHA-256 and not read; CertID fields
// after the serial and singleRequestExtensions are skipped.
bool ReadCertIdView(asn1::Reader& request_list, OcspRequestView* out) {
  asn1::Reader request, cert_id, hash_algorithm;
  return request_list.ReadSequence(&request) &&
         request.ReadSequence(&cert_id) &&
         cert_id.ReadSequence(&hash_algorithm) &&
         cert_id.ReadOctetString(&out->issuer_name_hash) &&
         cert_id.ReadOctetString(&out->issuer_key_hash) &&
         cert_id.ReadIntegerUnsignedView(&out->serial);
}

}  // namespace

RequestView::Iterator::Iterator(BytesView request_list)
    : rest_(request_list) {
  ++*this;
}

RequestView::Iterator& RequestView::Iterator::operator++() {
  done_ = rest_.Empty() || !ReadCertIdView(rest_, &id_);
  return *this;
}

std::optional<RequestView> ParseOcspRequestView(BytesView der) {
  asn1::Reader top(der);
  asn1::Reader outer, tbs;
  // Built in place: the serve path returns it on every request.
  std::optional<RequestView> out(std::in_place);
  if (!top.ReadSequence(&outer) || !top.Empty() ||
      !outer.ReadSequence(&tbs) ||
      !tbs.ReadTagged(asn1::kTagSequence, &out->request_list_))
    return std::nullopt;
  // At least one CertID; the first is kept, the rest validated and counted.
  asn1::Reader request_list(out->request_list_);
  if (!ReadCertIdView(request_list, &out->front_)) return std::nullopt;
  for (OcspRequestView id; !request_list.Empty(); ++out->size_) {
    if (!ReadCertIdView(request_list, &id)) return std::nullopt;
  }

  if (tbs.NextIsContext(2)) {
    asn1::Reader wrapper;
    x509::Extensions extensions;
    if (!tbs.ReadContextExplicit(2, &wrapper) ||
        !x509::ReadExtensions(wrapper, &extensions))
      return std::nullopt;
    for (const x509::ExtensionView& extension : extensions) {
      if (asn1::OidContentIs(extension.oid, asn1::oids::OcspNonce())) {
        asn1::Reader nonce(extension.value);
        if (!nonce.ReadOctetString(&out->nonce_)) return std::nullopt;
      }
    }
  }
  return out;
}

bool ParseSingleCertRequestView(BytesView der, OcspRequestView* out) {
  const std::optional<RequestView> request = ParseOcspRequestView(der);
  if (!request || request->size() != 1 || !request->nonce().empty())
    return false;
  *out = request->front();
  return true;
}

std::string OcspGetPath(const OcspRequest& request) {
  // Appended, not `"/" + ...`: GCC 12 at -O3 reports a false -Wrestrict on
  // that operator+.
  std::string path(1, '/');
  path += util::Base64Encode(EncodeOcspRequest(request));
  return path;
}

namespace {

void EncodeSingleResponse(asn1::Writer& w, const SingleResponse& single) {
  const std::size_t seq = w.Begin(asn1::kTagSequence);
  EncodeCertId(w, single.cert_id);
  switch (single.status) {
    case CertStatus::kGood:
      w.ContextPrimitive(0, {});
      break;
    case CertStatus::kRevoked: {
      const std::size_t revoked_info = w.BeginContext(1);
      w.GeneralizedTime(single.revocation_time);
      if (single.reason != x509::ReasonCode::kNoReasonCode) {
        const std::size_t reason = w.BeginContext(0);
        w.Enumerated(static_cast<std::int64_t>(single.reason));
        w.End(reason);
      }
      w.End(revoked_info);
      break;
    }
    case CertStatus::kUnknown:
      w.ContextPrimitive(2, {});
      break;
  }
  w.GeneralizedTime(single.this_update);
  if (single.next_update != 0) {
    const std::size_t next_update = w.BeginContext(0);
    w.GeneralizedTime(single.next_update);
    w.End(next_update);
  }
  w.End(seq);
}

// ResponseData ::= SEQUENCE { responderID [2] byKey, producedAt,
//   responses SEQUENCE OF SingleResponse,
//   responseExtensions [1] EXPLICIT OPTIONAL }
void EncodeResponseData(asn1::Writer& w,
                        std::span<const SingleResponse> singles,
                        util::Timestamp produced_at, BytesView nonce) {
  const std::size_t data = w.Begin(asn1::kTagSequence);
  const std::size_t responder_id = w.BeginContext(2);
  w.OctetString(singles.front().cert_id.issuer_key_hash);
  w.End(responder_id);
  w.GeneralizedTime(produced_at);
  const std::size_t responses = w.Begin(asn1::kTagSequence);
  for (const SingleResponse& single : singles) EncodeSingleResponse(w, single);
  w.End(responses);
  if (!nonce.empty()) EncodeNonceExtensions(w, 1, nonce);
  w.End(data);
}

std::optional<SingleResponse> DecodeSingleResponse(asn1::Reader& r) {
  asn1::Reader seq;
  if (!r.ReadSequence(&seq)) return std::nullopt;
  SingleResponse single;
  auto id = DecodeCertId(seq);
  if (!id) return std::nullopt;
  single.cert_id = *std::move(id);

  if (seq.NextIsContext(0)) {
    BytesView empty;
    if (!seq.ReadContextPrimitive(0, &empty)) return std::nullopt;
    single.status = CertStatus::kGood;
  } else if (seq.NextIsContext(1)) {
    asn1::Reader revoked_info;
    if (!seq.ReadContextConstructed(1, &revoked_info)) return std::nullopt;
    single.status = CertStatus::kRevoked;
    if (!revoked_info.ReadTime(&single.revocation_time)) return std::nullopt;
    if (revoked_info.NextIsContext(0)) {
      asn1::Reader reason_reader;
      if (!revoked_info.ReadContextExplicit(0, &reason_reader))
        return std::nullopt;
      std::int64_t reason;
      if (!reason_reader.ReadEnumerated(&reason)) return std::nullopt;
      single.reason = static_cast<x509::ReasonCode>(reason);
    }
  } else if (seq.NextIsContext(2)) {
    BytesView empty;
    if (!seq.ReadContextPrimitive(2, &empty)) return std::nullopt;
    single.status = CertStatus::kUnknown;
  } else {
    return std::nullopt;
  }

  if (!seq.ReadTime(&single.this_update)) return std::nullopt;
  if (seq.NextIsContext(0)) {
    asn1::Reader next_update;
    if (!seq.ReadContextExplicit(0, &next_update) ||
        !next_update.ReadTime(&single.next_update))
      return std::nullopt;
  }
  return single;
}

}  // namespace

OcspResponse SignOcspResponse(const SingleResponse& single,
                              util::Timestamp produced_at,
                              const crypto::KeyPair& responder_key) {
  return SignOcspResponse({&single, 1}, produced_at, responder_key, {});
}

OcspResponse SignOcspResponse(std::span<const SingleResponse> singles,
                              util::Timestamp produced_at,
                              const crypto::KeyPair& responder_key,
                              BytesView nonce) {
  if (singles.empty()) return MakeErrorResponse(ResponseStatus::kInternalError);
  OcspResponse response;
  response.status = ResponseStatus::kSuccessful;
  response.single = singles.front();
  response.more_singles.assign(singles.begin() + 1, singles.end());
  response.nonce.assign(nonce.begin(), nonce.end());
  response.produced_at = produced_at;
  response.sig_type = responder_key.type;

  // OCSPResponse ::= SEQUENCE { responseStatus ENUMERATED,
  //   responseBytes [0] EXPLICIT SEQUENCE { responseType OID,
  //     response OCTET STRING { BasicOCSPResponse } } }
  // BasicOCSPResponse ::= SIGNED { ResponseData }, in the same buffer.
  Bytes der;
  der.reserve(kSignReserve);
  asn1::Writer w(der);
  const std::size_t outer = w.Begin(asn1::kTagSequence);
  w.Enumerated(static_cast<std::int64_t>(ResponseStatus::kSuccessful));
  const std::size_t bytes_wrapper = w.BeginContext(0);
  const std::size_t response_bytes = w.Begin(asn1::kTagSequence);
  w.ObjectId(asn1::oids::OcspBasic());
  const std::size_t basic_octets = w.Begin(asn1::kTagOctetString);
  x509::EncodeSigned(
      w, responder_key,
      [&](asn1::Writer& data_w) {
        EncodeResponseData(data_w, singles, produced_at, nonce);
      },
      &response.tbs_der, &response.signature);
  w.End(basic_octets);
  w.End(response_bytes);
  w.End(bytes_wrapper);
  w.End(outer);
  // An exact-size copy: caches hold these for their whole serving window.
  response.der.assign(der.begin(), der.end());
  return response;
}

OcspResponse MakeErrorResponse(ResponseStatus status) {
  OcspResponse response;
  response.status = status;
  asn1::Writer w(response.der);
  const std::size_t outer = w.Begin(asn1::kTagSequence);
  w.Enumerated(static_cast<std::int64_t>(status));
  w.End(outer);
  return response;
}

std::optional<OcspResponse> ParseOcspResponse(BytesView der) {
  asn1::Reader top(der);
  asn1::Reader outer;
  if (!top.ReadSequence(&outer) || !top.Empty()) return std::nullopt;

  std::int64_t status;
  if (!outer.ReadEnumerated(&status)) return std::nullopt;

  OcspResponse response;
  response.status = static_cast<ResponseStatus>(status);
  if (response.status != ResponseStatus::kSuccessful) {
    response.der.assign(der.begin(), der.end());
    return response;
  }

  asn1::Reader bytes_wrapper;
  if (!outer.ReadContextExplicit(0, &bytes_wrapper)) return std::nullopt;
  asn1::Reader response_bytes;
  if (!bytes_wrapper.ReadSequence(&response_bytes)) return std::nullopt;
  BytesView response_type;
  if (!response_bytes.ReadTagged(asn1::kTagOid, &response_type) ||
      !asn1::OidContentIs(response_type, asn1::oids::OcspBasic()))
    return std::nullopt;
  BytesView basic_der;
  if (!response_bytes.ReadOctetString(&basic_der)) return std::nullopt;

  asn1::Reader basic_top(basic_der);
  asn1::Reader basic;
  if (!basic_top.ReadSequence(&basic)) return std::nullopt;

  BytesView tbs_raw;
  {
    asn1::Reader probe = basic;
    if (!probe.ReadRawTlv(&tbs_raw)) return std::nullopt;
    basic = probe;
  }
  response.tbs_der.assign(tbs_raw.begin(), tbs_raw.end());

  asn1::Reader tbs(tbs_raw);
  asn1::Reader response_data;
  if (!tbs.ReadSequence(&response_data)) return std::nullopt;

  asn1::Reader responder_id;
  if (!response_data.ReadContextConstructed(2, &responder_id))
    return std::nullopt;
  if (!response_data.ReadTime(&response.produced_at)) return std::nullopt;

  asn1::Reader responses;
  if (!response_data.ReadSequence(&responses) || responses.Empty())
    return std::nullopt;
  for (bool first = true; !responses.Empty(); first = false) {
    auto single = DecodeSingleResponse(responses);
    if (!single) return std::nullopt;
    if (first)
      response.single = *std::move(single);
    else
      response.more_singles.push_back(*std::move(single));
  }

  if (response_data.NextIsContext(1)) {
    asn1::Reader ext_wrapper;
    if (!response_data.ReadContextExplicit(1, &ext_wrapper)) return std::nullopt;
    x509::Extensions exts;
    if (!x509::ReadExtensions(ext_wrapper, &exts)) return std::nullopt;
    for (const x509::ExtensionView& ext : exts) {
      if (asn1::OidContentIs(ext.oid, asn1::oids::OcspNonce())) {
        asn1::Reader nonce_reader(ext.value);
        BytesView nonce;
        if (!nonce_reader.ReadOctetString(&nonce)) return std::nullopt;
        response.nonce.assign(nonce.begin(), nonce.end());
      }
    }
  }

  auto sig_type = x509::DecodeSignatureAlgorithm(basic);
  if (!sig_type) return std::nullopt;
  response.sig_type = *sig_type;

  BytesView sig_bits;
  unsigned unused = 0;
  if (!basic.ReadBitString(&sig_bits, &unused) || unused != 0)
    return std::nullopt;
  response.signature.assign(sig_bits.begin(), sig_bits.end());

  response.der.assign(der.begin(), der.end());
  return response;
}

bool VerifyOcspSignature(const OcspResponse& response,
                         const crypto::PublicKey& responder_key) {
  if (response.status != ResponseStatus::kSuccessful) return false;
  if (responder_key.type != response.sig_type) return false;
  return crypto::Verify(responder_key, response.tbs_der, response.signature);
}

}  // namespace rev::ocsp
