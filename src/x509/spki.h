// SubjectPublicKeyInfo encoding/decoding for the two key types.
//
// RSA keys use the standard rsaEncryption AlgorithmIdentifier with an
// RSAPublicKey SEQUENCE in the BIT STRING; sim keys use a private-arc OID
// with the 32-byte identifier as the BIT STRING payload.
#pragma once

#include <optional>

#include "asn1/reader.h"
#include "asn1/writer.h"
#include "crypto/signer.h"
#include "util/bytes.h"

namespace rev::x509 {

// DER SubjectPublicKeyInfo for a public key.
void EncodeSpki(asn1::Writer& w, const crypto::PublicKey& key);
inline Bytes EncodeSpki(const crypto::PublicKey& key) {
  return asn1::Encode([&key](asn1::Writer& w) { EncodeSpki(w, key); });
}

// Reads one SubjectPublicKeyInfo TLV, the one accept rule for keys: an
// rsaEncryption (NULL parameters, RSAPublicKey) or sim key (32 bytes) in a
// BIT STRING with no unused bits, and nothing after the last field of any
// SEQUENCE in it. `*der`, if set, receives the raw TLV;
// `*out`, if set, the key. With `out` null nothing is allocated.
bool ReadSpki(asn1::Reader& r, BytesView* der, crypto::PublicKey* out);

// SHA-256 of the DER SubjectPublicKeyInfo. This is the "parent" identifier
// CRLSets key their entries by (§7.1 of the paper).
Bytes SpkiSha256(const crypto::PublicKey& key);

// AlgorithmIdentifier for the *signature* made by a key of this type.
void EncodeSignatureAlgorithm(asn1::Writer& w, crypto::KeyType type);

// Writes SEQUENCE { tbs, signatureAlgorithm, signature BIT STRING }, the
// SIGNED shape certificates, CRLs and BasicOCSPResponses share.
// `encode_tbs(w)` writes the TBS value, which is signed where it lies; its
// bytes and the signature are also copied to *tbs_der and *signature when
// those are set.
template <typename F>
void EncodeSigned(asn1::Writer& w, const crypto::KeyPair& key, F&& encode_tbs,
                  Bytes* tbs_der = nullptr, Bytes* signature = nullptr) {
  const std::size_t seq = w.Begin(asn1::kTagSequence);
  const std::size_t tbs_start = w.size();
  encode_tbs(w);
  const BytesView tbs = w.Since(tbs_start);
  if (tbs_der) tbs_der->assign(tbs.begin(), tbs.end());
  Bytes sig = crypto::Sign(key, tbs);
  EncodeSignatureAlgorithm(w, key.type);
  w.BitString(sig);
  w.End(seq);
  if (signature) *signature = std::move(sig);
}

// Reads an AlgorithmIdentifier and maps it back to a key type. Nothing may
// follow the OID (and, for RSA, its NULL parameters) inside the SEQUENCE.
std::optional<crypto::KeyType> DecodeSignatureAlgorithm(asn1::Reader& r);

}  // namespace rev::x509
