#include "x509/spki.h"

#include "crypto/sha256.h"

namespace rev::x509 {

void EncodeSpki(asn1::Writer& w, const crypto::PublicKey& key) {
  const std::size_t spki = w.Begin(asn1::kTagSequence);
  const std::size_t alg = w.Begin(asn1::kTagSequence);
  if (key.type == crypto::KeyType::kRsaSha256) {
    w.ObjectId(asn1::oids::RsaEncryption());
    w.Null();
    w.End(alg);
    // The BIT STRING holds an RSAPublicKey SEQUENCE.
    w.BitString(asn1::Encode([&key](asn1::Writer& rsa) {
      const std::size_t rsa_pub = rsa.Begin(asn1::kTagSequence);
      rsa.IntegerUnsigned(key.rsa.n.ToBytes());
      rsa.IntegerUnsigned(key.rsa.e.ToBytes());
      rsa.End(rsa_pub);
    }));
  } else {
    w.ObjectId(asn1::oids::SimSha256());
    w.End(alg);
    w.BitString(key.sim_id);
  }
  w.End(spki);
}

bool ReadSpki(asn1::Reader& r, BytesView* der, crypto::PublicKey* out) {
  if (der) {
    asn1::Reader probe = r;
    if (!probe.ReadRawTlv(der)) return false;
  }
  asn1::Reader spki;
  asn1::Reader alg;
  // Compared as content bytes: an OID that is not valid DER matches neither
  // algorithm and fails like an unknown one.
  BytesView alg_oid;
  BytesView key_bits;
  unsigned unused = 0;
  if (!r.ReadSequence(&spki) || !spki.ReadSequence(&alg) ||
      !alg.ReadTagged(asn1::kTagOid, &alg_oid) ||
      !spki.ReadBitString(&key_bits, &unused) || unused != 0 || !spki.Empty())
    return false;

  if (asn1::OidContentIs(alg_oid, asn1::oids::RsaEncryption())) {
    asn1::Reader rsa(key_bits);
    asn1::Reader rsa_seq;
    BytesView n_be, e_be;
    if (!alg.ReadNull() || !alg.Empty() || !rsa.ReadSequence(&rsa_seq) ||
        !rsa.Empty() || !rsa_seq.ReadIntegerUnsignedView(&n_be) ||
        !rsa_seq.ReadIntegerUnsignedView(&e_be) || !rsa_seq.Empty())
      return false;
    if (out) {
      *out = {};
      out->type = crypto::KeyType::kRsaSha256;
      out->rsa.n = crypto::BigInt::FromBytes(n_be);
      out->rsa.e = crypto::BigInt::FromBytes(e_be);
    }
  } else if (asn1::OidContentIs(alg_oid, asn1::oids::SimSha256())) {
    if (!alg.Empty() || key_bits.size() != crypto::kSha256DigestSize)
      return false;
    if (out) {
      *out = {};
      out->type = crypto::KeyType::kSimSha256;
      out->sim_id.assign(key_bits.begin(), key_bits.end());
    }
  } else {
    return false;
  }
  return true;
}

Bytes SpkiSha256(const crypto::PublicKey& key) {
  return crypto::Sha256Bytes(EncodeSpki(key));
}

void EncodeSignatureAlgorithm(asn1::Writer& w, crypto::KeyType type) {
  const std::size_t alg = w.Begin(asn1::kTagSequence);
  if (type == crypto::KeyType::kRsaSha256) {
    w.ObjectId(asn1::oids::Sha256WithRsa());
    w.Null();
  } else {
    w.ObjectId(asn1::oids::SimSha256());
  }
  w.End(alg);
}

std::optional<crypto::KeyType> DecodeSignatureAlgorithm(asn1::Reader& r) {
  asn1::Reader alg;
  if (!r.ReadSequence(&alg)) return std::nullopt;
  BytesView oid;
  if (!alg.ReadTagged(asn1::kTagOid, &oid)) return std::nullopt;
  if (asn1::OidContentIs(oid, asn1::oids::Sha256WithRsa())) {
    if (!alg.ReadNull() || !alg.Empty()) return std::nullopt;
    return crypto::KeyType::kRsaSha256;
  }
  if (asn1::OidContentIs(oid, asn1::oids::SimSha256()) && alg.Empty())
    return crypto::KeyType::kSimSha256;
  return std::nullopt;
}

}  // namespace rev::x509
