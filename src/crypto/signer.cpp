#include "crypto/signer.h"

#include <stdexcept>

#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace rev::crypto {

bool operator==(const PublicKey& a, const PublicKey& b) {
  if (a.type != b.type) return false;
  if (a.type == KeyType::kRsaSha256)
    return a.rsa.n == b.rsa.n && a.rsa.e == b.rsa.e;
  return a.sim_id == b.sim_id;
}

PublicKey KeyPair::Public() const {
  PublicKey pk;
  pk.type = type;
  if (type == KeyType::kRsaSha256) {
    pk.rsa = rsa.pub;
  } else {
    pk.sim_id = sim_id;
  }
  return pk;
}

KeyPair GenerateKeyPair(util::Rng& rng, KeyType type, int rsa_bits) {
  KeyPair kp;
  kp.type = type;
  if (type == KeyType::kRsaSha256) {
    kp.rsa = RsaGenerateKey(rng, rsa_bits);
  } else {
    kp.sim_id.resize(kSha256DigestSize);
    rng.Fill(kp.sim_id.data(), kp.sim_id.size());
    kp.sim_mac.emplace(kp.sim_id);
  }
  return kp;
}

KeyPair SimKeyFromLabel(std::string_view label) {
  KeyPair kp;
  kp.type = KeyType::kSimSha256;
  const Sha256Digest d = Sha256::Hash(ToBytes(label));
  kp.sim_id.assign(d.begin(), d.end());
  kp.sim_mac.emplace(kp.sim_id);
  return kp;
}

Bytes Sign(const KeyPair& key, BytesView message) {
  if (key.type == KeyType::kRsaSha256) return RsaSign(key.rsa, message);
  const Sha256Digest tag = key.sim_mac ? key.sim_mac->Tag(message)
                                       : HmacSha256(key.sim_id, message);
  return Bytes(tag.begin(), tag.end());
}

bool Verify(const PublicKey& key, BytesView message, BytesView signature) {
  if (key.type == KeyType::kRsaSha256)
    return RsaVerify(key.rsa, message, signature);
  if (key.sim_id.empty()) return false;
  const Sha256Digest tag = HmacSha256(key.sim_id, message);
  return signature.size() == tag.size() &&
         std::equal(tag.begin(), tag.end(), signature.begin());
}

}  // namespace rev::crypto
