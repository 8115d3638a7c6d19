// Signature abstraction used by certificates, CRLs, and OCSP responses.
//
// Two schemes implement the same interface:
//  - kRsaSha256: real RSASSA-PKCS1-v1_5/SHA-256 (see rsa.h). Used in crypto
//    tests and the quickstart example.
//  - kSimSha256: a deterministic simulation scheme where the "signature" is
//    HMAC-SHA256 keyed by the *public* identifier. It is NOT secure (anyone
//    can forge), but it is cheap, deterministic, and — crucially — tampering
//    with the message or signature still fails verification, so the entire
//    issue/verify plumbing is exercised at ecosystem scale. The substitution
//    is documented in DESIGN.md.
#pragma once

#include <cstdint>
#include <optional>

#include "crypto/hmac.h"
#include "crypto/rsa.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace rev::crypto {

enum class KeyType : std::uint8_t { kRsaSha256, kSimSha256 };

// Public half of a key. For kSimSha256, `sim_id` is a 32-byte identifier
// that doubles as the verification key.
struct PublicKey {
  KeyType type = KeyType::kSimSha256;
  RsaPublicKey rsa;  // meaningful iff type == kRsaSha256
  Bytes sim_id;      // meaningful iff type == kSimSha256

  // Stable comparison for use as map keys / dedup.
  friend bool operator==(const PublicKey& a, const PublicKey& b);
};

struct KeyPair {
  KeyType type = KeyType::kSimSha256;
  RsaPrivateKey rsa;  // meaningful iff kRsaSha256
  Bytes sim_id;       // meaningful iff kSimSha256
  // HMAC mid-states for `sim_id`, built once by the two factories below so
  // each Sign costs no key-block compressions. A pair assembled by hand
  // leaves it empty and signs through HmacSha256 on `sim_id`.
  std::optional<PrecomputedHmacKey> sim_mac;

  PublicKey Public() const;
};

// Generates a key pair. `rsa_bits` only applies to kRsaSha256.
KeyPair GenerateKeyPair(util::Rng& rng, KeyType type, int rsa_bits = 1024);

// Deterministic sim key pair derived from a label (used by the ecosystem
// generator so runs are reproducible without storing key material).
KeyPair SimKeyFromLabel(std::string_view label);

// Signs `message` with the private key.
Bytes Sign(const KeyPair& key, BytesView message);

// Verifies `signature` over `message` against the public key.
bool Verify(const PublicKey& key, BytesView message, BytesView signature);

}  // namespace rev::crypto
