// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for certificate fingerprints, CRLSet parent keys (SPKI hashes),
// RSASSA-PKCS1-v1_5 digests, and the SimSigner tag scheme.
//
// The compression function is chosen once per process: the x86-64 SHA
// extensions (SHA-NI) when the CPU reports them, else the portable scalar
// loop. No option, environment variable or build flag selects it. The
// scalar loop is also the oracle: property_test runs both paths over
// random lengths and Update splits and requires equal digests
// (crypto/sha256_blocks.h is the internal seam it uses).
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace rev::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;

using Sha256Digest = std::array<std::uint8_t, kSha256DigestSize>;

// Incremental hashing context.
class Sha256 {
 public:
  Sha256();

  void Update(BytesView data);
  Sha256Digest Finish();

  // One-shot convenience.
  static Sha256Digest Hash(BytesView data);

 private:
  // Compresses `blocks` whole 64-byte blocks through the chosen path.
  void ProcessBlocks(const std::uint8_t* data, std::size_t blocks);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

// Digest as a byte vector (handy for APIs taking Bytes).
Bytes Sha256Bytes(BytesView data);

}  // namespace rev::crypto
