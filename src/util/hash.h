// Fast non-cryptographic hashing, header-only so every layer can use it.
//
// Mix64 is the one stateless 64-bit mixer: it seeds util::Rng and drives
// every deterministic decision and id (fault firing, retry jitter, ring
// placement, trace ids) and the Bloom filters' probe hashes.
//
// HashBytes serves every hash table keyed by bytes: the serving index/cache
// (serve::StatusKeyHash) and the two util::HashIndex users, the corpus's DER
// index (hashed once per chain element by core::Pipeline::ObserveDer) and
// util::StringInterner. Word-at-a-time multiply-xor mix: one multiply
// per 8 input bytes, versus one per byte for FNV-1a. Not collision-resistant
// — every table that uses it confirms a tag match by comparing the full
// key. The tail is loaded with a bounded memcpy, so a key is never read
// past its end.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

#include "util/bytes.h"

namespace rev::util {

// The golden-ratio increment of the splitmix64 stream.
inline constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;

// One splitmix64 step: Mix64(s) is the output of a stream whose state was
// `s` before the draw, so Mix64(0), Mix64(kGolden), Mix64(2 * kGolden), …
// is the published seed-0 sequence.
constexpr std::uint64_t Mix64(std::uint64_t x) noexcept {
  x += kGolden;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Folds each byte of `s` into `h` through Mix64: a seedable string hash for
// decisions that must depend only on their inputs.
inline std::uint64_t MixString(std::string_view s, std::uint64_t h) noexcept {
  for (char c : s) h = Mix64(h ^ static_cast<std::uint8_t>(c));
  return h;
}

// Uniform double in [0, 1) from the top 53 bits of a hash.
inline double UnitFromHash(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

inline std::uint64_t HashBytes(BytesView bytes) noexcept {
  constexpr std::uint64_t kMul = 0x9DDFEA08EB382D69ull;
  std::uint64_t h = kGolden ^ bytes.size();
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, bytes.data() + i, 8);
    h = (h ^ w) * kMul;
    h ^= h >> 32;
  }
  if (i < bytes.size()) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
    h = (h ^ tail) * kMul;
    h ^= h >> 32;
  }
  return h;
}

}  // namespace rev::util
