// Fast non-cryptographic hash over a byte string, shared by every hash table
// keyed by bytes: the serving index/cache (serve::StatusKeyHash), the
// corpus's DER index (core::CertCorpus::FindDer) and util::StringInterner.
//
// Word-at-a-time multiply-xor mix: one multiply per 8 input bytes, versus
// one per byte for FNV-1a. Not collision-resistant — every table that uses
// it confirms a tag match by comparing the full key. The tail is loaded
// with a bounded memcpy, so a key is never read past its end.
#pragma once

#include <cstdint>
#include <cstring>

#include "util/bytes.h"

namespace rev::util {

inline std::uint64_t HashBytes(BytesView bytes) noexcept {
  constexpr std::uint64_t kMul = 0x9DDFEA08EB382D69ull;
  std::uint64_t h = 0x9E3779B97F4A7C15ull ^ bytes.size();
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
