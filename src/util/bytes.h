// Byte-buffer aliases and small helpers shared across the library.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rev {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

// Appends `src` to the end of `dst`.
inline void Append(Bytes& dst, BytesView src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

// Appends the raw bytes of a string (no encoding conversion).
inline void Append(Bytes& dst, std::string_view src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

// The bytes of a string, borrowed (no copy, no encoding conversion).
inline BytesView AsBytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

// The characters of a byte buffer, borrowed (the inverse of AsBytes).
inline std::string_view AsStringView(BytesView b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

inline Bytes ToBytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

inline std::string ToString(BytesView b) {
  return std::string(b.begin(), b.end());
}

namespace util {

// The order of std::less<Bytes> (lexicographic by unsigned byte, a proper
// prefix first), written as one memcmp over the shorter length followed by
// a length compare. Sorts and ordered containers keyed by bytes use it:
// GCC 12 at -O3 inlines libstdc++'s vector comparison into them and
// reports a false -Wstringop-overread on its memcmp bound. Transparent, so
// a BytesView probes a container of Bytes; pairs compare member-wise.
struct BytesLess {
  using is_transparent = void;

  static int Compare(BytesView a, BytesView b) noexcept {
    const std::size_t n = a.size() < b.size() ? a.size() : b.size();
    if (n != 0) {
      if (const int c = std::memcmp(a.data(), b.data(), n); c != 0) return c;
    }
    return a.size() < b.size() ? -1 : a.size() > b.size() ? 1 : 0;
  }

  bool operator()(BytesView a, BytesView b) const noexcept {
    return Compare(a, b) < 0;
  }
  bool operator()(const std::pair<Bytes, Bytes>& a,
                  const std::pair<Bytes, Bytes>& b) const noexcept {
    const int c = Compare(a.first, b.first);
    return c != 0 ? c < 0 : Compare(a.second, b.second) < 0;
  }
};

}  // namespace util

}  // namespace rev
