#include "crlset/bloom.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/rng.h"

namespace rev::crlset {

BloomFilter::BloomFilter(std::size_t m_bits, int k, std::uint64_t salt)
    : salt_(salt), m_(m_bits == 0 ? 8 : m_bits), k_(k <= 0 ? 1 : k) {
  bits_.assign((m_ + 7) / 8, 0);
}

BloomFilter BloomFilter::ForCapacity(std::size_t n, double p,
                                     std::uint64_t salt) {
  if (n == 0) n = 1;
  const double ln2 = std::log(2.0);
  const double m = -static_cast<double>(n) * std::log(p) / (ln2 * ln2);
  const std::size_t m_bits =
      std::max<std::size_t>(64, static_cast<std::size_t>(std::ceil(m)));
  return BloomFilter(m_bits, OptimalHashCount(m_bits, n), salt);
}

int BloomFilter::OptimalHashCount(std::size_t m_bits, std::size_t n) {
  const double k = std::round(static_cast<double>(m_bits) /
                              static_cast<double>(n == 0 ? 1 : n) *
                              std::log(2.0));
  return static_cast<int>(std::clamp(k, 1.0, 30.0));
}

double BloomFilter::ExpectedFpr(std::size_t m_bits, int k, std::size_t n) {
  if (m_bits == 0) return 1.0;
  const double exponent = -static_cast<double>(k) * static_cast<double>(n) /
                          static_cast<double>(m_bits);
  return std::pow(1.0 - std::exp(exponent), k);
}

BloomFilter BloomFilter::FromParts(std::uint64_t salt, std::size_t m_bits,
                                   int k, std::size_t inserted, Bytes bits) {
  BloomFilter filter(0, k, salt);
  filter.m_ = m_bits;
  filter.bits_ = std::move(bits);
  filter.inserted_ = inserted;
  return filter;
}

double BloomFilter::MeasureFpr(std::size_t probes, std::uint64_t seed) const {
  if (probes == 0) return 0;
  std::size_t hits = 0;
  util::Rng rng(seed);
  Bytes key(16);
  for (std::size_t i = 0; i < probes; ++i) {
    rng.Fill(key.data(), key.size());
    key[0] = 0xFB;  // distinct namespace from RevocationKey outputs
    if (MayContain(key)) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(probes);
}

Bytes RevocationKey(BytesView parent_spki_sha256, BytesView serial) {
  Bytes key;
  key.reserve(parent_spki_sha256.size() + serial.size() + 1);
  key.push_back(0x01);  // namespace tag
  Append(key, parent_spki_sha256);
  Append(key, serial);
  return key;
}

}  // namespace rev::crlset
