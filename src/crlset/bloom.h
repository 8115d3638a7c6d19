// A Bloom filter over revoked-certificate identities — the paper's proposed
// CRLSet replacement (§7.4): no false negatives, a tunable false-positive
// rate, and an order of magnitude more revocations in the same 250 KB.
//
// The repo's one Bloom core: the §7.4 filter (salt 0) and every cascade
// level (src/cascade, one salt per level) are instances, so Fig. 11 compares
// schemes, not filter designs. Hash and probes are inline because the
// cascade build probes its whole non-revoked universe per level.
#pragma once

#include <cstdint>

#include "util/bytes.h"
#include "util/hash.h"

namespace rev::crlset {

class BloomFilter {
 public:
  // `m_bits` filter size in bits (>0), `k` hash functions (>0). Filters
  // with different `salt`s probe independent bit positions for one key.
  BloomFilter(std::size_t m_bits, int k, std::uint64_t salt = 0);

  // Sizing for `n` expected insertions at false-positive rate `p`:
  // m = max(64, ceil(-n ln p / (ln 2)^2)), k = OptimalHashCount(m, n).
  static BloomFilter ForCapacity(std::size_t n, double p,
                                 std::uint64_t salt = 0);

  // The one k rule: round(m/n * ln 2), clamped to [1, 30].
  static int OptimalHashCount(std::size_t m_bits, std::size_t n);

  // Expected false-positive rate after `n` insertions into this filter:
  // (1 - e^{-kn/m})^k.
  static double ExpectedFpr(std::size_t m_bits, int k, std::size_t n);

  // Reassembles a filter from its wire parts. The caller has validated
  // them: m_bits > 0, k > 0 and bits.size() == ceil(m_bits / 8).
  static BloomFilter FromParts(std::uint64_t salt, std::size_t m_bits, int k,
                               std::size_t inserted, Bytes bits);

  void Insert(BytesView key) {
    const Probe probe = Hash(key);
    for (int i = 0; i < k_; ++i) {
      const std::uint64_t bit = probe.Bit(i, m_);
      bits_[bit / 8] |= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    ++inserted_;
  }

  bool MayContain(BytesView key) const {
    const Probe probe = Hash(key);
    for (int i = 0; i < k_; ++i) {
      const std::uint64_t bit = probe.Bit(i, m_);
      if ((bits_[bit / 8] & (1u << (bit % 8))) == 0) return false;
    }
    return true;
  }

  std::size_t SizeBytes() const { return bits_.size(); }
  std::size_t SizeBits() const { return m_; }
  int hash_count() const { return k_; }
  std::size_t inserted() const { return inserted_; }
  std::uint64_t salt() const { return salt_; }
  const Bytes& bits() const { return bits_; }

  // Measures the actual false-positive rate against `probes` random keys
  // known not to be inserted (keys derived from `seed`).
  double MeasureFpr(std::size_t probes, std::uint64_t seed) const;

  friend bool operator==(const BloomFilter&, const BloomFilter&) = default;

 private:
  struct Probe {
    std::uint64_t h1;
    std::uint64_t h2;
    std::uint64_t Bit(int i, std::uint64_t m) const {
      return (h1 + static_cast<std::uint64_t>(i) * h2) % m;
    }
  };

  // Two Mix64 lanes over the key's big-endian words, seeded from the salt;
  // the length is folded into the tail word so prefixes differ. Bit i is
  // h1 + i*h2 mod m (Kirsch–Mitzenmacher). Keys are mostly digests already
  // (CertKey is a SHA-256), so no cryptographic hash is paid per probe.
  Probe Hash(BytesView key) const {
    std::uint64_t a = util::Mix64(salt_ ^ 0x243F6A8885A308D3ull);
    std::uint64_t b = util::Mix64(~salt_ ^ 0x13198A2E03707344ull);
    std::size_t i = 0;
    for (; i + 8 <= key.size(); i += 8) {
      std::uint64_t word = 0;
      for (std::size_t j = 0; j < 8; ++j) word = (word << 8) | key[i + j];
      a = util::Mix64(a ^ word);
      b = util::Mix64(b + word);
    }
    std::uint64_t tail = key.size();
    for (; i < key.size(); ++i) tail = (tail << 8) | key[i];
    a = util::Mix64(a ^ tail);
    b = util::Mix64(b + tail);
    return {a, b == 0 ? util::kGolden : b};
  }

  std::uint64_t salt_;
  std::size_t m_;  // bits
  int k_;
  Bytes bits_;
  std::size_t inserted_ = 0;
};

// Convenience key for (parent, serial) pairs.
Bytes RevocationKey(BytesView parent_spki_sha256, BytesView serial);

}  // namespace rev::crlset
