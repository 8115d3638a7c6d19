// Open-addressing index from 64-bit key hashes to corpus rows.
//
// The index stores only a 64-bit hash tag and the row id per slot (12 bytes
// versus the ~100 bytes per node of the std::map it replaces); the full key
// lives in a corpus column, and lookups resolve rare tag collisions through
// a caller-supplied equality predicate against that column. CertCorpus keys
// it by util::HashBytes of each row's DER and confirms tag matches against
// the arena copy; HashOf serves keys that are already uniform hashes
// (SHA-256 fingerprints). Linear probing over a power-of-two table, grown
// at 3/4 load. Agreement with a std::map oracle (including after rehash) is
// property-tested in tests/property_test.cpp, directly and through
// CertCorpus::FindDer.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "util/bytes.h"

namespace rev::core {

class FingerprintIndex {
 public:
  static constexpr std::uint32_t kNoRow = 0xFFFF'FFFFu;

  // Fingerprints are SHA-256 output, so their first 8 bytes are already a
  // uniform 64-bit hash.
  static std::uint64_t HashOf(BytesView fingerprint) {
    std::uint64_t h = 0;
    if (!fingerprint.empty())
      std::memcpy(&h, fingerprint.data(),
                  fingerprint.size() < 8 ? fingerprint.size() : 8);
    return h;
  }

  // Finds the row whose key matches; `eq(row)` must compare the probe key
  // against the backing column. Called only on hash-tag matches.
  template <typename Eq>
  std::uint32_t Find(std::uint64_t hash, const Eq& eq) const {
    if (rows_.empty()) return kNoRow;
    std::size_t i = static_cast<std::size_t>(hash) & mask_;
    while (rows_[i] != kNoRow) {
      if (hashes_[i] == hash && eq(rows_[i])) return rows_[i];
      i = (i + 1) & mask_;
    }
    return kNoRow;
  }

  // Inserts `row` under `hash`; the caller guarantees the key is absent.
  void Insert(std::uint64_t hash, std::uint32_t row) {
    if ((size_ + 1) * 4 >= rows_.size() * 3) Grow();
    std::size_t i = static_cast<std::size_t>(hash) & mask_;
    while (rows_[i] != kNoRow) i = (i + 1) & mask_;
    hashes_[i] = hash;
    rows_[i] = row;
    ++size_;
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return rows_.size(); }
  std::size_t bytes() const {
    return rows_.size() * (sizeof(std::uint64_t) + sizeof(std::uint32_t));
  }

 private:
  void Grow() { Rehash(rows_.empty() ? 64 : rows_.size() * 2); }

  void Rehash(std::size_t cap) {
    std::vector<std::uint64_t> old_hashes = std::move(hashes_);
    std::vector<std::uint32_t> old_rows = std::move(rows_);
    hashes_.assign(cap, 0);
    rows_.assign(cap, kNoRow);
    mask_ = cap - 1;
    for (std::size_t j = 0; j < old_rows.size(); ++j) {
      if (old_rows[j] == kNoRow) continue;
      std::size_t i = static_cast<std::size_t>(old_hashes[j]) & mask_;
      while (rows_[i] != kNoRow) i = (i + 1) & mask_;
      hashes_[i] = old_hashes[j];
      rows_[i] = old_rows[j];
    }
  }

  std::vector<std::uint64_t> hashes_;
  std::vector<std::uint32_t> rows_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace rev::core
