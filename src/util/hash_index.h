// Open-addressing index from 64-bit hash tags to dense 32-bit ids.
//
// The one hash table for keys stored elsewhere: each slot holds only the
// key's tag and its id (12 bytes), and the full key lives in the caller's
// column, so lookups confirm a tag match through a caller-supplied
// equality predicate against that column. core::CertCorpus keys it by
// util::HashBytes of each row's DER (confirmed against the arena copy);
// util::StringInterner by util::HashBytes of each string. Linear probing
// over a power-of-two table, grown at 3/4 load. Agreement with a std::map
// oracle (including after rehash) is property-tested in
// tests/property_test.cpp, directly and through both users.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rev::util {

class HashIndex {
 public:
  static constexpr std::uint32_t kNoId = 0xFFFF'FFFFu;

  // Finds the id whose key matches; `eq(id)` must compare the probe key
  // against the caller's column. Called only on tag matches.
  template <typename Eq>
  std::uint32_t Find(std::uint64_t tag, const Eq& eq) const {
    if (ids_.empty()) return kNoId;
    std::size_t i = static_cast<std::size_t>(tag) & mask_;
    while (ids_[i] != kNoId) {
      if (tags_[i] == tag && eq(ids_[i])) return ids_[i];
      i = (i + 1) & mask_;
    }
    return kNoId;
  }

  // Inserts `id` under `tag`; the caller guarantees the key is absent.
  void Insert(std::uint64_t tag, std::uint32_t id) {
    if ((size_ + 1) * 4 >= ids_.size() * 3) Grow();
    Place(tag, id);
    ++size_;
  }

  std::size_t size() const { return size_; }
  std::size_t bytes() const {
    return ids_.size() * (sizeof(std::uint64_t) + sizeof(std::uint32_t));
  }

 private:
  void Grow() {
    const std::size_t cap = ids_.empty() ? 64 : ids_.size() * 2;
    std::vector<std::uint64_t> old_tags = std::move(tags_);
    std::vector<std::uint32_t> old_ids = std::move(ids_);
    tags_.assign(cap, 0);
    ids_.assign(cap, kNoId);
    mask_ = cap - 1;
    for (std::size_t j = 0; j < old_ids.size(); ++j)
      if (old_ids[j] != kNoId) Place(old_tags[j], old_ids[j]);
  }

  // Stores (tag, id) in the first free slot of the tag's probe run.
  void Place(std::uint64_t tag, std::uint32_t id) {
    std::size_t i = static_cast<std::size_t>(tag) & mask_;
    while (ids_[i] != kNoId) i = (i + 1) & mask_;
    tags_[i] = tag;
    ids_[i] = id;
  }

  std::vector<std::uint64_t> tags_;
  std::vector<std::uint32_t> ids_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace rev::util
