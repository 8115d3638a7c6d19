// String interning: maps byte strings to dense, stable 32-bit ids.
//
// Backs the corpus columns for issuer/subject name DER and CRL/OCSP URLs:
// 5M rows reference a few thousand distinct names and URLs, so columns hold
// 4-byte ids instead of heap strings. Storage lives in a util::Arena, so the
// string_view returned by Get() stays valid for the interner's lifetime.
// Ids are assigned densely in first-intern order and never change; a
// util::HashIndex keyed by util::HashBytes maps each string to its id,
// confirmed against the stored copy (property-tested in
// tests/property_test.cpp).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/arena.h"
#include "util/bytes.h"
#include "util/hash.h"
#include "util/hash_index.h"

namespace rev::util {

class StringInterner {
 public:
  static constexpr std::uint32_t kInvalidId = HashIndex::kNoId;

  // Returns the id for `s`, interning a stable copy on first sight.
  std::uint32_t Intern(std::string_view s) {
    const std::uint64_t hash = Hash(s);
    if (const std::uint32_t found = Find(s, hash); found != kInvalidId)
      return found;
    const auto id = static_cast<std::uint32_t>(by_id_.size());
    by_id_.push_back(arena_.CopyString(s));
    index_.Insert(hash, id);
    return id;
  }

  std::uint32_t Intern(BytesView b) { return Intern(AsStringView(b)); }

  // Id for `s` if already interned, else kInvalidId.
  std::uint32_t Find(std::string_view s) const { return Find(s, Hash(s)); }

  std::uint32_t Find(BytesView b) const { return Find(AsStringView(b)); }

  // The interned string for `id`; valid for the interner's lifetime.
  std::string_view Get(std::uint32_t id) const { return by_id_[id]; }

  BytesView GetBytes(std::uint32_t id) const {
    const std::string_view s = by_id_[id];
    return AsBytes(s);
  }

  std::size_t size() const { return by_id_.size(); }
  std::size_t arena_bytes() const { return arena_.bytes_used(); }

 private:
  static std::uint64_t Hash(std::string_view s) {
    return HashBytes(AsBytes(s));
  }

  std::uint32_t Find(std::string_view s, std::uint64_t hash) const {
    return index_.Find(hash, [&](std::uint32_t id) { return by_id_[id] == s; });
  }

  Arena arena_{1u << 16};
  std::vector<std::string_view> by_id_;
  HashIndex index_;  // HashBytes(string) -> id
};

}  // namespace rev::util
