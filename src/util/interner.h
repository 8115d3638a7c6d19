// String interning: maps byte strings to dense, stable 32-bit ids.
//
// Backs the corpus columns for issuer/subject name DER and CRL/OCSP URLs:
// 5M rows reference a few thousand distinct names and URLs, so columns hold
// 4-byte ids instead of heap strings. Storage lives in a util::Arena, so the
// string_view returned by Get() stays valid for the interner's lifetime and
// ids are assigned densely in first-intern order and never change
// (property-tested in tests/property_test.cpp).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/arena.h"
#include "util/bytes.h"
#include "util/hash.h"

namespace rev::util {

class StringInterner {
 public:
  static constexpr std::uint32_t kInvalidId = 0xFFFF'FFFFu;

  // Returns the id for `s`, interning a stable copy on first sight.
  std::uint32_t Intern(std::string_view s) {
    if (by_id_.size() * 4 >= slots_.size() * 3) Grow();
    const std::uint64_t hash = Hash(s);
    std::size_t i = static_cast<std::size_t>(hash) & mask_;
    while (slots_[i].id != kInvalidId) {
      if (slots_[i].hash == hash && by_id_[slots_[i].id] == s)
        return slots_[i].id;
      i = (i + 1) & mask_;
    }
    const auto id = static_cast<std::uint32_t>(by_id_.size());
    by_id_.push_back(arena_.CopyString(s));
    slots_[i] = Slot{hash, id};
    return id;
  }

  std::uint32_t Intern(BytesView b) { return Intern(AsStringView(b)); }

  // Id for `s` if already interned, else kInvalidId.
  std::uint32_t Find(std::string_view s) const {
    if (slots_.empty()) return kInvalidId;
    const std::uint64_t hash = Hash(s);
    std::size_t i = static_cast<std::size_t>(hash) & mask_;
    while (slots_[i].id != kInvalidId) {
      if (slots_[i].hash == hash && by_id_[slots_[i].id] == s)
        return slots_[i].id;
      i = (i + 1) & mask_;
    }
    return kInvalidId;
  }

  std::uint32_t Find(BytesView b) const { return Find(AsStringView(b)); }

  // The interned string for `id`; valid for the interner's lifetime.
  std::string_view Get(std::uint32_t id) const { return by_id_[id]; }

  BytesView GetBytes(std::uint32_t id) const {
    const std::string_view s = by_id_[id];
    return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
  }

  std::size_t size() const { return by_id_.size(); }
  std::size_t arena_bytes() const { return arena_.bytes_used(); }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t id = kInvalidId;
  };

  static std::string_view AsStringView(BytesView b) {
    return {reinterpret_cast<const char*>(b.data()), b.size()};
  }

  static std::uint64_t Hash(std::string_view s) {
    return HashBytes(
        {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }

  void Grow() {
    const std::size_t cap = slots_.empty() ? 64 : slots_.size() * 2;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    for (const Slot& slot : old) {
      if (slot.id == kInvalidId) continue;
      std::size_t i = static_cast<std::size_t>(slot.hash) & mask_;
      while (slots_[i].id != kInvalidId) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  Arena arena_{1u << 16};
  std::vector<std::string_view> by_id_;
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
};

}  // namespace rev::util
