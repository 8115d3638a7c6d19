#include "crlset/crlset.h"

#include "util/wire.h"

namespace rev::crlset {

using util::wire::GetBlob;
using util::wire::GetU32;
using util::wire::PutBlob;
using util::wire::PutU32;

void CrlSet::AddEntry(const Bytes& parent_spki_sha256,
                      const x509::Serial& serial) {
  parents_[parent_spki_sha256].insert(serial);
}

void CrlSet::AddBlockedSpki(const Bytes& spki_sha256) {
  blocked_spkis_.insert(spki_sha256);
}

bool CrlSet::CoversParent(const Bytes& parent_spki_sha256) const {
  return parents_.contains(parent_spki_sha256);
}

bool CrlSet::IsRevoked(const Bytes& parent_spki_sha256,
                       const x509::Serial& serial) const {
  auto it = parents_.find(parent_spki_sha256);
  return it != parents_.end() && it->second.contains(serial);
}

bool CrlSet::IsBlockedSpki(const Bytes& spki_sha256) const {
  return blocked_spkis_.contains(spki_sha256);
}

std::size_t CrlSet::NumEntries() const {
  std::size_t n = 0;
  for (const auto& [parent, serials] : parents_) n += serials.size();
  return n;
}

std::size_t CrlSet::SerializedSize() const {
  // Mirrors Serialize() field-for-field: u32 sequence, u32 parent count,
  // per parent a length-prefixed blob + u32 serial count + length-prefixed
  // serials, then u32 blocked count + length-prefixed SPKIs.
  std::size_t size = 4 + 4;
  for (const auto& [parent, serials] : parents_) {
    size += 4 + parent.size() + 4;
    for (const x509::Serial& serial : serials) size += 4 + serial.size();
  }
  size += 4;
  for (const Bytes& spki : blocked_spkis_) size += 4 + spki.size();
  return size;
}

Bytes CrlSet::Serialize() const {
  Bytes out;
  PutU32(out, static_cast<std::uint32_t>(sequence));
  PutU32(out, static_cast<std::uint32_t>(parents_.size()));
  for (const auto& [parent, serials] : parents_) {
    PutBlob(out, parent);
    PutU32(out, static_cast<std::uint32_t>(serials.size()));
    for (const x509::Serial& serial : serials) PutBlob(out, serial);
  }
  PutU32(out, static_cast<std::uint32_t>(blocked_spkis_.size()));
  for (const Bytes& spki : blocked_spkis_) PutBlob(out, spki);
  return out;
}

std::optional<CrlSet> CrlSet::Deserialize(BytesView data) {
  CrlSet set;
  std::size_t pos = 0;
  std::uint32_t sequence, num_parents;
  if (!GetU32(data, pos, &sequence) || !GetU32(data, pos, &num_parents))
    return std::nullopt;
  set.sequence = static_cast<int>(sequence);
  for (std::uint32_t i = 0; i < num_parents; ++i) {
    Bytes parent;
    std::uint32_t num_serials;
    if (!GetBlob(data, pos, &parent) || !GetU32(data, pos, &num_serials))
      return std::nullopt;
    auto& serials = set.parents_[parent];
    for (std::uint32_t j = 0; j < num_serials; ++j) {
      Bytes serial;
      if (!GetBlob(data, pos, &serial)) return std::nullopt;
      serials.insert(std::move(serial));
    }
  }
  std::uint32_t num_blocked;
  if (!GetU32(data, pos, &num_blocked)) return std::nullopt;
  for (std::uint32_t i = 0; i < num_blocked; ++i) {
    Bytes spki;
    if (!GetBlob(data, pos, &spki)) return std::nullopt;
    set.blocked_spkis_.insert(std::move(spki));
  }
  if (pos != data.size()) return std::nullopt;
  return set;
}

}  // namespace rev::crlset
