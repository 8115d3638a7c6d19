#include "cascade/cascade.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "crypto/sha256.h"
#include "util/hash.h"
#include "util/thread_pool.h"
#include "util/wire.h"

namespace rev::cascade {

namespace wire = util::wire;

namespace {

constexpr std::uint32_t kMagic = 0x52434631;  // "RCF1"
constexpr std::uint16_t kVersion = 1;
// Deserialize sanity cap on k: far above anything a build produces (30),
// low enough that a fuzzed header cannot make a probe loop run away.
constexpr std::uint32_t kMaxHashes = 64;

}  // namespace

Bytes CertKey(BytesView issuer_name_der, BytesView serial) {
  Bytes buffer;
  buffer.reserve(8 + issuer_name_der.size() + serial.size());
  wire::PutU32(buffer, static_cast<std::uint32_t>(issuer_name_der.size()));
  Append(buffer, issuer_name_der);
  wire::PutU32(buffer, static_cast<std::uint32_t>(serial.size()));
  Append(buffer, serial);
  const crypto::Sha256Digest d = crypto::Sha256::Hash(buffer);
  return Bytes(d.begin(), d.end());
}

FilterCascade FilterCascade::Build(const std::vector<Bytes>& revoked,
                                   const std::vector<Bytes>& not_revoked,
                                   const CascadeOptions& options) {
  FilterCascade cascade;
  cascade.num_revoked_ = revoked.size();
  if (revoked.empty()) return cascade;  // zero levels: everything answers no

  const double r = static_cast<double>(revoked.size());
  const double s = static_cast<double>(std::max<std::size_t>(1, not_revoked.size()));
  const double p0 = std::clamp(r / (std::sqrt(2.0) * s), 1e-9, 0.5);

  util::ThreadPool pool(options.threads);

  // `include` is inserted into the level's filter; `exclude` is probed
  // against it and its hits become the next level's include. The sides swap
  // each level. Pointers avoid copying the big input vectors for level 0.
  const std::vector<Bytes>* include = &revoked;
  const std::vector<Bytes>* exclude = &not_revoked;
  std::vector<Bytes> carried_include, carried_exclude;

  while (!include->empty()) {
    if (cascade.levels_.size() >= kMaxLevels)
      throw std::runtime_error("FilterCascade::Build: cascade did not converge");
    const std::size_t index = cascade.levels_.size();
    const double p = index == 0 ? p0 : 0.5;
    // Salt is a pure function of the level index so rebuilds of the same
    // inputs serialize identically.
    crlset::BloomFilter level = crlset::BloomFilter::ForCapacity(
        include->size(), p, util::Mix64(0xCA5CADEull + index));
    for (const Bytes& key : *include) level.Insert(key);

    // Probe the exclude side in fixed chunks; per-chunk hit lists merged in
    // chunk order keep the next level's build set identical at any thread
    // count (the filter itself is read-only here).
    constexpr std::size_t kChunk = 4096;
    const std::size_t num_chunks = (exclude->size() + kChunk - 1) / kChunk;
    std::vector<std::vector<Bytes>> hits(num_chunks);
    pool.ParallelFor(num_chunks, [&](std::size_t c) {
      const std::size_t begin = c * kChunk;
      const std::size_t end = std::min(begin + kChunk, exclude->size());
      for (std::size_t i = begin; i < end; ++i) {
        if (level.MayContain((*exclude)[i])) hits[c].push_back((*exclude)[i]);
      }
    });
    std::vector<Bytes> next_include;
    for (std::vector<Bytes>& chunk : hits)
      for (Bytes& key : chunk) next_include.push_back(std::move(key));

    // The side we just inserted becomes the next exclude set; its false
    // positives become the next include set.
    carried_exclude = (index == 0) ? revoked : std::move(carried_include);
    carried_include = std::move(next_include);
    include = &carried_include;
    exclude = &carried_exclude;
    cascade.levels_.push_back(std::move(level));
  }
  return cascade;
}

bool FilterCascade::IsRevoked(BytesView key) const {
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    if (!levels_[i].MayContain(key)) {
      // The key sits on level i's exclude side: not-revoked for even i,
      // revoked for odd i.
      return (i % 2) == 1;
    }
  }
  // Contained through the last level: it belongs to that level's build
  // set — revoked iff the last level holds revoked keys (even index).
  return !levels_.empty() && (levels_.size() - 1) % 2 == 0;
}

std::size_t FilterCascade::FilterBytes() const {
  std::size_t total = 0;
  for (const crlset::BloomFilter& level : levels_) total += level.SizeBytes();
  return total;
}

Bytes FilterCascade::Serialize() const {
  Bytes out;
  wire::PutU32(out, kMagic);
  wire::PutU16(out, kVersion);
  wire::PutU64(out, sequence);
  wire::PutU64(out, num_revoked_);
  wire::PutU32(out, static_cast<std::uint32_t>(levels_.size()));
  for (const crlset::BloomFilter& level : levels_) {
    wire::PutU64(out, level.salt());
    wire::PutU64(out, level.SizeBits());
    wire::PutU32(out, static_cast<std::uint32_t>(level.hash_count()));
    wire::PutU64(out, level.inserted());
    Append(out, level.bits());
  }
  wire::SealChecksum(out);
  return out;
}

std::optional<FilterCascade> FilterCascade::Deserialize(BytesView data) {
  BytesView payload;
  if (!wire::CheckChecksum(data, &payload)) return std::nullopt;
  std::size_t pos = 0;
  std::uint32_t magic, num_levels;
  std::uint16_t version;
  FilterCascade cascade;
  if (!wire::GetU32(payload, pos, &magic) || magic != kMagic) return std::nullopt;
  if (!wire::GetU16(payload, pos, &version) || version != kVersion)
    return std::nullopt;
  if (!wire::GetU64(payload, pos, &cascade.sequence)) return std::nullopt;
  if (!wire::GetU64(payload, pos, &cascade.num_revoked_)) return std::nullopt;
  if (!wire::GetU32(payload, pos, &num_levels) || num_levels > kMaxLevels)
    return std::nullopt;
  cascade.levels_.reserve(num_levels);
  for (std::uint32_t i = 0; i < num_levels; ++i) {
    std::uint64_t salt, m_bits, inserted;
    std::uint32_t k;
    if (!wire::GetU64(payload, pos, &salt)) return std::nullopt;
    if (!wire::GetU64(payload, pos, &m_bits)) return std::nullopt;
    if (!wire::GetU32(payload, pos, &k) || k == 0 || k > kMaxHashes)
      return std::nullopt;
    if (!wire::GetU64(payload, pos, &inserted)) return std::nullopt;
    // The bit array must actually be present: bound m_bits by the bytes
    // remaining before allocating anything.
    if (m_bits == 0) return std::nullopt;
    const std::uint64_t num_bytes = m_bits / 8 + (m_bits % 8 != 0);
    if (num_bytes > payload.size() - pos) return std::nullopt;
    Bytes bits(payload.begin() + static_cast<std::ptrdiff_t>(pos),
               payload.begin() + static_cast<std::ptrdiff_t>(pos + num_bytes));
    pos += num_bytes;
    cascade.levels_.push_back(crlset::BloomFilter::FromParts(
        salt, m_bits, static_cast<int>(k), inserted, std::move(bits)));
  }
  if (pos != payload.size()) return std::nullopt;
  return cascade;
}

bool operator==(const FilterCascade& a, const FilterCascade& b) {
  return a.sequence == b.sequence && a.num_revoked_ == b.num_revoked_ &&
         a.levels_ == b.levels_;
}

}  // namespace rev::cascade
