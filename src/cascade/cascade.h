// CRLite-style multi-level filter cascade (ROADMAP item 3): an exactly
// queryable encoding of "which known certificates are revoked".
//
// Level 0 is a Bloom filter over the revoked keys. Probing every
// *non-revoked* key of the known-certificate universe against it yields the
// level-0 false positives; level 1 is a Bloom filter over those, probed
// with the revoked keys to find ITS false positives, and so on — each
// level's filter is built from the previous level's false positives, with
// the sides alternating, until a level produces none. A query then walks
// the levels: the first filter that does NOT contain the key decides
// (miss at an even level = not revoked, at an odd level = revoked), and a
// key contained through the last level belongs to that level's build set.
// Against the universe the cascade was built from, answers are exact: no
// false positives and no false negatives, proven per-key in
// tests/cascade_test.cpp. Keys outside that universe get Bloom-grade
// answers — the browser never asks about a certificate it has not seen.
//
// Each level is a crlset::BloomFilter — the same core as the plain §7.4
// filter — keyed by a per-level salt, so a key's bit pattern is
// independent across levels. Level 0 is sized with the CRLite rule
// p0 = r / (sqrt(2) * s) for r revoked among s non-revoked keys; deeper
// levels use 0.5, halving the carried set per level.
//
// Construction is deterministic at any thread count: the expensive probe
// step fans out across a util::ThreadPool in fixed chunks whose hit lists
// are merged in chunk order, and filter insertion is order-independent
// (bit OR), so Serialize() is bit-identical at threads=1 and threads=8.
// The wire format is versioned and carries an FNV-1a trailer so truncated
// or bit-flipped blobs fail Deserialize() instead of mis-answering.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "crlset/bloom.h"
#include "util/bytes.h"

namespace rev::cascade {

// Derives the fixed 32-byte cascade key for a certificate: SHA-256 over
// the length-prefixed issuer name DER and serial (matching the crawler
// DB's (issuer, serial) identity without ambiguity at the boundary).
Bytes CertKey(BytesView issuer_name_der, BytesView serial);

struct CascadeOptions {
  // Probe-step fan-out: 0 = hardware concurrency, 1 = exact serial path.
  unsigned threads = 1;
};

class FilterCascade {
 public:
  // Level cap: Build throws rather than exceed it (never reached in
  // practice — the carried set halves per level), and Deserialize rejects
  // a blob that claims more.
  static constexpr std::size_t kMaxLevels = 64;

  // Monotonic publisher sequence this build corresponds to.
  std::uint64_t sequence = 0;

  // Builds from `revoked` against the disjoint `not_revoked` remainder of
  // the known-cert universe. Either side may be empty. Duplicate keys are
  // harmless. Deterministic for fixed inputs at any `options.threads`.
  static FilterCascade Build(const std::vector<Bytes>& revoked,
                             const std::vector<Bytes>& not_revoked,
                             const CascadeOptions& options = {});

  // Exact for keys in the build universe; Bloom-grade for strangers.
  bool IsRevoked(BytesView key) const;

  std::size_t NumLevels() const { return levels_.size(); }
  std::uint64_t NumRevoked() const { return num_revoked_; }

  // Total filter payload (sum of level bit arrays), the number the paper's
  // Fig. 11 size comparison cares about.
  std::size_t FilterBytes() const;

  // Versioned binary wire format with an integrity trailer.
  Bytes Serialize() const;
  static std::optional<FilterCascade> Deserialize(BytesView data);

  friend bool operator==(const FilterCascade&, const FilterCascade&);

 private:
  std::vector<crlset::BloomFilter> levels_;
  std::uint64_t num_revoked_ = 0;
};

}  // namespace rev::cascade
