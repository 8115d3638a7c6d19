// Precomputed-response cache: maps a StatusKey to a batch-signed DER OCSP
// response so the serving hot path is a hash lookup plus a shared_ptr copy
// instead of a per-request signature (production responders pre-generate
// responses the same way; the paper's §6.2 bandwidth argument assumes it).
//
// Entries expire at `serve_until` — the response's nextUpdate, tightened to
// any scheduled revocation time so a pre-signed "good" is never served past
// the moment the revocation takes effect.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/status_index.h"
#include "util/bytes.h"
#include "util/time.h"

namespace rev::serve {

class ResponseCache {
 public:
  struct Entry {
    std::shared_ptr<const Bytes> der;  // full signed OCSPResponse
    util::Timestamp signed_at = 0;
    util::Timestamp serve_until = 0;  // exclusive: stale once now >= this
  };

  enum class Outcome { kHit, kMiss, kExpired };

  struct LookupResult {
    Outcome outcome = Outcome::kMiss;
    std::shared_ptr<const Bytes> der;  // set iff kHit
  };

  explicit ResponseCache(std::size_t num_shards = 16);

  // Single lookup under the key's shard shared lock. The key is a borrowed
  // view (heterogeneous find), so a caller can build it in a stack buffer.
  // The cache counts nothing: the caller tallies the outcome it resolves
  // (Frontend's serve.cache_* counters), once per request.
  //
  // Expiry boundary: `serve_until` is exclusive. A query at exactly
  // `serve_until` — e.g. a revocation scheduled at t, queried at t — must
  // observe kExpired, never a hit, and KeysStaleBy uses `serve_until <=
  // deadline` so an entry is a refresh candidate at the first instant it
  // can no longer be served.
  LookupResult Get(BytesView key, util::Timestamp now) const;

  void PutBatch(std::vector<std::pair<StatusKey, Entry>> entries);

  // Epoch-guarded install for entries signed from an index snapshot pinned
  // at `epoch`: per affected shard, takes the unique lock and installs that
  // shard's entries only if `index.epoch()` still equals `epoch`; once the
  // epoch has moved, the remaining entries are refused. Checking under the
  // same lock a flush's Invalidate takes closes the window in which a
  // stale install could land after that invalidation: either the install
  // precedes the invalidation (which then drops it) or it sees the bumped
  // epoch. Returns the number of entries installed.
  std::size_t PutBatchIfEpoch(std::vector<std::pair<StatusKey, Entry>> entries,
                              const StatusIndex& index, std::uint64_t epoch);

  void Invalidate(const StatusKey& key);
  void Clear();

  // Keys whose entry goes stale at or before `deadline` — the refresh
  // candidates. Sorted for deterministic batch re-signing.
  std::vector<StatusKey> KeysStaleBy(util::Timestamp deadline) const;

  // Full-state export for the replication channel (src/fleet): every
  // cached entry still servable at `now` (expired entries are dead weight
  // on the wire), sorted by key for a deterministic blob. Entry `der`
  // pointers are shared, not copied.
  std::vector<std::pair<StatusKey, Entry>> ExportEntries(
      util::Timestamp now) const;

  std::size_t size() const;

 private:
  using Map = std::unordered_map<StatusKey, Entry, StatusKeyHash, StatusKeyEq>;

  struct Shard {
    mutable std::shared_mutex mu;
    Map map;
  };

  std::size_t ShardOf(BytesView key) const {
    return StatusKeyHash{}(key) % shards_.size();
  }

  // Moves `entries` into their shards, one lock per affected shard; with a
  // non-null `index`, stops at the first shard that finds its epoch moved
  // past `epoch` (the PutBatchIfEpoch check).
  std::size_t Install(std::vector<std::pair<StatusKey, Entry>>& entries,
                      const StatusIndex* index, std::uint64_t epoch);

  std::vector<Shard> shards_;
};

}  // namespace rev::serve
