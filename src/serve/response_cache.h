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

#include "obs/metrics.h"
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
  // Only a hit is tallied here: a miss or expired outcome is tallied by the
  // caller that resolves it (through CountOutcome), because the serve path
  // hands those to Frontend::SignMiss, which looks the key up again under
  // its shard's miss lock — counting here too would count one request
  // twice.
  //
  // Expiry boundary: `serve_until` is exclusive. A query at exactly
  // `serve_until` — e.g. a revocation scheduled at t, queried at t — must
  // observe kExpired, never a hit, and KeysStaleBy uses `serve_until <=
  // deadline` so an entry is a refresh candidate at the first instant it
  // can no longer be served.
  LookupResult Get(BytesView key, util::Timestamp now) const;

  // Tallies the misses and expiries a Get caller resolves itself. Keeps
  // hits()/misses()/expired() strictly monotonic with one tally per
  // request: a miss that waited behind another for the same key and then
  // finds its entry counts as a hit, exactly as it would had the requests
  // arrived one at a time.
  void CountOutcome(Outcome outcome);

  void Put(const StatusKey& key, Entry entry);
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
  void InvalidateBatch(const std::vector<StatusKey>& keys);
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

  // Registry tallies ("serve.response_cache.*{cache=N}"). Strictly
  // monotonic: lookups only ever add, and Clear()/Invalidate()/batch
  // re-signs never reset them — a reader sampling across a RefreshStale or
  // an epoch swap sees the totals move forward only.
  std::uint64_t hits() const { return hits_.Value(); }
  std::uint64_t misses() const { return misses_.Value(); }
  std::uint64_t expired() const { return expired_.Value(); }

 private:
  using Map = std::unordered_map<StatusKey, Entry, StatusKeyHash, StatusKeyEq>;

  struct Shard {
    mutable std::shared_mutex mu;
    Map map;
  };

  std::size_t ShardOf(BytesView key) const {
    return StatusKeyHash{}(key) % shards_.size();
  }

  ResponseCache(std::size_t num_shards, std::uint64_t instance);

  // Moves `entries` into their shards, one lock per affected shard; with a
  // non-null `index`, stops at the first shard that finds its epoch moved
  // past `epoch` (the PutBatchIfEpoch check).
  std::size_t Install(std::vector<std::pair<StatusKey, Entry>>& entries,
                      const StatusIndex* index, std::uint64_t epoch);

  std::vector<Shard> shards_;
  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& expired_;
};

}  // namespace rev::serve
