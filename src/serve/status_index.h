// A sharded, read-mostly status index over (issuer-key-hash, serial) →
// revocation record, the lookup structure behind the serving frontend.
//
// Readers never block writers and writers never corrupt readers: each shard
// publishes an immutable snapshot map behind a shared_ptr. A batch update
// builds the replacement map *outside* the reader-visible critical section
// and swaps the pointer in one step (the "epoch swap"); a reader that
// grabbed the old snapshot keeps reading a consistent — merely slightly
// stale — view. See docs/serving.md for the invariants.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "ocsp/responder.h"
#include "util/bytes.h"
#include "util/hash.h"
#include "x509/certificate.h"

namespace rev::serve {

// Flat lookup key: issuer key hash (32 bytes) followed by the serial.
// Serials are length-prefixed implicitly by the fixed-size hash prefix, so
// distinct (issuer, serial) pairs never collide.
using StatusKey = Bytes;

// `serial_be` is the unsigned big-endian magnitude (an x509::Serial, or a
// borrowed view of one straight out of a parsed request).
StatusKey MakeStatusKey(BytesView issuer_key_hash, BytesView serial_be);

// Splits a key back into its serial half (the issuer hash is the first 32
// bytes).
x509::Serial SerialOfKey(BytesView key);
BytesView IssuerHashOfKey(BytesView key);

// Transparent (C++20 heterogeneous-lookup) hash/eq: the serve hot path
// probes the index and cache maps with a BytesView over a stack key
// buffer, so a lookup never materializes a heap StatusKey.
struct StatusKeyHash {
  using is_transparent = void;
  std::size_t operator()(BytesView key) const noexcept {
    // Keys embed a cryptographic hash, so cheap mixing is plenty — but it
    // must be word-wise: byte-serial FNV over a 40-byte key costs ~3
    // cycles/byte and was the single largest line item on the serve hot
    // path (hashed up to 3x per request).
    return static_cast<std::size_t>(util::HashBytes(key));
  }
  std::size_t operator()(const StatusKey& key) const noexcept {
    return (*this)(BytesView(key));
  }
};
struct StatusKeyEq {
  using is_transparent = void;
  bool operator()(BytesView a, BytesView b) const noexcept {
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }
};

class StatusIndex {
 public:
  using Record = ocsp::Responder::RecordView;

  struct Update {
    StatusKey key;
    std::optional<Record> record;  // nullopt = erase (serve `unknown`)
  };

  explicit StatusIndex(std::size_t num_shards = 16);

  // Applies a batch of upserts/erases. Per shard the whole sub-batch
  // becomes visible atomically (snapshot swap); the epoch is bumped once
  // after every affected shard has swapped. Writers are serialized.
  void Apply(const std::vector<Update>& updates);

  // Point read: the record for `key`, or nullopt. Wait-free apart from a
  // brief shared lock taken to copy the shard's snapshot pointer.
  std::optional<Record> Lookup(BytesView key) const;

  // All keys currently present, sorted (deterministic rebuild order).
  std::vector<StatusKey> SortedKeys() const;

  // Full-state export for the replication channel (src/fleet): every
  // (key, record) pair, sorted by key so the serialized snapshot is
  // byte-identical no matter which thread exported it. Each shard's
  // snapshot is pinned once; the result is consistent per shard and at
  // worst one in-flight Apply() stale overall — exactly the guarantee a
  // lag-tracked replica needs.
  std::vector<std::pair<StatusKey, Record>> ExportRecords() const;

  std::size_t size() const;
  std::uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  std::size_t num_shards() const { return shards_.size(); }
  std::size_t ShardOf(BytesView key) const {
    return StatusKeyHash{}(key) % shards_.size();
  }

 private:
  using Map =
      std::unordered_map<StatusKey, Record, StatusKeyHash, StatusKeyEq>;
  using Snapshot = std::shared_ptr<const Map>;

  struct Shard {
    mutable std::shared_mutex mu;  // guards `snap` pointer, not map contents
    Snapshot snap = std::make_shared<Map>();
  };

  Snapshot SnapshotOf(std::size_t shard) const;

  std::vector<Shard> shards_;
  std::mutex writer_mu_;  // serializes Apply so no batch is lost
  std::atomic<std::uint64_t> epoch_{0};
};

}  // namespace rev::serve
