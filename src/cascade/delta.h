// The delta-update channel for the filter cascade.
//
// A cascade cannot be patched in place (every level's bit array depends on
// the whole key population), so the daily publisher ships the *key-set
// difference* between consecutive sequences instead: the keys newly
// revoked and the keys dropped. A client holds its last full snapshot plus
// an overlay of applied deltas; queries consult the overlay first (exact —
// the keys are explicit) and fall through to the cascade. Query answers
// after applying deltas N→M are therefore identical to a fresh snapshot at
// M for every key of the universe (tests/cascade_test.cpp pins this), at a
// tiny fraction of the bytes. When the overlay grows past the point where
// deltas stop paying, or a client is too stale for the publisher's
// retained history, the channel falls back to a full snapshot
// (publisher.h).
//
// Wire shapes (all FNV-1a sealed, versioned like the cascade format):
//   CascadeDelta      one sequence step: add/remove key sets
//   UpdateResponse    what `GET /cascade/delta?from=N` returns — up-to-date,
//                     a run of deltas, or a full-snapshot fallback
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "cascade/cascade.h"
#include "util/bytes.h"

namespace rev::cascade {

struct CascadeDelta {
  std::uint64_t from_sequence = 0;
  std::uint64_t to_sequence = 0;
  std::vector<Bytes> added;    // newly revoked keys
  std::vector<Bytes> removed;  // keys no longer revoked (or retired)

  Bytes Serialize() const;
  static std::optional<CascadeDelta> Deserialize(BytesView data);

  friend bool operator==(const CascadeDelta&, const CascadeDelta&) = default;
};

// The publisher's answer to a delta poll.
struct UpdateResponse {
  enum class Kind : std::uint8_t {
    kUpToDate = 0,  // client already at the current sequence
    kDeltas = 1,    // contiguous run of deltas from the client's sequence
    kSnapshot = 2,  // full-snapshot fallback
  };
  Kind kind = Kind::kUpToDate;
  std::vector<CascadeDelta> deltas;  // kDeltas
  Bytes snapshot;                    // kSnapshot: a FilterCascade blob

  Bytes Serialize() const;
  static std::optional<UpdateResponse> Deserialize(BytesView data);
};

// Client-side revocation state: an immutable shared snapshot plus the
// overlay of applied deltas. Copy-cheap across a simulated fleet — tens of
// thousands of clients on the same sequence share one decoded cascade.
class ClientCascade {
 public:
  // Replaces everything with a full snapshot (overlay cleared).
  void ResetTo(std::shared_ptr<const FilterCascade> snapshot);

  // Applies one delta; rejects (returns false) unless
  // `delta.from_sequence == sequence()`. A rejected delta changes nothing.
  bool ApplyDelta(const CascadeDelta& delta);

  // Overlay-first exact lookup.
  bool IsRevoked(BytesView key) const;

  // Current sequence: snapshot sequence plus applied deltas; 0 = never
  // synced (answers "not revoked" for everything, like a fresh browser).
  std::uint64_t sequence() const { return sequence_; }
  bool synced() const { return base_ != nullptr; }
  std::size_t overlay_size() const { return overlay_.size(); }
  const std::shared_ptr<const FilterCascade>& base() const { return base_; }

 private:
  std::shared_ptr<const FilterCascade> base_;
  // key -> latest status (true = revoked), overriding the snapshot.
  std::map<Bytes, bool, util::BytesLess> overlay_;
  std::uint64_t sequence_ = 0;
};

}  // namespace rev::cascade
