// The cascade distribution publisher: builds one FilterCascade per
// (simulated) day from the crawler's revocation DB, derives the delta
// against the previous build, retains a bounded delta history, and serves
// both over HTTP — either standalone through SimNet or riding a
// serve::Frontend via its route table (GET /cascade/snapshot and
// GET /cascade/delta?from=N beside /metrics and the OCSP paths).
//
// Snapshot-fallback policy: a poll gets deltas only when the client's
// sequence is inside the retained history AND the concatenated deltas are
// actually cheaper than `snapshot_fallback_fraction` of the full snapshot;
// otherwise the full snapshot ships. Everything is instrumented through
// src/obs (`cascade.*{publisher=N}`), see docs/distribution.md.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cascade/cascade.h"
#include "cascade/delta.h"
#include "net/simnet.h"
#include "serve/frontend.h"
#include "util/time.h"

namespace rev::cascade {

struct PublisherOptions {
  CascadeOptions cascade;
  // Deltas retained; a client whose sequence predates the window gets the
  // full snapshot.
  std::size_t max_delta_history = 30;
  // Serve deltas only while their total bytes stay below this fraction of
  // the current snapshot blob.
  double snapshot_fallback_fraction = 0.5;
};

// What one Publish() produced (also mirrored into the metrics registry).
struct PublishStats {
  std::uint64_t sequence = 0;
  std::size_t levels = 0;
  std::size_t snapshot_bytes = 0;
  std::size_t filter_bytes = 0;
  std::size_t delta_bytes = 0;  // 0 for the first build
  std::size_t added = 0;
  std::size_t removed = 0;
  std::size_t revoked = 0;
};

class Publisher {
 public:
  static constexpr const char* kSnapshotPath = "/cascade/snapshot";
  static constexpr const char* kDeltaPathPrefix = "/cascade/delta?from=";

  explicit Publisher(PublisherOptions options = {});
  ~Publisher();  // out of line: Instruments is incomplete here

  // Builds and publishes the next sequence. `universe` is every key the
  // crawler DB knows (shared, typically one allocation for the whole run);
  // `revoked` must be a subset of it. The non-revoked side is derived here.
  PublishStats Publish(std::shared_ptr<const std::vector<Bytes>> universe,
                       std::vector<Bytes> revoked, util::Timestamp now);

  std::uint64_t sequence() const { return sequence_; }
  std::shared_ptr<const FilterCascade> Current() const { return current_; }

  // Ground truth for fleet verification: the revoked-key set and publish
  // time at `seq` (nullptr / 0 when evicted or never published). History
  // eviction follows max_delta_history.
  using KeySet = std::set<Bytes, util::BytesLess>;
  std::shared_ptr<const KeySet> RevokedAt(std::uint64_t seq) const;
  // Same keys as RevokedAt, sorted, for O(1) sampling by index.
  std::shared_ptr<const std::vector<Bytes>> RevokedListAt(
      std::uint64_t seq) const;
  util::Timestamp PublishTimeAt(std::uint64_t seq) const;
  std::size_t AddedAt(std::uint64_t seq) const;
  std::shared_ptr<const std::vector<Bytes>> UniverseAt(std::uint64_t seq) const;

  // HTTP surface. Unknown paths 404; malformed `from` values get the full
  // snapshot (the channel always converges).
  net::HttpResponse HandleHttp(const net::HttpRequest& request,
                               util::Timestamp now);

  // Registers the /cascade/* routes on `frontend` (call before the
  // frontend starts serving; the publisher must outlive it).
  void ServeThrough(serve::Frontend& frontend);

  struct Counters {
    std::uint64_t builds = 0;
    std::uint64_t snapshot_serves = 0;
    std::uint64_t delta_serves = 0;
    std::uint64_t up_to_date_serves = 0;
    std::uint64_t bytes_served = 0;
  };
  // Read from the registry instruments.
  Counters counters() const;

 private:
  struct Epoch {
    std::uint64_t sequence = 0;
    util::Timestamp published_at = 0;
    Bytes delta_blob;  // delta (sequence-1 → sequence); empty for the first
    std::size_t added = 0;
    std::size_t removed = 0;
    std::shared_ptr<const KeySet> revoked;
    std::shared_ptr<const std::vector<Bytes>> revoked_list;  // sorted
    std::shared_ptr<const std::vector<Bytes>> universe;
  };

  const Epoch* FindEpoch(std::uint64_t seq) const;
  net::HttpResponse Respond(const UpdateResponse& response);

  PublisherOptions options_;
  std::uint64_t sequence_ = 0;
  std::shared_ptr<const FilterCascade> current_;
  std::shared_ptr<const Bytes> snapshot_blob_;
  std::deque<Epoch> history_;  // ascending sequence, bounded

  struct Instruments;
  std::string metrics_label_;
  std::unique_ptr<Instruments> metrics_;
};

}  // namespace rev::cascade
