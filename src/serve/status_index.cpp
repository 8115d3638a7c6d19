#include "serve/status_index.h"

#include <algorithm>

namespace rev::serve {

StatusKey MakeStatusKey(BytesView issuer_key_hash, BytesView serial_be) {
  StatusKey key;
  key.reserve(issuer_key_hash.size() + serial_be.size());
  Append(key, issuer_key_hash);
  Append(key, serial_be);
  return key;
}

x509::Serial SerialOfKey(BytesView key) {
  return x509::Serial(key.begin() + 32, key.end());
}

BytesView IssuerHashOfKey(BytesView key) {
  return key.subspan(0, 32);
}

StatusIndex::StatusIndex(std::size_t num_shards)
    : shards_(num_shards == 0 ? 1 : num_shards) {}

StatusIndex::Snapshot StatusIndex::SnapshotOf(std::size_t shard) const {
  std::shared_lock lock(shards_[shard].mu);
  return shards_[shard].snap;
}

void StatusIndex::Apply(const std::vector<Update>& updates) {
  if (updates.empty()) return;
  std::lock_guard writer(writer_mu_);

  // Bucket the batch by shard so each affected shard is copied exactly once.
  std::vector<std::vector<const Update*>> by_shard(shards_.size());
  for (const Update& update : updates)
    by_shard[ShardOf(update.key)].push_back(&update);

  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (by_shard[s].empty()) continue;
    // Build the replacement off to the side; readers keep the old snapshot.
    auto next = std::make_shared<Map>(*SnapshotOf(s));
    for (const Update* update : by_shard[s]) {
      if (update->record)
        (*next)[update->key] = *update->record;
      else
        next->erase(update->key);
    }
    std::unique_lock lock(shards_[s].mu);
    shards_[s].snap = std::move(next);
  }
  epoch_.fetch_add(1, std::memory_order_acq_rel);
}

std::optional<StatusIndex::Record> StatusIndex::Lookup(BytesView key) const {
  const Snapshot snap = SnapshotOf(ShardOf(key));
  auto it = snap->find(key);
  if (it == snap->end()) return std::nullopt;
  return it->second;
}

std::vector<StatusKey> StatusIndex::SortedKeys() const {
  std::vector<StatusKey> keys;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Snapshot snap = SnapshotOf(s);
    for (const auto& [key, record] : *snap) keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end(), util::BytesLess{});
  return keys;
}

std::vector<std::pair<StatusKey, StatusIndex::Record>>
StatusIndex::ExportRecords() const {
  std::vector<std::pair<StatusKey, Record>> records;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Snapshot snap = SnapshotOf(s);
    for (const auto& [key, record] : *snap) records.emplace_back(key, record);
  }
  std::sort(records.begin(), records.end(),
            [](const auto& a, const auto& b) {
              return util::BytesLess{}(a.first, b.first);
            });
  return records;
}

std::size_t StatusIndex::size() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) total += SnapshotOf(s)->size();
  return total;
}

}  // namespace rev::serve
