#include "serve/response_cache.h"

#include <algorithm>

namespace rev::serve {

ResponseCache::ResponseCache(std::size_t num_shards)
    : shards_(num_shards == 0 ? 1 : num_shards) {}

ResponseCache::LookupResult ResponseCache::Get(BytesView key,
                                               util::Timestamp now) const {
  const Shard& shard = shards_[ShardOf(key)];
  std::shared_lock lock(shard.mu);
  const auto it = shard.map.find(key);
  if (it == shard.map.end()) return {Outcome::kMiss, nullptr};
  if (now >= it->second.serve_until) return {Outcome::kExpired, nullptr};
  return {Outcome::kHit, it->second.der};
}

void ResponseCache::PutBatch(std::vector<std::pair<StatusKey, Entry>> entries) {
  Install(entries, nullptr, 0);
}

std::size_t ResponseCache::PutBatchIfEpoch(
    std::vector<std::pair<StatusKey, Entry>> entries, const StatusIndex& index,
    std::uint64_t epoch) {
  return Install(entries, &index, epoch);
}

std::size_t ResponseCache::Install(
    std::vector<std::pair<StatusKey, Entry>>& entries,
    const StatusIndex* index, std::uint64_t epoch) {
  // One lock acquisition per affected shard, not per entry.
  std::vector<std::vector<std::pair<StatusKey, Entry>*>> by_shard(
      shards_.size());
  for (auto& entry : entries) by_shard[ShardOf(entry.first)].push_back(&entry);
  std::size_t installed = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (by_shard[s].empty()) continue;
    std::unique_lock lock(shards_[s].mu);
    // StatusIndex::Apply bumps the epoch before the flush invalidates, and
    // the invalidation needs this lock: reading the old epoch here means
    // the invalidation has not run yet and will drop what we install.
    if (index != nullptr && index->epoch() != epoch) break;
    for (auto* entry : by_shard[s])
      shards_[s].map[entry->first] = std::move(entry->second);
    installed += by_shard[s].size();
  }
  return installed;
}

void ResponseCache::Invalidate(const StatusKey& key) {
  Shard& shard = shards_[ShardOf(key)];
  std::unique_lock lock(shard.mu);
  shard.map.erase(key);
}

void ResponseCache::Clear() {
  for (Shard& shard : shards_) {
    std::unique_lock lock(shard.mu);
    shard.map.clear();
  }
}

std::vector<StatusKey> ResponseCache::KeysStaleBy(
    util::Timestamp deadline) const {
  std::vector<StatusKey> keys;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mu);
    for (const auto& [key, entry] : shard.map)
      if (entry.serve_until <= deadline) keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end(), util::BytesLess{});
  return keys;
}

std::vector<std::pair<StatusKey, ResponseCache::Entry>>
ResponseCache::ExportEntries(util::Timestamp now) const {
  std::vector<std::pair<StatusKey, Entry>> entries;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mu);
    for (const auto& [key, entry] : shard.map)
      if (now < entry.serve_until) entries.emplace_back(key, entry);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return entries;
}

std::size_t ResponseCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

}  // namespace rev::serve
