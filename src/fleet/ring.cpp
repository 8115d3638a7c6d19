#include "fleet/ring.h"

#include <algorithm>

#include "serve/status_index.h"
#include "util/hash.h"

namespace rev::fleet {

namespace {

// Points per node. More vnodes = smoother balance; 64 keeps the spread
// within ~2x at 5 nodes (balance test) while PreferenceList stays a short
// binary search + walk.
constexpr std::size_t kVnodes = 64;

}  // namespace

void HashRing::AddNode(const std::string& name, bool enabled) {
  if (FindNode(name) != nullptr) return;
  nodes_.emplace_back();
  Node& node = nodes_.back();
  node.name = name;
  node.enabled.store(enabled, std::memory_order_release);
  const auto index = static_cast<std::uint32_t>(nodes_.size() - 1);
  const std::uint64_t base = util::MixString(name, 0);
  for (std::size_t v = 0; v < kVnodes; ++v)
    points_.push_back({util::Mix64(base ^ util::Mix64(v)), index});
  std::sort(points_.begin(), points_.end(),
            [](const Point& a, const Point& b) {
              return a.where < b.where ||
                     (a.where == b.where && a.node < b.node);
            });
}

void HashRing::SetEnabled(const std::string& name, bool enabled) {
  for (Node& node : nodes_)
    if (node.name == name) {
      node.enabled.store(enabled, std::memory_order_release);
      return;
    }
}

bool HashRing::IsEnabled(const std::string& name) const {
  const Node* node = FindNode(name);
  return node != nullptr && node->enabled.load(std::memory_order_acquire);
}

const HashRing::Node* HashRing::FindNode(const std::string& name) const {
  for (const Node& node : nodes_)
    if (node.name == name) return &node;
  return nullptr;
}

std::vector<const std::string*> HashRing::PreferenceList(
    BytesView key, std::size_t count, bool include_disabled) const {
  std::vector<const std::string*> out;
  if (points_.empty() || count == 0) return out;
  // Same word-wise mix the serve layer keys its shards with.
  const std::uint64_t h = serve::StatusKeyHash{}(key);
  auto it = std::lower_bound(points_.begin(), points_.end(), h,
                             [](const Point& p, std::uint64_t value) {
                               return p.where < value;
                             });
  std::vector<bool> taken(nodes_.size(), false);
  for (std::size_t walked = 0; walked < points_.size() && out.size() < count;
       ++walked, ++it) {
    if (it == points_.end()) it = points_.begin();
    const std::uint32_t index = it->node;
    if (taken[index]) continue;
    taken[index] = true;  // distinct nodes, enabled or not, count once
    if (include_disabled ||
        nodes_[index].enabled.load(std::memory_order_acquire))
      out.push_back(&nodes_[index].name);
  }
  return out;
}

const std::string* HashRing::PrimaryFor(BytesView key) const {
  const auto list = PreferenceList(key, 1);
  return list.empty() ? nullptr : list.front();
}

std::size_t HashRing::enabled_count() const {
  std::size_t count = 0;
  for (const Node& node : nodes_)
    if (node.enabled.load(std::memory_order_acquire)) ++count;
  return count;
}

}  // namespace rev::fleet
