// Deterministic consistent-hash ring over replica hosts (docs/fleet.md).
//
// Each node contributes 64 virtual-node points on a 64-bit ring; a key
// routes to the first enabled node clockwise from its hash, and its
// preference list is the next distinct enabled nodes after that.
// Placement is a pure function of (node name, vnode index) — no RNG, no
// insertion-order dependence — so every client computes the same routing
// table, and removing one node only reassigns the keys that node owned
// (minimal disruption, pinned in tests/fleet_test.cpp).
//
// Thread-safety: topology (AddNode) is fixed before serving starts;
// SetEnabled flips a per-node atomic, so the health monitor can mark nodes
// down while clients walk preference lists concurrently.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "util/bytes.h"

namespace rev::fleet {

class HashRing {
 public:
  // Registers a node. Call before serving starts (not thread-safe against
  // readers). `enabled = false` keeps the node out of routing until the
  // health monitor admits it (warm-up gating).
  void AddNode(const std::string& name, bool enabled = true);

  // Atomically admits or evicts a node from routing. Unknown names are
  // ignored. Safe concurrent with PreferenceList/PrimaryFor.
  void SetEnabled(const std::string& name, bool enabled);
  bool IsEnabled(const std::string& name) const;

  // The first `count` distinct enabled nodes clockwise from `key`'s hash —
  // primary first, then failover targets. Shorter than `count` when fewer
  // nodes are enabled; empty when none are. With `include_disabled` the
  // walk ignores health marks and returns distinct nodes regardless —
  // FleetClient's last-resort (panic) routing, for the window where the
  // health monitor's hysteresis lags a storm and the "healthy" view is
  // empty or entirely dead.
  std::vector<const std::string*> PreferenceList(
      BytesView key, std::size_t count, bool include_disabled = false) const;

  // PreferenceList(key, 1), or nullptr when no node is enabled.
  const std::string* PrimaryFor(BytesView key) const;

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t enabled_count() const;

 private:
  struct Node {
    std::string name;
    std::atomic<bool> enabled{true};
  };
  struct Point {
    std::uint64_t where;
    std::uint32_t node;
  };

  const Node* FindNode(const std::string& name) const;

  std::deque<Node> nodes_;       // stable addresses (atomics never move)
  std::vector<Point> points_;    // sorted by `where`
};

}  // namespace rev::fleet
