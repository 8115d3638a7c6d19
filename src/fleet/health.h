// Health probing and ring admission for the serving fleet.
//
// The monitor probes each replica's GET /fleet/health on a caller-driven
// (virtual-time) cadence and flips the node's ring membership with
// hysteresis: two consecutive failures evict, two consecutive successes
// readmit — a flapping host must string together a full run of good probes
// before taking traffic again, so the square-wave storms of
// tests/chaos_test.cpp do not thrash the ring every period.
//
// Warm-up gating: a probe only counts as a success when the replica
// reports `warmed=1` (it has applied at least one replication epoch), so
// a freshly started replica cannot be admitted while its index is empty —
// it would answer `unknown` for everything.
//
// Determinism: probes are plain single-attempt fetches (1 s timeout), in
// registration order, all at the round's `now` — fault decisions are a
// pure function of (plan seed, url, time), so every run of the same seed
// is bit-identical.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/ring.h"
#include "net/simnet.h"
#include "obs/metrics.h"
#include "util/time.h"

namespace rev::fleet {

class HealthMonitor {
 public:
  // `ring` is flipped on transitions; not owned, must outlive the monitor.
  explicit HealthMonitor(HashRing* ring);

  // Registers a probe target; `host` must be a ring node name. Targets
  // start not-admitted (ring node disabled) until two good probes —
  // call ring->AddNode(host, /*enabled=*/false) for monitored nodes.
  void AddTarget(std::string host);

  // One probe round at virtual time `now`; returns the number of ring
  // transitions (mark-down + mark-up) it caused.
  std::size_t ProbeAll(net::SimNet& net, util::Timestamp now);

  bool IsUp(const std::string& host) const;

  struct Counters {
    std::uint64_t probes = 0;
    std::uint64_t probe_failures = 0;
    std::uint64_t marked_down = 0;
    std::uint64_t marked_up = 0;
  };
  Counters counters() const;

 private:
  struct Target {
    std::string host;
    int consecutive_ok = 0;
    int consecutive_bad = 0;
    bool admitted = false;
  };

  HashRing* ring_;
  std::vector<Target> targets_;

  std::string metrics_label_;
  obs::Counter& probes_;
  obs::Counter& probe_failures_;
  obs::Counter& marked_down_;
  obs::Counter& marked_up_;
};

}  // namespace rev::fleet
