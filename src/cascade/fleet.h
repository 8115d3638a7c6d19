// A simulated browser fleet pulling cascade updates (ROADMAP item 3's
// client side): tens of thousands of clients on heterogeneous update
// cadences, each polling the publisher's delta endpoint over SimNet with
// FetchWithRetry — so a FaultPlan storm on the distribution host exercises
// the same retry/degradation stack as the crawler and the OCSP clients.
//
// Determinism: client cadences and poll phases derive from per-client
// forked Rngs; polls replay in (client, time) order; fault decisions are
// pure functions of (url, now). Two runs with the same seed — at any
// REV_THREADS, since the fleet itself is single-threaded over a serialized
// SimNet — produce identical aggregate counters and staleness series.
//
// Every applied update is sample-verified against the publisher's retained
// ground truth (no false "revoked", no missed revocation at the client's
// sequence); wrong_answers() must stay zero through any storm. Staleness
// and vulnerability-window samples land in `client.*` obs instruments and
// in Distributions for the bench's CDFs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cascade/delta.h"
#include "cascade/publisher.h"
#include "net/simnet.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/time.h"

namespace rev::cascade {

struct FleetOptions {
  std::size_t num_clients = 10'000;
  std::uint64_t seed = 1;
  // Base URL of the publisher's delta endpoint; the client's sequence is
  // appended (Publisher::kDeltaPathPrefix semantics).
  std::string delta_url = "http://cascade.dist.sim/cascade/delta?from=";
};

class Fleet {
 public:
  // `net` and `publisher` must outlive the fleet. The publisher reference
  // is only used for ground truth (publish times, revoked sets) — the
  // update bytes themselves travel through `net`.
  Fleet(net::SimNet* net, Publisher* publisher, FleetOptions options = {});
  ~Fleet();  // out of line: Instruments is incomplete here

  // Advances simulated time to `now`, executing every poll due in
  // [previous StepTo, now) in deterministic order. Call with increasing
  // timestamps, interleaved with Publisher::Publish for the daily builds.
  void StepTo(util::Timestamp now);

  // A value snapshot of this fleet's `client.*{fleet=N}` counters, the one
  // tally of each poll outcome.
  struct Totals {
    std::uint64_t polls = 0;
    std::uint64_t failed_polls = 0;   // retries exhausted; client stays stale
    std::uint64_t retries = 0;        // extra attempts beyond the first
    std::uint64_t delta_updates = 0;
    std::uint64_t snapshot_updates = 0;
    std::uint64_t up_to_date_polls = 0;
    std::uint64_t bytes_downloaded = 0;  // wire bytes, failed attempts included
    std::uint64_t wrong_answers = 0;     // ground-truth mismatches (must be 0)
    std::uint64_t verified_lookups = 0;
  };
  Totals totals() const;

  // Staleness (now - publish time of the client's sequence) sampled at
  // every completed poll, seconds.
  const util::Distribution& staleness() const { return staleness_; }
  // Vulnerability windows: for every revocation, per client, the time from
  // its publication to the client applying it (weighted by revocations).
  const util::Distribution& vulnerability_windows() const { return windows_; }
  // Per-client staleness at the instant of the last StepTo, seconds.
  util::Distribution EndStaleness() const;

  std::size_t num_clients() const { return clients_.size(); }

 private:
  struct Client {
    std::int64_t interval = util::kSecondsPerDay;
    util::Timestamp next_poll = 0;
    ClientCascade state;
    util::Rng rng{0};
  };

  void Poll(Client& client, util::Timestamp now);
  void Verify(const Client& client, util::Timestamp now);

  net::SimNet* net_;
  Publisher* publisher_;
  FleetOptions options_;
  std::vector<Client> clients_;
  util::Timestamp current_time_ = 0;
  bool started_ = false;

  // Decoded-snapshot cache: clients that download the same snapshot blob
  // share one decoded FilterCascade (the wire bytes are still paid per
  // client — this only models a client library decoding what it received).
  std::uint64_t cached_snapshot_sequence_ = 0;
  std::shared_ptr<const FilterCascade> cached_snapshot_;

  // Exact CDF samples for the bench (the histograms only bucket them).
  util::Distribution staleness_;
  util::Distribution windows_;

  struct Instruments;
  std::string metrics_label_;
  std::unique_ptr<Instruments> metrics_;
};

}  // namespace rev::cascade
