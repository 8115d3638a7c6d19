// The replication publisher: exports the authoritative frontend's full
// state as one epoch (StatusSnapshot + pre-signed ResponseBatch), pushes
// it to every replica over SimNet through the retrying fetch stack, and
// tracks each replica's acknowledged epoch so lag is observable.
//
// Push, not pull: the authority knows when state changed (a revocation
// batch landed), so it drives the fan-out; a replica that misses a push
// (outage mid-storm) simply stays at its old epoch — still serving, merely
// stale — until the next push lands, and the acked-epoch table makes that
// lag visible to the bench's freshness accounting. Acks are validated
// ("ok epoch=N" with the pushed epoch) so a corrupted or substituted ack
// body re-enters the retry loop instead of silently marking the replica
// current. See docs/fleet.md.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/simnet.h"
#include "obs/metrics.h"
#include "serve/frontend.h"
#include "util/time.h"

namespace rev::fleet {

class Publisher {
 public:
  // `authority` is the frontend whose index/cache are the source of truth;
  // it must outlive the publisher.
  explicit Publisher(serve::Frontend* authority);
  ~Publisher();

  // Registers a replica hostname (its /fleet routes must be installed on
  // the SimNet used for Publish).
  void AddReplica(std::string host);

  struct PushStats {
    std::uint64_t epoch = 0;
    std::size_t replicas_ok = 0;
    std::size_t replicas_failed = 0;
    std::size_t snapshot_bytes = 0;   // serialized blob size
    std::size_t response_bytes = 0;   // serialized response batch size
    double elapsed_seconds = 0;       // summed simulated push cost
  };

  // Exports the authority's state as epoch `epoch() + 1` and pushes it to
  // every replica. A replica that exhausts retries is left at its old
  // acked epoch (lag); the epoch advances regardless — replication is
  // eventually consistent, not a commit protocol.
  PushStats Publish(net::SimNet& net, util::Timestamp now);

  std::uint64_t epoch() const { return epoch_; }
  // Last epoch `host` acknowledged (0 = never reached).
  std::uint64_t AckedEpoch(const std::string& host) const;
  // epoch() minus the smallest acked epoch — the worst replica's lag.
  std::uint64_t MaxLagEpochs() const;
  // Publish time of `epoch`, 0 if unknown (for staleness accounting).
  util::Timestamp PublishTimeOf(std::uint64_t epoch) const;

  std::vector<std::string> replicas() const { return replicas_; }

 private:
  serve::Frontend* authority_;
  std::uint64_t epoch_ = 0;
  std::vector<std::string> replicas_;        // registration order
  std::map<std::string, std::uint64_t> acked_;
  std::map<std::uint64_t, util::Timestamp> publish_times_;

  std::string metrics_label_;
  obs::Counter& pushes_ok_;
  obs::Counter& pushes_failed_;
  obs::Counter& bytes_pushed_;
  obs::Gauge& max_lag_;
};

}  // namespace rev::fleet
