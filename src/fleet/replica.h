// One member of the serving fleet: a serve::Frontend fed by the
// replication channel instead of by local responder mutations.
//
// The replica constructs its own ocsp::Responder over the SAME issuer
// certificate and sim key as the authority. Signing is a pure function of
// (record, now) under the deterministic sim scheme, so a response the
// replica signs on a cache miss is byte-identical to the authority's —
// clients cannot tell replicas apart by signature, only by freshness.
//
// State arrives via two POST routes the publisher pushes to:
//   POST /fleet/snapshot   — StatusSnapshot blob; full-state import,
//                            diffed into the index (fail-closed: a blob
//                            that fails Deserialize is rejected with 400
//                            and the previous state keeps serving)
//   POST /fleet/responses  — ResponseBatch blob for the SAME epoch; 409 on
//                            mismatch (responses must never outrun the
//                            index they were signed against)
// plus GET /fleet/health — "ok epoch=N warmed=0|1" — which the health
// monitor polls for ring admission. See docs/fleet.md.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "crypto/signer.h"
#include "net/simnet.h"
#include "ocsp/responder.h"
#include "serve/frontend.h"
#include "util/time.h"
#include "x509/certificate.h"

namespace rev::fleet {

class Replica {
 public:
  static constexpr const char* kSnapshotPath = "/fleet/snapshot";
  static constexpr const char* kResponsesPath = "/fleet/responses";
  static constexpr const char* kHealthPath = "/fleet/health";

  // `name` is the SimNet hostname; `issuer`/`key` must match the
  // authority's so replica-signed responses verify under the same public
  // key. The replica serves through a default-configured serve::Frontend.
  Replica(std::string name, const x509::Certificate& issuer,
          crypto::KeyPair key);

  // Registers this replica's HTTP surface (OCSP + /fleet/*) on `net`.
  void Install(net::SimNet& net, net::HostProfile profile = {});

  const std::string& name() const { return name_; }
  serve::Frontend& frontend() { return frontend_; }
  const serve::Frontend& frontend() const { return frontend_; }

  // Replication epoch of the last applied snapshot (0 = never warmed).
  std::uint64_t applied_epoch() const {
    return applied_epoch_.load(std::memory_order_acquire);
  }
  // Publisher timestamp of the applied snapshot, for staleness accounting.
  util::Timestamp applied_published_at() const {
    return applied_published_at_.load(std::memory_order_acquire);
  }
  bool warmed() const { return applied_epoch() != 0; }

  struct Counters {
    std::uint64_t snapshots_applied = 0;
    std::uint64_t snapshots_rejected = 0;  // corrupt/malformed pushes
    std::uint64_t snapshots_stale = 0;     // epoch <= applied (replay)
    std::uint64_t batches_applied = 0;
    std::uint64_t batches_rejected = 0;    // corrupt or epoch mismatch
  };
  Counters counters() const;

 private:
  net::HttpResponse HandleSnapshot(const net::HttpRequest& request,
                                   util::Timestamp now);
  net::HttpResponse HandleResponses(const net::HttpRequest& request,
                                    util::Timestamp now);
  net::HttpResponse HandleHealth(util::Timestamp now) const;

  std::string name_;
  ocsp::Responder responder_;
  serve::Frontend frontend_;

  // Serializes importers. SimNet's exchange mutex already guarantees this
  // for pushes arriving over the wire; the lock keeps direct handler calls
  // (tests) equally safe.
  std::mutex import_mu_;
  std::atomic<std::uint64_t> applied_epoch_{0};
  std::atomic<util::Timestamp> applied_published_at_{0};

  // Registry label "replica=name#instance" — the instance suffix keeps tallies
  // exact when tests re-create a replica under the same hostname.
  std::string metrics_label_;
  obs::Counter& snapshots_applied_;
  obs::Counter& snapshots_rejected_;
  obs::Counter& snapshots_stale_;
  obs::Counter& batches_applied_;
  obs::Counter& batches_rejected_;
};

}  // namespace rev::fleet
