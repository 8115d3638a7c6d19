// The fleet-aware OCSP client: consistent-hash routing, sequential
// failover, and hedged second requests (docs/fleet.md).
//
// A query walks the key's ring preference list. Fast failures — refused
// connection, 503 shed, a body that fails OCSP parse or signature
// verification — fail over to the next replica immediately, paying only
// the failed attempt's cost. Slow failures are hedged: when an attempt's
// exchange runs past kHedgeBudgetSeconds (latency storm, timeout), the
// client models having fired a second request to the next replica at the
// budget mark, and the observed latency is whichever answer would have
// arrived first — min(primary, budget + secondary). That keeps storm p99
// near (budget + clean latency) instead of the 10s timeout cliff.
//
// A 503's Retry-After marks the replica down client-side until the hint
// expires; marked replicas are skipped in later preference walks.
//
// When every admitted candidate has failed, the client enters last-resort
// (panic) routing: it re-walks the ring IGNORING health marks and tries
// the replicas it has not touched yet. The health monitor's hysteresis
// necessarily lags a storm — a latency burst can get the healthy replica
// marked down in the same tick an outage kills the marked-up one — and a
// replica the monitor distrusts can still hold a valid (possibly stale)
// signed answer, which beats no answer. Validation still applies, so
// panic routing can serve stale, never wrong.
//
// Answers are validated before acceptance: OCSP parse, responseStatus
// successful, serial match, and (when `responder_key` is set) signature
// verification — a bit-flipped body that still parses must fail over, not
// return a wrong status. One FleetClient is one simulated client: NOT
// thread-safe; benches run one per thread and merge counters in client
// order so totals are bit-identical at any thread count.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "crypto/signer.h"
#include "fleet/ring.h"
#include "net/simnet.h"
#include "obs/distrace.h"
#include "ocsp/ocsp.h"
#include "util/time.h"

namespace rev::fleet {

struct FleetClientOptions {
  // When set, every accepted answer must verify against this key; corrupt
  // bodies then fail over instead of being believed.
  std::optional<crypto::PublicKey> responder_key;
  // Seed for distributed-trace ids (used only while the collector is
  // enabled). Queries mint TraceId(trace_seed, query#) — benches derive
  // this from (run seed, client index) so traces are bit-identical at any
  // thread count.
  std::uint64_t trace_seed = 0;
};

class FleetClient {
 public:
  // Hedge trigger: an attempt slower than this gets a modeled second
  // request to the next replica.
  static constexpr double kHedgeBudgetSeconds = 0.25;

  // `net` and `ring` are borrowed; the ring is shared with the health
  // monitor, which flips membership concurrently.
  FleetClient(net::SimNet* net, const HashRing* ring,
              FleetClientOptions options = {});

  struct QueryResult {
    bool ok = false;  // a validated answer was obtained
    ocsp::CertStatus status = ocsp::CertStatus::kUnknown;
    // Client-observed latency, hedge-aware (seconds of simulated time).
    double elapsed_seconds = 0;
    int replicas_tried = 0;
    bool hedged = false;
    bool failed_over = false;     // answer came from a non-primary replica
    std::string served_by;        // replica that produced the answer
    util::Timestamp produced_at = 0;  // the response's producedAt
    // Distributed-trace id of this query (zero unless the collector was
    // enabled): failover and hedge legs all share it, distinct spans each.
    obs::TraceId trace_id;
  };

  // `request_der` must be a single-cert OCSP request for the certificate
  // `key` (issuer-key-hash || serial) identifies; the key drives ring
  // placement and the serial-match check.
  QueryResult Query(BytesView request_der, BytesView key,
                    util::Timestamp now);

  struct Counters {
    std::uint64_t queries = 0;
    std::uint64_t answered = 0;
    std::uint64_t failovers = 0;      // attempts beyond the first replica
    std::uint64_t hedges = 0;         // hedged second requests fired
    std::uint64_t hedge_wins = 0;     // hedge answered first
    std::uint64_t shed_503 = 0;       // 503s observed
    std::uint64_t invalid_bodies = 0; // parse/signature rejections
    std::uint64_t markdown_skips = 0; // replicas skipped while marked down
    std::uint64_t last_resort = 0;    // panic attempts at disabled replicas
    std::uint64_t exhausted = 0;      // no replica yielded a valid answer
  };
  const Counters& counters() const { return counters_; }

 private:
  struct Attempt {
    bool valid = false;
    ocsp::CertStatus status = ocsp::CertStatus::kUnknown;
    util::Timestamp produced_at = 0;
    double elapsed_seconds = 0;
    bool slow = false;  // ran past the hedge budget (or timed out)
  };

  // `ctx` (may be null) is this attempt's span context; it rides the
  // traceparent header so the exchange and the replica's server span
  // stitch under it.
  Attempt TryReplica(const std::string& host, BytesView request_der,
                     BytesView key, util::Timestamp now,
                     const obs::SpanContext* ctx);

  net::SimNet* net_;
  const HashRing* ring_;
  FleetClientOptions options_;
  // Client-side 503 mark-downs: host -> virtual time the mark expires.
  std::map<std::string, util::Timestamp> marked_down_until_;
  Counters counters_;
  std::uint64_t trace_counter_ = 0;  // queries minted (trace-id sequence)
};

}  // namespace rev::fleet
