// A deterministic simulated network: named hosts with HTTP handlers, a
// latency/bandwidth cost model, and failure injection.
//
// The simulation is synchronous: Fetch() executes the request immediately
// and reports how long it *would* have taken, letting measurement code
// account latency/bandwidth without an event loop. This matches how the
// paper reasons about client cost (RTTs plus size/throughput; §5.2).
#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "net/url.h"
#include "util/bytes.h"
#include "util/time.h"

namespace rev::net {

class FaultPlan;

struct HttpRequest {
  std::string method = "GET";
  std::string host;
  std::string path;
  Bytes body;
  // Wire headers (lowercase names by convention). Carries the
  // traceparent context for distributed tracing (obs/distrace.h);
  // handlers may read application headers from here too.
  std::map<std::string, std::string, std::less<>> headers;
};

struct HttpResponse {
  int status = 200;
  Bytes body;
  // Cache lifetime hint in seconds (0 = uncacheable). Stands in for
  // Cache-Control/Expires headers.
  std::int64_t max_age = 0;
  // Retry-After hint in seconds, set by load-shedding endpoints on 503.
  std::int64_t retry_after = 0;
  // Response headers (lowercase names by convention).
  std::map<std::string, std::string, std::less<>> headers;
};

using HttpHandler =
    std::function<HttpResponse(const HttpRequest&, util::Timestamp now)>;

// Link characteristics of a host (server side). Client-side access-link
// characteristics can be modeled by the caller adding its own terms.
struct HostProfile {
  double rtt_seconds = 0.030;          // round-trip time to this host
  double bandwidth_bps = 10e6;         // bits per second on the path
};

enum class FetchError {
  kOk,
  kDnsFailure,        // NXDOMAIN — revocation host does not resolve
  kConnectionRefused, // host known but not listening
  kTimeout,           // host accepts but never responds
  kCorruptBody,       // 200 whose body failed the caller's validation
                      // (truncated/bit-flipped CRL or OCSP — retryable)
};

struct FetchResult {
  FetchError error = FetchError::kOk;
  HttpResponse response;
  // Simulated wall-clock cost of the exchange, in seconds.
  double elapsed_seconds = 0;
  // Bytes that crossed the network (body sizes both ways).
  std::size_t bytes_transferred = 0;

  bool ok() const { return error == FetchError::kOk && response.status == 200; }
};

// Thread-safety: every exchange runs under one internal mutex, so handlers
// (which mutate CA state — lazy CRL rebuilds, OCSP signing) never execute
// concurrently and the cost counters stay exact. Parallel callers overlap
// only their client-side work (parsing, verification); the simulated server
// is a serialization point, like a single-homed CA endpoint.
class SimNet {
 public:
  // Registers (or replaces) a host with the given handler.
  void AddHost(std::string_view hostname, HttpHandler handler,
               HostProfile profile = {});

  void RemoveHost(std::string_view hostname);
  bool HasHost(std::string_view hostname) const;

  // Failure injection (the four §6.1 unavailability modes map to these plus
  // a handler returning 404).
  void SetDnsFailure(std::string_view hostname, bool fail);
  void SetUnresponsive(std::string_view hostname, bool unresponsive);

  // Attaches a deterministic fault schedule (net/fault.h); every exchange
  // consults it. Not owned; may be null (faults off, zero cost). Set it
  // before serving starts — the pointer is read without synchronization
  // beyond the per-exchange lock.
  void SetFaultPlan(FaultPlan* plan);

  // Executes an HTTP exchange. `timeout_seconds` caps the simulated wait.
  // Every call tallies the process-wide per-status-class counters
  // net.fetch{class=2xx|4xx|5xx|err} and net.fetch.bytes; when the
  // distributed-trace collector is armed and the request carries a
  // traceparent header, the exchange is recorded as a client span (with a
  // fresh span id injected into the header the handler sees).
  FetchResult Fetch(const HttpRequest& request, util::Timestamp now,
                    double timeout_seconds = 10.0);

  // Convenience: GET a URL string. Unparseable or non-http URLs map to
  // kDnsFailure (matching a browser that cannot resolve the reference).
  FetchResult Get(std::string_view url, util::Timestamp now,
                  double timeout_seconds = 10.0);
  FetchResult Post(std::string_view url, BytesView body, util::Timestamp now,
                   double timeout_seconds = 10.0);

  // Cumulative counters (for bandwidth-cost experiments).
  std::uint64_t total_requests() const;
  std::uint64_t total_bytes() const;
  void ResetCounters();

 private:
  struct Host {
    HttpHandler handler;
    HostProfile profile;
    bool dns_failure = false;
    bool unresponsive = false;
  };

  // The exchange itself, minus tracing/metrics (which the public Fetch
  // wraps around it).
  FetchResult DoFetch(const HttpRequest& request, util::Timestamp now,
                      double timeout_seconds);

  mutable std::mutex mu_;  // serializes exchanges, guards hosts_ + counters
  std::map<std::string, Host, std::less<>> hosts_;
  FaultPlan* fault_plan_ = nullptr;
  std::uint64_t total_requests_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace rev::net
