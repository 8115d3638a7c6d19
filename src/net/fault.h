// Deterministic fault injection for the simulated network.
//
// The paper documents a PKI whose revocation endpoints time out, serve
// stale data, or disappear outright (§3.2, §5); follow-up measurements
// (Korzhitskii et al., "Revocation Statuses on the Internet") confirm that
// endpoint availability is the binding constraint on end-to-end revocation.
// SimNet's static knobs (SetDnsFailure/SetUnresponsive) can model a host
// that is *permanently* broken; a FaultPlan models the messy middle — the
// intermittent timeouts, 5xx bursts, flapping, corruption, and latency
// storms that a robust fetch stack must ride out.
//
// Determinism is the design center: every fault decision is a pure
// function of (plan seed, rule index, request URL, virtual timestamp).
// There is no hidden RNG state, so the same storm replays bit-identically
// no matter how many threads issue the fetches or in which order — the
// property the chaos suite (tests/chaos_test.cpp) pins down. Replay any
// storm from its seed; see docs/fault-injection.md.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "net/simnet.h"
#include "util/time.h"

namespace rev::net {

// What a rule does to a matching exchange.
enum class FaultKind : std::uint8_t {
  kTimeout,    // request hangs until the caller's timeout
  kOutage,     // connection refused (fast failure, host down)
  kFlap,       // square wave: up for up_seconds, refused for down_seconds
  kHttpError,  // replace the response with an HTTP error (5xx bursts)
  kTruncate,   // deliver only a prefix of the response body
  kCorrupt,    // flip bytes in the response body
  kLatency,    // multiply the exchange's elapsed time
};
inline constexpr std::size_t kNumFaultKinds = 7;

const char* FaultKindName(FaultKind kind);

// One entry in the schedule. A rule matches an exchange when its target
// matches (see below) and `now` falls inside [start, end); inside the
// window it fires with `probability` per exchange (kFlap instead fires
// whenever the square wave is in its down phase, scaled by probability).
struct FaultRule {
  // "host" (exact) or "host/path-prefix". Empty matches every exchange.
  std::string target;
  FaultKind kind = FaultKind::kTimeout;
  double probability = 1.0;
  util::Timestamp start = 0;
  util::Timestamp end = std::numeric_limits<util::Timestamp>::max();

  // kFlap: the wave is up for up_seconds then down for down_seconds,
  // phase-locked to the epoch (so it is a function of `now`, not of call
  // history).
  std::int64_t up_seconds = 300;
  std::int64_t down_seconds = 300;

  // kHttpError: the substituted status, and the Retry-After hint attached
  // when the status is 503.
  int http_status = 503;
  std::int64_t retry_after = 0;

  // kTruncate: fraction of the body kept (the wire cut mid-transfer).
  double keep_fraction = 0.5;

  // kCorrupt: how many body bytes get flipped.
  std::size_t corrupt_bytes = 4;

  // kLatency: multiplier on elapsed_seconds (may push past the timeout).
  double latency_factor = 10.0;
};

// A seeded, time-indexed schedule of faults. Attach to a SimNet with
// SimNet::SetFaultPlan(); thereafter every exchange consults the plan.
// Thread-safe: rules are immutable once serving starts (add them before
// attaching), decisions are stateless, and the injection tallies are
// atomics whose totals are deterministic because the *set* of (url, now)
// exchanges is.
class FaultPlan {
 public:
  explicit FaultPlan(std::uint64_t seed) : seed_(seed) {}

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  void AddRule(FaultRule rule) { rules_.push_back(std::move(rule)); }
  std::uint64_t seed() const { return seed_; }

  // Pre-exchange faults (timeout / outage / flap-down). Returns true when
  // the exchange is consumed: *result holds the failure, the handler never
  // runs. `key` is "host" + "path".
  bool ApplyBefore(std::string_view host, std::string_view path,
                   util::Timestamp now, double timeout_seconds,
                   double rtt_seconds, FetchResult* result);

  // Post-exchange faults (5xx substitution, truncation, corruption,
  // latency inflation) applied to a handler-produced response. The caller
  // re-checks its timeout afterwards (latency inflation can cross it).
  void ApplyAfter(std::string_view host, std::string_view path,
                  util::Timestamp now, FetchResult* result);

  // Injection tallies, per kind and total. Deterministic for a
  // deterministic workload (chaos_test compares them across thread
  // counts).
  std::uint64_t injected(FaultKind kind) const {
    return injected_[static_cast<std::size_t>(kind)].load(
        std::memory_order_relaxed);
  }
  std::uint64_t total_injected() const;

 private:
  // True when `rule` (at index `index`) fires for this exchange.
  bool Fires(const FaultRule& rule, std::size_t index, std::string_view host,
             std::string_view path, util::Timestamp now) const;
  void Count(FaultKind kind);

  std::uint64_t seed_;
  std::vector<FaultRule> rules_;
  std::array<std::atomic<std::uint64_t>, kNumFaultKinds> injected_{};
};

}  // namespace rev::net
