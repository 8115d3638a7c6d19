// Fleet soak bench: replicated serving under a chaos storm, swept over
// replication factor N in {1,2,3,5}.
//
// Each run builds an authority + N replicas on one SimNet, warms the fleet
// through the replication channel, then drives simulated clients through a
// clean phase and a storm phase (regional outage killing one replica, a
// latency burst, 503 shedding with Retry-After, and a response-corruption
// storm). Replication keeps publishing mid-run, so the freshness-vs-lag
// trade is measurable: a replica that misses a push serves stale answers
// (never wrong ones) until it catches up.
//
// Reported per N (BENCH_fleet.json, committed baseline at the repo root):
//   wrong answers (MUST be 0), availability, shed rate, failover/hedge
//   counts, max snapshot lag (epochs and seconds), staleness CDF
//   (p50/p90/p99 over stale answers), latency p50/p99 clean vs storm.
//
// Observability artifacts (docs/observability.md), all gated:
//   - An SLO burn-rate timeline (availability / latency_fast / freshness
//     objectives over 60s virtual windows) that must fire during the storm
//     and stay silent through the clean phase — zero clean-phase alerts.
//   - A showcase phase re-runs a small soak with the distributed-trace
//     collector enabled, stitches the first hedged + failed-over query's
//     cross-node trace, and requires its critical path to sum to the
//     measured end-to-end latency within 1% — plus a trace-id exemplar on
//     the fleet-merged serve.latency_ns p99 bucket (scraped per replica
//     over GET /metrics.json and label-strip merged).
// A determinism phase re-runs N=3 at 1 thread and at the sweep maximum and
// compares per-client outcome checksums AND the serialized SLO timeline
// byte-for-byte — results are bit-identical at a fixed REV_CHAOS_SEED, or
// the bench exits nonzero.
//
// Environment knobs:
//   REV_FLEET_CERTS     population size            (default 4000)
//   REV_FLEET_CLIENTS   simulated clients          (default 8)
//   REV_FLEET_TICKS     60s virtual ticks per run  (default 24)
//   REV_FLEET_QPT       queries per client-tick    (default 25)
//   REV_FLEET_FACTORS   replication sweep          (default "1,2,3,5")
//   REV_FLEET_STRICT    0 disables the exit-code gates (sanitizer runs)
//   REV_THREADS         client fan-out threads     (default hardware)
//   REV_CHAOS_SEED      storm seed                 (default 0xC0FFEE)
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "fleet/client.h"
#include "fleet/health.h"
#include "fleet/metricsview.h"
#include "fleet/publisher.h"
#include "fleet/replica.h"
#include "fleet/ring.h"
#include "net/fault.h"
#include "net/simnet.h"
#include "obs/distrace.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "ocsp/ocsp.h"
#include "ocsp/responder.h"
#include "serve/frontend.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/wire.h"
#include "x509/name.h"

using namespace rev;

namespace {

constexpr util::Timestamp kNow = 1'427'760'000;  // 2015-03-31
constexpr util::Timestamp kTick = 60;            // virtual seconds per tick

std::uint64_t SeedFromEnv() {
  const char* env = std::getenv("REV_CHAOS_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 0) : 0xC0FFEE;
}

unsigned ClientThreads() {
  const unsigned configured = bench::ThreadsFromEnv();
  if (configured != 0) return configured;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 4;
}

x509::Certificate MakeIssuerCert() {
  x509::TbsCertificate tbs;
  tbs.serial = x509::Serial{0x88};
  tbs.issuer = tbs.subject = x509::Name::Make("Fleet Bench CA", "Bench");
  tbs.not_before = 0;
  tbs.not_after = kNow + 400 * util::kSecondsPerDay;
  tbs.public_key = crypto::SimKeyFromLabel("fleet-bench").Public();
  tbs.basic_constraints = {true, -1};
  return x509::SignCertificate(tbs, crypto::SimKeyFromLabel("fleet-bench"));
}

x509::Serial SerialOf(std::uint64_t n) {
  x509::Serial serial(8);
  serial[0] = 0x4D;  // survives DER INTEGER round-trips unchanged
  for (int b = 1; b < 8; ++b)
    serial[static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>(n >> (8 * (7 - b)));
  return serial;
}

// ------------------------------------------------------------ fleet rig ----

struct Fleet {
  Fleet(std::size_t n, std::size_t certs)
      : issuer(MakeIssuerCert()),
        authority(issuer, crypto::SimKeyFromLabel("fleet-bench"),
                  4 * util::kSecondsPerDay) {
    authority_frontend.AttachResponder(&authority);
    for (std::uint64_t s = 1; s <= certs; ++s)
      authority.AddCertificate(SerialOf(s));
    for (std::size_t i = 0; i < n; ++i) {
      auto replica = std::make_unique<fleet::Replica>(
          "replica-" + std::to_string(i) + ".fleet.sim", issuer,
          crypto::SimKeyFromLabel("fleet-bench"));
      replica->Install(net);
      ring.AddNode(replica->name(), /*enabled=*/false);  // monitor admits
      publisher.AddReplica(replica->name());
      replicas.push_back(std::move(replica));
    }
  }

  serve::StatusKey Key(std::uint64_t serial) const {
    return serve::MakeStatusKey(authority.issuer_key_hash(), SerialOf(serial));
  }

  Bytes Request(std::uint64_t serial) const {
    ocsp::OcspRequest request;
    request.cert_ids = {ocsp::MakeCertId(issuer, SerialOf(serial))};
    return ocsp::EncodeOcspRequest(request);
  }

  x509::Certificate issuer;
  ocsp::Responder authority;
  serve::Frontend authority_frontend;
  net::SimNet net;
  fleet::HashRing ring;
  fleet::Publisher publisher{&authority_frontend};
  std::vector<std::unique_ptr<fleet::Replica>> replicas;
  std::map<std::uint64_t, std::uint64_t> revoked_epoch;  // serial -> epoch
};

// Storm schedule, in tick indexes (see file header). The windows are laid
// out so that for N >= 2 at least one replica is deterministically clean
// at every tick: availability under the storm is an invariant of the
// design, not a seed-dependent roll.
struct StormSchedule {
  std::size_t clean_ticks;   // [0, clean) — no faults
  std::size_t latency_from, latency_to;
  std::size_t outage_from, outage_to;
  std::size_t shed_from, shed_to;
  std::size_t corrupt_from, corrupt_to;

  explicit StormSchedule(std::size_t ticks) {
    clean_ticks = std::max<std::size_t>(2, ticks / 3);
    latency_from = clean_ticks;
    latency_to = latency_from + 2;
    outage_from = latency_to;
    outage_to = outage_from + std::max<std::size_t>(4, ticks / 4) + 1;
    shed_from = std::min(ticks, outage_to + 2);
    shed_to = std::min(ticks, shed_from + 4);
    corrupt_from = shed_from;
    corrupt_to = shed_to;
  }
};

void AddStormRules(net::FaultPlan& plan, const Fleet& fleet,
                   const StormSchedule& schedule) {
  const auto at = [](std::size_t tick) {
    return kNow + static_cast<util::Timestamp>(tick) * kTick;
  };
  // Regional outage: replica 0's region hard down.
  net::FaultRule outage;
  outage.target = fleet.replicas[0]->name();
  outage.kind = net::FaultKind::kOutage;
  outage.start = at(schedule.outage_from);
  outage.end = at(schedule.outage_to);
  plan.AddRule(outage);
  if (fleet.replicas.size() > 1) {
    // Latency burst on replica 1: slow, not dead — exercises hedging.
    net::FaultRule slow;
    slow.target = fleet.replicas[1]->name();
    slow.kind = net::FaultKind::kLatency;
    slow.latency_factor = 20.0;
    slow.start = at(schedule.latency_from);
    slow.end = at(schedule.latency_to);
    plan.AddRule(slow);
    // 503 shedding bursts with Retry-After (client-side mark-down).
    net::FaultRule shed;
    shed.target = fleet.replicas[1]->name();
    shed.kind = net::FaultKind::kHttpError;
    shed.http_status = 503;
    shed.retry_after = 45;
    shed.probability = 0.3;
    shed.start = at(schedule.shed_from);
    shed.end = at(schedule.shed_to);
    plan.AddRule(shed);
  }
  if (fleet.replicas.size() > 2) {
    // Response corruption storm on replica 2 (replica 0 is back by then).
    net::FaultRule corrupt;
    corrupt.target = fleet.replicas[2]->name();
    corrupt.kind = net::FaultKind::kCorrupt;
    corrupt.corrupt_bytes = 4;
    corrupt.start = at(schedule.corrupt_from);
    corrupt.end = at(schedule.corrupt_to);
    plan.AddRule(corrupt);
  }
}

// ------------------------------------------------------------- soak run ----

// Latency SLI threshold: an answered query slower than this (virtual
// seconds) spends error budget. Matches the client hedge budget, so any
// query that needed a hedge or failover is "slow" by construction.
constexpr double kFastSeconds = 0.25;

// The declared objectives. One window = one tick (kTick seconds), so the
// per-tick tallies the merge step records land in exactly one window each.
obs::SloMonitor MakeSloMonitor() {
  obs::SloMonitor slo;
  // 99.9% of queries produce a validated answer.
  slo.AddObjective({.name = "availability",
                    .objective = 0.999,
                    .window_seconds = kTick,
                    .short_windows = 1,
                    .long_windows = 3,
                    .burn_threshold = 4.0});
  // 99% of queries finish within the hedge budget (failures count as
  // slow — an unanswered query is the slowest possible outcome).
  slo.AddObjective({.name = "latency_fast",
                    .objective = 0.99,
                    .window_seconds = kTick,
                    .short_windows = 1,
                    .long_windows = 3,
                    .burn_threshold = 4.0});
  // 99.5% of *answers* reflect every published revocation (not stale).
  slo.AddObjective({.name = "freshness",
                    .objective = 0.995,
                    .window_seconds = kTick,
                    .short_windows = 1,
                    .long_windows = 3,
                    .burn_threshold = 4.0});
  return slo;
}

struct RunResult {
  std::uint64_t queries = 0;
  std::uint64_t answered = 0;
  std::uint64_t wrong = 0;
  std::uint64_t stale = 0;
  std::uint64_t failovers = 0;
  std::uint64_t hedges = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t shed_503 = 0;
  std::uint64_t exhausted = 0;
  std::uint64_t max_lag_epochs = 0;
  double max_lag_seconds = 0;
  util::Distribution clean_latency;
  util::Distribution storm_latency;
  util::Distribution staleness_seconds;
  std::uint64_t outcome_checksum = 0;  // FNV over per-client outcome bytes
  // SLO burn-rate timeline over the run's virtual windows (slo.h).
  std::string slo_json;
  std::uint64_t slo_alerts = 0;
  std::uint64_t clean_phase_alerts = 0;  // MUST stay 0 (false positives)
  // Showcase candidate: the first answered query (client order, then query
  // order) that both hedged and failed over — the trace worth stitching.
  bool has_showcase = false;
  obs::TraceId showcase_trace;
  double showcase_elapsed_seconds = 0;
  // Fleet-wide metrics view: every replica's GET /metrics.json scraped
  // over SimNet at run end, label-stripped and merged.
  obs::MetricsSnapshot fleet_metrics;
  std::size_t scrape_hosts_ok = 0;
  std::uint64_t scrape_bytes = 0;
};

struct RunConfig {
  std::size_t replicas = 3;
  std::size_t certs = 4000;
  std::size_t clients = 8;
  std::size_t ticks = 24;
  std::size_t queries_per_tick = 25;
  unsigned threads = 1;
  std::uint64_t seed = 0xC0FFEE;
};

RunResult RunSoak(const RunConfig& config) {
  Fleet fleet(config.replicas, config.certs);
  const StormSchedule schedule(config.ticks);

  // Seed revocations (2% of the population), then warm every replica.
  util::Rng seeder(config.seed ^ 0x5EED);
  util::Timestamp now = kNow - 2 * kTick;
  for (std::size_t i = 0; i < config.certs / 50; ++i) {
    const std::uint64_t serial = 1 + seeder.NextBelow(config.certs);
    if (fleet.revoked_epoch.count(serial)) continue;
    fleet.authority.Revoke(SerialOf(serial), now,
                           x509::ReasonCode::kKeyCompromise);
    fleet.revoked_epoch[serial] = 1;  // included in the first publish
  }
  fleet.authority_frontend.RebuildAll(now);
  fleet.publisher.Publish(fleet.net, now);

  fleet::HealthMonitor monitor(&fleet.ring);
  for (const auto& replica : fleet.replicas) monitor.AddTarget(replica->name());
  monitor.ProbeAll(fleet.net, now);
  monitor.ProbeAll(fleet.net, now + kTick);  // two good probes -> all admitted

  net::FaultPlan plan(config.seed);
  AddStormRules(plan, fleet, schedule);
  fleet.net.SetFaultPlan(&plan);

  std::vector<std::unique_ptr<fleet::FleetClient>> clients;
  for (std::size_t c = 0; c < config.clients; ++c) {
    fleet::FleetClientOptions options;
    options.responder_key = crypto::SimKeyFromLabel("fleet-bench").Public();
    // Trace ids derive from (run seed, client index), never from global
    // instance counters, so the trace tree is bit-identical at any thread
    // count and across the phases of one bench invocation.
    options.trace_seed = config.seed ^ (0x51D5EEDull * (c + 1));
    clients.push_back(std::make_unique<fleet::FleetClient>(
        &fleet.net, &fleet.ring, options));
  }

  std::map<std::string, const fleet::Replica*> by_name;
  for (const auto& replica : fleet.replicas)
    by_name[replica->name()] = replica.get();

  RunResult result;
  obs::SloMonitor slo = MakeSloMonitor();
  // Per-client accumulators, merged in client order after every tick so
  // totals are bit-identical at any thread count.
  struct ClientLocal {
    std::vector<double> latencies;
    std::vector<std::uint8_t> outcomes;
    std::vector<double> staleness;
    std::uint64_t wrong = 0, stale = 0;
    // Per-tick SLI tallies (one tick = one SLO window).
    std::uint64_t n = 0, ok = 0, fast = 0, fresh = 0;
    bool has_showcase = false;
    obs::TraceId showcase_trace;
    double showcase_elapsed = 0;
  };

  for (std::size_t tick = 0; tick < config.ticks; ++tick) {
    now = kNow + static_cast<util::Timestamp>(tick) * kTick;
    const bool storm = tick >= schedule.clean_ticks;

    // Replication keeps running through the storm: a few fresh
    // revocations land right before every fourth tick's publish.
    if (tick % 4 == 0 && tick != 0) {
      const std::uint64_t next_epoch = fleet.publisher.epoch() + 1;
      for (int i = 0; i < 4; ++i) {
        const std::uint64_t serial = 1 + seeder.NextBelow(config.certs);
        if (fleet.revoked_epoch.count(serial)) continue;
        fleet.authority.Revoke(SerialOf(serial), now,
                               x509::ReasonCode::kKeyCompromise);
        fleet.revoked_epoch[serial] = next_epoch;
      }
      fleet.authority_frontend.RefreshStale(now);
      fleet.authority_frontend.RebuildAll(now);
      fleet.publisher.Publish(fleet.net, now);
    }
    monitor.ProbeAll(fleet.net, now);

    // Lag observed AFTER the publish/probe step: the widest gap any
    // admitted replica would serve from this tick.
    result.max_lag_epochs =
        std::max(result.max_lag_epochs, fleet.publisher.MaxLagEpochs());
    for (const auto& replica : fleet.replicas) {
      if (!fleet.ring.IsEnabled(replica->name())) continue;
      const double lag_seconds = static_cast<double>(
          now - replica->applied_published_at());
      result.max_lag_seconds = std::max(result.max_lag_seconds, lag_seconds);
    }

    std::vector<ClientLocal> locals(config.clients);
    auto run_client = [&](std::size_t c) {
      ClientLocal& local = locals[c];
      util::Rng rng(config.seed ^ (0x9E3779B9ull * (c + 1)) ^
                    (tick * 0x85EBCA6Bull));
      for (std::size_t q = 0; q < config.queries_per_tick; ++q) {
        const std::uint64_t serial =
            1 + rng.NextBelow(static_cast<std::uint64_t>(config.certs));
        const auto answer = clients[c]->Query(fleet.Request(serial),
                                              fleet.Key(serial), now);
        ++local.n;
        if (!answer.ok) {
          local.outcomes.push_back(0xFF);
          continue;
        }
        ++local.ok;
        if (answer.elapsed_seconds <= kFastSeconds) ++local.fast;
        if (!local.has_showcase && answer.hedged && answer.failed_over &&
            answer.trace_id.valid()) {
          local.has_showcase = true;
          local.showcase_trace = answer.trace_id;
          local.showcase_elapsed = answer.elapsed_seconds;
        }
        local.outcomes.push_back(static_cast<std::uint8_t>(answer.status));
        local.latencies.push_back(answer.elapsed_seconds);
        const auto it = fleet.revoked_epoch.find(serial);
        const bool truly_revoked = it != fleet.revoked_epoch.end();
        bool stale_answer = false;
        if (answer.status == ocsp::CertStatus::kRevoked) {
          if (!truly_revoked) ++local.wrong;
        } else if (truly_revoked) {
          // "good" for a revoked cert: wrong if the serving replica had
          // already applied the revocation's publish epoch, stale lag
          // otherwise.
          if (by_name[answer.served_by]->applied_epoch() >= it->second) {
            ++local.wrong;
          } else {
            ++local.stale;
            stale_answer = true;
            local.staleness.push_back(static_cast<double>(
                now - fleet.publisher.PublishTimeOf(it->second)));
          }
        }
        if (!stale_answer) ++local.fresh;
      }
    };
    if (config.threads <= 1) {
      for (std::size_t c = 0; c < config.clients; ++c) run_client(c);
    } else {
      std::vector<std::thread> workers;
      for (unsigned t = 0; t < config.threads; ++t)
        workers.emplace_back([&, t] {
          for (std::size_t c = t; c < config.clients; c += config.threads)
            run_client(c);
        });
      for (auto& worker : workers) worker.join();
    }

    if (std::getenv("REV_FLEET_DEBUG") != nullptr) {
      std::uint64_t tick_failed = 0;
      for (const auto& local : locals)
        for (const std::uint8_t outcome : local.outcomes)
          if (outcome == 0xFF) ++tick_failed;
      if (tick_failed > 0) {
        std::printf("  [debug] tick=%zu failed=%llu ring:", tick,
                    static_cast<unsigned long long>(tick_failed));
        for (const auto& replica : fleet.replicas)
          std::printf(" %s=%d", replica->name().c_str(),
                      fleet.ring.IsEnabled(replica->name()) ? 1 : 0);
        std::printf("\n");
      }
    }

    // Deterministic merge, client order.
    std::uint64_t tick_n = 0, tick_ok = 0, tick_fast = 0, tick_fresh = 0;
    for (std::size_t c = 0; c < config.clients; ++c) {
      const ClientLocal& local = locals[c];
      result.wrong += local.wrong;
      result.stale += local.stale;
      tick_n += local.n;
      tick_ok += local.ok;
      tick_fast += local.fast;
      tick_fresh += local.fresh;
      if (!result.has_showcase && local.has_showcase) {
        result.has_showcase = true;
        result.showcase_trace = local.showcase_trace;
        result.showcase_elapsed_seconds = local.showcase_elapsed;
      }
      for (const double latency : local.latencies)
        (storm ? result.storm_latency : result.clean_latency).Add(latency);
      for (const double seconds : local.staleness)
        result.staleness_seconds.Add(seconds);
      result.outcome_checksum ^= util::wire::Fnv1a(BytesView(
                                     local.outcomes.data(),
                                     local.outcomes.size())) +
                                 0x9E3779B97F4A7C15ull * (c + 1);
    }
    // SLI tallies recorded once per tick from the merged totals — pure
    // integers off the virtual clock, so the timeline below is a function
    // of outcomes only, not of thread interleaving.
    slo.Record("availability", now, tick_ok, tick_n);
    slo.Record("latency_fast", now, tick_fast, tick_n);
    slo.Record("freshness", now, tick_fresh, tick_ok);
  }

  result.slo_json = slo.TimelineJson();
  const util::Timestamp storm_start =
      kNow + static_cast<util::Timestamp>(schedule.clean_ticks) * kTick;
  for (const auto& alert : slo.AlertTimeline()) {
    ++result.slo_alerts;
    if (alert.window_start < storm_start) ++result.clean_phase_alerts;
  }

  // Fleet-wide metrics view: scrape every replica's /metrics.json after
  // the last tick, with the fault plan detached so the scrape itself can't
  // be storm-damaged (the instruments already recorded the storm).
  fleet.net.SetFaultPlan(nullptr);
  std::vector<std::string> hosts;
  hosts.reserve(fleet.replicas.size());
  for (const auto& replica : fleet.replicas) hosts.push_back(replica->name());
  fleet::FleetMetricsView view =
      fleet::ScrapeFleetMetrics(fleet.net, hosts, now + kTick);
  result.fleet_metrics = std::move(view.merged);
  result.scrape_hosts_ok = view.hosts_ok;
  result.scrape_bytes = view.scrape_bytes;

  for (const auto& client : clients) {
    const auto& counters = client->counters();
    result.queries += counters.queries;
    result.answered += counters.answered;
    result.failovers += counters.failovers;
    result.hedges += counters.hedges;
    result.hedge_wins += counters.hedge_wins;
    result.shed_503 += counters.shed_503;
    result.exhausted += counters.exhausted;
  }
  return result;
}

double Ratio(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

}  // namespace

int main() {
  bench::BenchRun run("fleet");
  bench::PrintHeader(
      "Replicated serving fleet: availability and freshness under storms",
      "an unavailable revocation endpoint forces soft-fail (S5.2/S6.1); "
      "replication keeps status answers available AND never wrong");

  const std::uint64_t seed = SeedFromEnv();
  const std::size_t certs = bench::SizeFromEnv("REV_FLEET_CERTS", 4000);
  const std::size_t num_clients = bench::SizeFromEnv("REV_FLEET_CLIENTS", 8);
  const std::size_t ticks = bench::SizeFromEnv("REV_FLEET_TICKS", 24);
  const std::size_t qpt = bench::SizeFromEnv("REV_FLEET_QPT", 25);
  const bool strict = bench::SizeFromEnv("REV_FLEET_STRICT", 1) != 0;
  const unsigned threads = ClientThreads();
  const std::vector<std::size_t> factors =
      bench::ListFromEnv("REV_FLEET_FACTORS", {1, 2, 3, 5});

  std::printf("seed=0x%llX certs=%zu clients=%zu ticks=%zu qpt=%zu "
              "threads=%u\n\n",
              static_cast<unsigned long long>(seed), certs, num_clients,
              ticks, qpt, threads);

  bool all_gates_passed = true;
  std::string results_json = "{\n    \"sweep\": [";
  double clean_p99_baseline = 0;
  // SLO block for the BENCH json: taken from the largest swept N (the
  // configuration the fleet docs describe), captured as the sweep runs.
  std::string slo_block_json;
  std::uint64_t slo_block_alerts = 0, slo_block_clean = 0;
  std::size_t slo_block_n = 0;

  for (std::size_t i = 0; i < factors.size(); ++i) {
    const std::size_t n = factors[i];
    RunConfig config;
    config.replicas = n;
    config.certs = certs;
    config.clients = num_clients;
    config.ticks = ticks;
    config.queries_per_tick = qpt;
    config.threads = threads;
    config.seed = seed;

    RunResult result;
    {
      bench::BenchRun::Phase phase("fleet.soak");
      result = RunSoak(config);
    }

    const double availability = Ratio(result.answered, result.queries);
    const double shed_rate = Ratio(result.shed_503, result.queries);
    const double clean_p99 = result.clean_latency.Quantile(0.99);
    const double storm_p99 = result.storm_latency.Quantile(0.99);
    if (n == 1 || clean_p99_baseline == 0) clean_p99_baseline = clean_p99;
    const double p99_ratio = clean_p99 > 0 ? storm_p99 / clean_p99 : 0;

    std::printf(
        "N=%zu  queries=%llu answered=%llu (availability %.4f)\n"
        "      wrong=%llu stale=%llu failovers=%llu hedges=%llu (wins %llu)\n"
        "      shed rate %.4f  exhausted=%llu  max lag %llu epochs / %.0fs\n"
        "      latency p50/p99 clean %.3fs/%.3fs storm %.3fs/%.3fs (x%.1f)\n"
        "      staleness p50/p90/p99 %.0fs/%.0fs/%.0fs over %llu stale\n",
        n, static_cast<unsigned long long>(result.queries),
        static_cast<unsigned long long>(result.answered), availability,
        static_cast<unsigned long long>(result.wrong),
        static_cast<unsigned long long>(result.stale),
        static_cast<unsigned long long>(result.failovers),
        static_cast<unsigned long long>(result.hedges),
        static_cast<unsigned long long>(result.hedge_wins), shed_rate,
        static_cast<unsigned long long>(result.exhausted),
        static_cast<unsigned long long>(result.max_lag_epochs),
        result.max_lag_seconds, result.clean_latency.Quantile(0.50), clean_p99,
        result.storm_latency.Quantile(0.50), storm_p99, p99_ratio,
        result.staleness_seconds.Quantile(0.50),
        result.staleness_seconds.Quantile(0.90),
        result.staleness_seconds.Quantile(0.99),
        static_cast<unsigned long long>(result.stale));

    std::printf("      slo alerts=%llu (clean-phase %llu)  scrape %zu hosts "
                "%llu bytes\n",
                static_cast<unsigned long long>(result.slo_alerts),
                static_cast<unsigned long long>(result.clean_phase_alerts),
                result.scrape_hosts_ok,
                static_cast<unsigned long long>(result.scrape_bytes));

    // Acceptance gates: zero wrong answers at EVERY N; with replication
    // (N >= 2) the regional outage must not dent availability or blow the
    // latency tail. SLO gates at every N: the burn-rate engine must stay
    // silent through the clean phase (no false positives) and, once the
    // storm can actually be survived-but-felt (N >= 2), must page during
    // it; the end-of-run scrape must reach every replica.
    bool gates = result.wrong == 0;
    gates = gates && result.clean_phase_alerts == 0;
    gates = gates && result.scrape_hosts_ok == n;
    if (n >= 2) {
      gates = gates && availability >= 0.999;
      gates = gates && (clean_p99 <= 0 || storm_p99 < 10 * clean_p99);
      gates = gates && result.failovers > 0;
      gates = gates && result.slo_alerts > 0;
    }
    std::printf("%s fleet N=%zu wrong_answers=%llu availability=%.4f "
                "p99_ratio=%.2f slo_alerts=%llu\n\n",
                gates ? "OK" : "FAIL", n,
                static_cast<unsigned long long>(result.wrong), availability,
                p99_ratio,
                static_cast<unsigned long long>(result.slo_alerts));
    all_gates_passed = all_gates_passed && gates;
    if (n >= slo_block_n) {
      slo_block_n = n;
      slo_block_json = result.slo_json;
      slo_block_alerts = result.slo_alerts;
      slo_block_clean = result.clean_phase_alerts;
    }

    char entry[1024];
    std::snprintf(
        entry, sizeof entry,
        "%s\n      {\"replicas\": %zu, \"queries\": %llu, \"answered\": "
        "%llu,\n       \"availability\": %.6f, \"wrong_answers\": %llu, "
        "\"stale_answers\": %llu,\n       \"failovers\": %llu, \"hedges\": "
        "%llu, \"hedge_wins\": %llu,\n       \"shed_rate\": %.6f, "
        "\"exhausted\": %llu,\n       \"max_lag_epochs\": %llu, "
        "\"max_lag_seconds\": %.1f,\n       \"latency_clean_p50_s\": %.6f, "
        "\"latency_clean_p99_s\": %.6f,\n       \"latency_storm_p50_s\": "
        "%.6f, \"latency_storm_p99_s\": %.6f,\n       \"staleness_p50_s\": "
        "%.1f, \"staleness_p90_s\": %.1f, \"staleness_p99_s\": %.1f}",
        i == 0 ? "" : ",", n, static_cast<unsigned long long>(result.queries),
        static_cast<unsigned long long>(result.answered), availability,
        static_cast<unsigned long long>(result.wrong),
        static_cast<unsigned long long>(result.stale),
        static_cast<unsigned long long>(result.failovers),
        static_cast<unsigned long long>(result.hedges),
        static_cast<unsigned long long>(result.hedge_wins), shed_rate,
        static_cast<unsigned long long>(result.exhausted),
        static_cast<unsigned long long>(result.max_lag_epochs),
        result.max_lag_seconds, result.clean_latency.Quantile(0.50), clean_p99,
        result.storm_latency.Quantile(0.50), storm_p99,
        result.staleness_seconds.Quantile(0.50),
        result.staleness_seconds.Quantile(0.90),
        result.staleness_seconds.Quantile(0.99));
    results_json += entry;
  }
  results_json += "\n    ],\n";

  // SLO burn-rate block (largest swept N). `clean_phase_alerts` MUST be 0
  // — scripts/ci.sh greps for exactly that.
  {
    char slo_head[256];
    std::snprintf(slo_head, sizeof slo_head,
                  "    \"slo\": {\"replicas\": %zu, \"alerts\": %llu, "
                  "\"storm_phase_alerts\": %llu, \"clean_phase_alerts\": "
                  "%llu,\n      \"timeline\": ",
                  slo_block_n,
                  static_cast<unsigned long long>(slo_block_alerts),
                  static_cast<unsigned long long>(slo_block_alerts -
                                                  slo_block_clean),
                  static_cast<unsigned long long>(slo_block_clean));
    results_json += slo_head;
    results_json += slo_block_json.empty() ? "{}" : slo_block_json;
    results_json += "},\n";
  }

  // Showcase: a small soak re-run with the distributed-trace collector
  // enabled. Stitch the first hedged + failed-over query's cross-node
  // trace, extract its critical path, and require the tiles to sum to the
  // client-measured latency within 1%; require a trace-id exemplar on the
  // fleet-merged serve.latency_ns p99 bucket.
  bool showcase_ok = true;
  {
    bench::BenchRun::Phase phase("fleet.showcase");
    obs::DistTraceCollector& collector = obs::DistTraceCollector::Global();
    collector.Clear();
    collector.Enable();
    RunConfig config;
    config.replicas = 3;
    config.certs = std::min<std::size_t>(certs, 1000);
    config.clients = num_clients;
    config.ticks = std::min<std::size_t>(ticks, 12);
    config.queries_per_tick = qpt;
    config.seed = seed;
    config.threads = 1;
    const RunResult traced = RunSoak(config);

    std::vector<obs::DistSpan> spans;
    std::vector<obs::PathSegment> path;
    std::uint64_t path_sum_ns = 0;
    double measured_ns = 0;
    bool within_1pct = false, crosses_nodes = false, has_hedge_leg = false;
    std::set<std::string> nodes;
    if (traced.has_showcase) {
      spans = collector.SnapshotTrace(traced.showcase_trace);
      path = obs::CriticalPath(spans);
      for (const auto& segment : path) path_sum_ns += segment.dur_ns();
      for (const auto& span : spans) {
        nodes.insert(span.node);
        if (std::strcmp(span.name, "fleet.hedge") == 0) has_hedge_leg = true;
      }
      crosses_nodes = nodes.size() >= 2;
      measured_ns = traced.showcase_elapsed_seconds * 1e9;
      within_1pct = measured_ns > 0 &&
                    std::fabs(static_cast<double>(path_sum_ns) - measured_ns) <=
                        0.01 * measured_ns;
    }

    // Exemplar gate: the p99 bucket of the merged serve.latency_ns must
    // carry the trace id of the last traced request that landed in it.
    bool exemplar_ok = false;
    std::string exemplar_hex;
    for (const auto& histogram : traced.fleet_metrics.histograms) {
      if (histogram.name != "serve.latency_ns") continue;
      const obs::HistogramSnapshot& snapshot = histogram.snapshot;
      if (snapshot.count == 0) break;
      const std::uint64_t target = (snapshot.count * 99 + 99) / 100;
      std::uint64_t cumulative = 0;
      std::size_t p99_bucket = 0;
      for (std::size_t b = 0; b < snapshot.buckets.size(); ++b) {
        cumulative += snapshot.buckets[b];
        if (cumulative >= target) {
          p99_bucket = b;
          break;
        }
      }
      exemplar_ok = snapshot.exemplars[p99_bucket].valid();
      exemplar_hex = snapshot.exemplars[p99_bucket].Hex();
      break;
    }

    showcase_ok = traced.has_showcase && within_1pct && crosses_nodes &&
                  has_hedge_leg && exemplar_ok;
    std::printf(
        "%s showcase trace=%s spans=%zu nodes=%zu hops=%zu\n"
        "      critical path %.0fns vs measured %.0fns (%s1%%)  hedge "
        "leg=%d  p99 exemplar=%s\n\n",
        showcase_ok ? "OK" : "FAIL",
        traced.has_showcase ? traced.showcase_trace.Hex().c_str() : "(none)",
        spans.size(), nodes.size(), path.size(),
        static_cast<double>(path_sum_ns), measured_ns,
        within_1pct ? "within " : "OUTSIDE ", has_hedge_leg ? 1 : 0,
        exemplar_ok ? exemplar_hex.c_str() : "(missing)");
    all_gates_passed = all_gates_passed && showcase_ok;

    // Per-hop critical path for the BENCH json (and the tier-1 smoke).
    results_json += "    \"showcase_trace\": {";
    char head[512];
    std::snprintf(
        head, sizeof head,
        "\"trace\": \"%s\", \"spans\": %zu, \"nodes\": %zu,\n      "
        "\"measured_ns\": %.0f, \"critical_path_ns\": %llu, "
        "\"within_1pct\": %s, \"hedged\": true, \"failed_over\": true,\n"
        "      \"p99_exemplar\": \"%s\",\n      \"critical_path\": [",
        traced.has_showcase ? traced.showcase_trace.Hex().c_str() : "",
        spans.size(), nodes.size(), measured_ns,
        static_cast<unsigned long long>(path_sum_ns),
        within_1pct ? "true" : "false", exemplar_hex.c_str());
    results_json += head;
    for (std::size_t s = 0; s < path.size(); ++s) {
      char hop[256];
      std::snprintf(hop, sizeof hop,
                    "%s\n        {\"name\": \"%s\", \"node\": \"%s\", "
                    "\"start_ns\": %llu, \"dur_ns\": %llu}",
                    s == 0 ? "" : ",", path[s].name, path[s].node,
                    static_cast<unsigned long long>(path[s].start_ns),
                    static_cast<unsigned long long>(path[s].dur_ns()));
      results_json += hop;
    }
    results_json += "]},\n";

    char fleet_metrics_entry[256];
    std::snprintf(fleet_metrics_entry, sizeof fleet_metrics_entry,
                  "    \"fleet_metrics\": {\"hosts_ok\": %zu, "
                  "\"scrape_bytes\": %llu, \"counters\": %zu, "
                  "\"histograms\": %zu},\n",
                  traced.scrape_hosts_ok,
                  static_cast<unsigned long long>(traced.scrape_bytes),
                  traced.fleet_metrics.counters.size(),
                  traced.fleet_metrics.histograms.size());
    results_json += fleet_metrics_entry;

    // REV_TRACE=<path> exports the raw showcase spans for
    // `tools/trace2txt <path>` (the tier-1 stitched-trace smoke drives this).
    collector.ExportFromEnv();
    collector.Disable();
  }

  // Determinism gate: the same soak at 1 thread and at the sweep's thread
  // count must produce identical per-client outcomes and counters.
  bool deterministic = true;
  std::uint64_t checksum_serial = 0, checksum_threaded = 0;
  {
    bench::BenchRun::Phase phase("fleet.determinism");
    RunConfig config;
    config.replicas = 3;
    config.certs = std::min<std::size_t>(certs, 1000);
    config.clients = num_clients;
    config.ticks = std::min<std::size_t>(ticks, 12);
    config.queries_per_tick = qpt;
    config.seed = seed;
    config.threads = 1;
    const RunResult serial_run = RunSoak(config);
    config.threads = std::max(2u, threads);
    const RunResult threaded_run = RunSoak(config);
    checksum_serial = serial_run.outcome_checksum;
    checksum_threaded = threaded_run.outcome_checksum;
    deterministic = serial_run.outcome_checksum ==
                        threaded_run.outcome_checksum &&
                    serial_run.answered == threaded_run.answered &&
                    serial_run.failovers == threaded_run.failovers &&
                    serial_run.hedges == threaded_run.hedges &&
                    serial_run.wrong == threaded_run.wrong &&
                    serial_run.stale == threaded_run.stale &&
                    // The serialized SLO timeline is part of the contract:
                    // byte-identical alerts at any thread count.
                    serial_run.slo_json == threaded_run.slo_json;
  }
  std::printf("%s determinism threads 1 vs %u: checksum %016llX vs %016llX "
              "(slo timeline byte-compared)\n",
              deterministic ? "OK" : "FAIL", std::max(2u, threads),
              static_cast<unsigned long long>(checksum_serial),
              static_cast<unsigned long long>(checksum_threaded));
  all_gates_passed = all_gates_passed && deterministic;

  char tail[512];
  std::snprintf(tail, sizeof tail,
                "    \"seed\": %llu,\n    \"threads\": %u,\n"
                "    \"deterministic\": %s,\n    \"outcome_checksum\": "
                "\"%016llX\",\n    \"total_wrong_answers\": %s\n  }",
                static_cast<unsigned long long>(seed), threads,
                deterministic ? "true" : "false",
                static_cast<unsigned long long>(checksum_serial),
                all_gates_passed ? "0" : "-1");
  results_json += tail;
  run.SetResults(results_json);

  std::printf("%s bench_fleet overall\n",
              all_gates_passed ? "OK" : "FAIL");
  if (strict && !all_gates_passed) return 1;
  return 0;
}
