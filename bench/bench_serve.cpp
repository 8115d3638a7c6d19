// Load bench for the serving frontend, in three parts:
//
//   1. Per-request closed loop: N client threads call Serve() back-to-back,
//      sweeping the thread count. Reports QPS, latency quantiles
//      (p50/p95/p99) and the cache hit-rate per point.
//   2. Faults mode: the same loop through a SimNet host under a seeded
//      FaultPlan, once clean and once under a storm, with SLO burn-rate
//      gates and a traced retry probe whose critical path must tile the
//      measured latency (docs/fault-injection.md).
//   3. Metrics endpoint smoke: GET /metrics must carry the frontend's
//      labelled request counter.
//
// Writes every point to BENCH_serve.json (scripts/ci.sh checks the sweep
// peak of a smoke run against a QPS-regression floor) and exits non-zero
// when the sweep peak is below REV_SERVE_FLOOR or a gate fails.
//
// Environment knobs:
//   REV_SERVE_CERTS    population size per run        (default 20000)
//   REV_SERVE_OPS      requests per client thread     (default 50000)
//   REV_SERVE_THREADS  comma list for the sweep       (default "1,2,4,8")
//   REV_SERVE_SHED     per-shard admission budget     (default 128)
//   REV_SERVE_FLOOR    QPS floor for the exit code    (default 100000;
//                      0 disables — for sanitizer builds)
//   REV_SERVE_FAULTS   faults mode: 0 disables        (default 1)
//   REV_SERVE_FAULT_OPS   ops/client in faults mode   (default 2000)
//   REV_SERVE_FAULT_SEED  FaultPlan seed              (default 0xBEEF)
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "net/fault.h"
#include "net/retry.h"
#include "net/simnet.h"
#include "obs/distrace.h"
#include "obs/slo.h"
#include "ocsp/ocsp.h"
#include "ocsp/responder.h"
#include "serve/frontend.h"
#include "util/stats.h"
#include "x509/name.h"

using namespace rev;

namespace {

constexpr util::Timestamp kNow = 1'427'760'000;  // 2015-03-31

x509::Certificate MakeIssuerCert() {
  x509::TbsCertificate tbs;
  tbs.serial = x509::Serial{0x77};
  tbs.issuer = tbs.subject = x509::Name::Make("Serve Bench CA", "Bench");
  tbs.not_before = 0;
  tbs.not_after = kNow + 400 * util::kSecondsPerDay;
  tbs.public_key = crypto::SimKeyFromLabel("serve-bench").Public();
  tbs.basic_constraints = {true, -1};
  return x509::SignCertificate(tbs, crypto::SimKeyFromLabel("serve-bench"));
}

x509::Serial SerialOf(std::size_t i) {
  // Leading byte is fixed, nonzero, and < 0x80 so the serial survives DER
  // INTEGER round-trips unchanged (leading zeros would be normalized away
  // and the parsed request would never match the index key).
  x509::Serial serial(8);
  serial[0] = 0x4D;
  for (int b = 1; b < 8; ++b)
    serial[static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>((i >> (8 * (7 - b))) & 0xFF);
  return serial;
}

struct SweepPoint {
  unsigned clients = 0;
  double wall_seconds = 0;
  double qps = 0;
  double p50_us = 0, p95_us = 0, p99_us = 0;
  double hit_rate = 0;
  std::uint64_t requests = 0;
  std::uint64_t shed = 0;
};

// The request mix, mirroring what a responder for a mature CA sees: almost
// all traffic re-asks about known-good certs (cache hits), a sliver asks
// about revoked or never-issued serials.
struct Mix {
  double revoked = 0.08;   // revoked population share, also queried
  double unknown = 0.02;   // serials the CA never issued
};

// Shared bench world: seeded responder + frontend + pre-encoded request
// population (unknown serials sit past num_certs), so the sweep measures
// the server rather than its own setup or the client's encoder.
struct BenchWorld {
  x509::Certificate issuer;
  std::unique_ptr<ocsp::Responder> responder;
  std::unique_ptr<serve::Frontend> frontend;
  std::vector<Bytes> requests;

  BenchWorld(std::size_t num_certs, serve::FrontendOptions options)
      : issuer(MakeIssuerCert()) {
    responder = std::make_unique<ocsp::Responder>(
        issuer, crypto::SimKeyFromLabel("serve-bench"));
    const Mix mix;
    const auto num_revoked =
        static_cast<std::size_t>(static_cast<double>(num_certs) * mix.revoked);
    for (std::size_t i = 0; i < num_certs; ++i) {
      responder->AddCertificate(SerialOf(i));
      if (i < num_revoked)
        responder->Revoke(SerialOf(i), kNow - 1000,
                          x509::ReasonCode::kKeyCompromise);
    }
    frontend = std::make_unique<serve::Frontend>(options);
    frontend->AttachResponder(responder.get());
    frontend->RebuildAll(kNow);  // precompute: steady-state responder

    const std::size_t population =
        num_certs + static_cast<std::size_t>(
                        static_cast<double>(num_certs) * mix.unknown);
    requests.resize(population);
    for (std::size_t i = 0; i < population; ++i) {
      ocsp::OcspRequest request;
      request.cert_ids = {ocsp::MakeCertId(issuer, SerialOf(i))};
      requests[i] = ocsp::EncodeOcspRequest(request);
    }
  }
};

SweepPoint PointFromCounters(const serve::Frontend& frontend, unsigned clients,
                             double wall, const util::Distribution& merged) {
  const serve::Frontend::Counters counters = frontend.counters();
  SweepPoint point;
  point.clients = clients;
  point.wall_seconds = wall;
  point.requests = counters.requests;
  point.shed = counters.shed;
  point.qps = wall > 0 ? static_cast<double>(counters.requests) / wall : 0;
  point.p50_us = merged.Quantile(0.50);
  point.p95_us = merged.Quantile(0.95);
  point.p99_us = merged.Quantile(0.99);
  const std::uint64_t lookups = counters.cache_hits + counters.cache_misses +
                                counters.cache_expired;
  point.hit_rate = lookups > 0 ? static_cast<double>(counters.cache_hits) /
                                     static_cast<double>(lookups)
                               : 0;
  return point;
}

SweepPoint RunOnce(unsigned clients, std::size_t num_certs,
                   std::size_t ops_per_client, std::size_t shed_budget) {
  serve::FrontendOptions options;
  options.per_shard_queue = shed_budget;
  options.threads = clients;
  BenchWorld world(num_certs, options);
  const std::size_t population = world.requests.size();

  std::vector<std::vector<double>> latencies(clients);
  for (auto& samples : latencies) samples.reserve(ops_per_client);
  std::vector<std::thread> threads;
  const auto wall_start = std::chrono::steady_clock::now();
  for (unsigned t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      // Deterministic per-thread walk with a large co-prime stride, so
      // every client touches the whole population in a different order.
      std::size_t at = (t * 7919) % population;
      for (std::size_t op = 0; op < ops_per_client; ++op) {
        // Conditional subtract, not `%`: a 64-bit divide per op is
        // measurable against a sub-microsecond server.
        at += 7919;
        while (at >= population) at -= population;
        const auto start = std::chrono::steady_clock::now();
        const auto result = world.frontend->Serve(world.requests[at], kNow);
        const double micros =
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - start)
                .count();
        latencies[t].push_back(micros);
        if (result.http_status == 200 && !result.body) std::abort();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_start)
                          .count();

  util::Distribution merged;
  for (const std::vector<double>& samples : latencies)
    for (double micros : samples) merged.Add(micros);
  return PointFromCounters(*world.frontend, clients, wall, merged);
}

// -------------------------------------------------------- faults mode ----

// Faults mode (docs/fault-injection.md): the same closed loop, but routed
// through a SimNet host so a seeded FaultPlan can batter the wire — 503
// bursts, hung requests, corrupted response bodies — while the clients use
// FetchWithRetry. Run once clean and once under the storm; the delta is
// the cost of resilience: QPS/p99 degradation and the retry amplification
// (wire requests per logical request) the storm induces.
struct FaultsPoint {
  double wall_seconds = 0;
  double qps = 0;
  double p50_us = 0, p99_us = 0;
  std::uint64_t logical = 0;   // PostWithRetry calls
  std::uint64_t wire = 0;      // attempts that hit the (virtual) wire
  std::uint64_t gave_up = 0;   // logical requests that exhausted retries
  std::uint64_t injected = 0;  // faults the plan fired
  std::uint64_t shed = 0;
  double amplification = 1.0;  // wire / logical
};

// SLO windows in faults mode: the closed loop runs at one fixed virtual
// instant, so windows are synthesized from op progress instead — each
// client's op stream is cut into kSloWindows equal slices, slice w of
// every client mapping to virtual window `window_base + w`. The tallies
// are merged in client order, so the timeline is thread-count-invariant.
constexpr std::size_t kSloWindows = 8;

// When non-null, per-window (requests, answered, fast) tallies are
// recorded into `slo` — "fast" meaning the whole retry ladder resolved
// within 2 virtual seconds.
FaultsPoint RunFaultsOnce(unsigned clients, std::size_t num_certs,
                          std::size_t ops_per_client, net::FaultPlan* plan,
                          obs::SloMonitor* slo = nullptr,
                          std::int64_t window_base = 0) {
  const x509::Certificate issuer = MakeIssuerCert();
  ocsp::Responder responder(issuer, crypto::SimKeyFromLabel("serve-bench"));
  for (std::size_t i = 0; i < num_certs; ++i)
    responder.AddCertificate(SerialOf(i));

  serve::Frontend frontend;
  frontend.AttachResponder(&responder);
  frontend.RebuildAll(kNow);

  net::SimNet net;
  net.AddHost("ocsp.bench",
              [&](const net::HttpRequest& request, util::Timestamp now) {
                return frontend.HandleHttp(request, now);
              });
  if (plan != nullptr) net.SetFaultPlan(plan);

  std::vector<Bytes> requests(num_certs);
  for (std::size_t i = 0; i < num_certs; ++i) {
    ocsp::OcspRequest request;
    request.cert_ids = {ocsp::MakeCertId(issuer, SerialOf(i))};
    requests[i] = ocsp::EncodeOcspRequest(request);
  }

  net::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_seconds = 1;  // virtual seconds: no wall sleeping
  policy.jitter = 0.5;
  policy.seed = 42;
  const auto validate = [](const net::HttpResponse& response) {
    return ocsp::ParseOcspResponse(response.body).has_value();
  };

  struct WindowTally {
    std::uint64_t n = 0, ok = 0, fast = 0;
  };
  const std::size_t ops_per_window =
      std::max<std::size_t>(1, ops_per_client / kSloWindows);

  std::atomic<std::uint64_t> gave_up{0};
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::vector<WindowTally>> tallies(
      clients, std::vector<WindowTally>(kSloWindows));
  for (auto& samples : latencies) samples.reserve(ops_per_client);
  std::vector<std::thread> threads;
  const auto wall_start = std::chrono::steady_clock::now();
  for (unsigned t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      std::size_t at = t * 7919;
      for (std::size_t op = 0; op < ops_per_client; ++op) {
        at = (at + 7919) % num_certs;
        // Unique path per logical request so the plan's per-exchange coin
        // flips are independent (and reproducible: they only depend on the
        // URL, the virtual time, and the plan seed).
        const std::string url = "http://ocsp.bench/q/" + std::to_string(t) +
                                "/" + std::to_string(op);
        const auto start = std::chrono::steady_clock::now();
        const net::RetryResult result = net::PostWithRetry(
            net, url, requests[at], kNow, policy, 10.0, validate);
        latencies[t].push_back(std::chrono::duration<double, std::micro>(
                                   std::chrono::steady_clock::now() - start)
                                   .count());
        if (result.gave_up) gave_up.fetch_add(1, std::memory_order_relaxed);
        WindowTally& window =
            tallies[t][std::min(op / ops_per_window, kSloWindows - 1)];
        ++window.n;
        if (!result.gave_up) ++window.ok;
        if (!result.gave_up && result.total_elapsed_seconds <= 2.0)
          ++window.fast;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_start)
                          .count();

  util::Distribution merged;
  for (const std::vector<double>& samples : latencies)
    for (double micros : samples) merged.Add(micros);

  if (slo != nullptr) {
    // Client-order merge, one Record per synthesized window.
    for (std::size_t w = 0; w < kSloWindows; ++w) {
      WindowTally total;
      for (unsigned t = 0; t < clients; ++t) {
        total.n += tallies[t][w].n;
        total.ok += tallies[t][w].ok;
        total.fast += tallies[t][w].fast;
      }
      const auto when = static_cast<util::Timestamp>(
          (window_base + static_cast<std::int64_t>(w)) * 60);
      slo->Record("availability", when, total.ok, total.n);
      slo->Record("latency_fast", when, total.fast, total.n);
    }
  }

  FaultsPoint point;
  point.wall_seconds = wall;
  point.logical = static_cast<std::uint64_t>(clients) * ops_per_client;
  point.wire = net.total_requests();
  point.gave_up = gave_up.load();
  point.injected = plan != nullptr ? plan->total_injected() : 0;
  point.shed = frontend.counters().shed;
  point.qps =
      wall > 0 ? static_cast<double>(point.logical) / wall : 0;
  point.p50_us = merged.Quantile(0.50);
  point.p99_us = merged.Quantile(0.99);
  point.amplification =
      point.logical > 0 ? static_cast<double>(point.wire) /
                              static_cast<double>(point.logical)
                        : 1.0;
  return point;
}

// Smoke-check the observability exposition end to end: a frontend behind a
// SimNet host must answer `GET /metrics` with a text dump that contains its
// own labelled request counter. Returns true on success and prints the line
// scripts/ci.sh greps for.
bool MetricsEndpointSmoke() {
  const x509::Certificate issuer = MakeIssuerCert();
  ocsp::Responder responder(issuer, crypto::SimKeyFromLabel("serve-bench"));
  responder.AddCertificate(SerialOf(0));

  serve::Frontend frontend;
  frontend.AttachResponder(&responder);

  net::SimNet net;
  net.AddHost("metrics.bench", [&](const net::HttpRequest& request,
                                   util::Timestamp now) {
    return frontend.HandleHttp(request, now);
  });

  // One real OCSP request through the host first, so the counter the
  // exposition must carry is nonzero.
  ocsp::OcspRequest request;
  request.cert_ids = {ocsp::MakeCertId(issuer, SerialOf(0))};
  const net::FetchResult served = net.Post(
      "http://metrics.bench/", ocsp::EncodeOcspRequest(request), kNow);
  if (!served.ok()) return false;

  const net::FetchResult fetched =
      net.Get("http://metrics.bench/metrics", kNow);
  if (!fetched.ok()) return false;
  const std::string text(fetched.response.body.begin(),
                         fetched.response.body.end());
  const std::string want =
      "serve.requests{" + frontend.metrics_label() + "} 1";
  if (text.find(want) == std::string::npos) return false;
  std::printf("metrics endpoint: ok (%zu bytes, has \"%s\")\n", text.size(),
              want.c_str());
  return true;
}

}  // namespace

int main() {
  const std::size_t num_certs = bench::SizeFromEnv("REV_SERVE_CERTS", 20'000);
  const std::size_t ops = bench::SizeFromEnv("REV_SERVE_OPS", 50'000);
  const std::size_t shed_budget = bench::SizeFromEnv("REV_SERVE_SHED", 128);
  const std::vector<std::size_t> sweep =
      bench::ListFromEnv("REV_SERVE_THREADS", {1, 2, 4, 8});

  bench::BenchRun run("serve");

  std::printf("==============================================================\n");
  std::printf("bench_serve — closed-loop load on the serving frontend\n");
  std::printf("certs=%zu ops/client=%zu shed-budget=%zu\n", num_certs, ops,
              shed_budget);
  std::printf("==============================================================\n\n");

  std::printf("%8s %12s %10s %10s %10s %10s %9s %8s\n", "clients", "QPS",
              "p50(us)", "p95(us)", "p99(us)", "hit-rate", "requests", "shed");
  std::vector<SweepPoint> points;
  {
    bench::BenchRun::Phase phase("serve.sweep");
    for (std::size_t clients : sweep) {
      const SweepPoint point = RunOnce(static_cast<unsigned>(clients),
                                       num_certs, ops, shed_budget);
      points.push_back(point);
      std::printf("%8u %12.0f %10.2f %10.2f %10.2f %9.1f%% %9llu %8llu\n",
                  point.clients, point.qps, point.p50_us, point.p95_us,
                  point.p99_us, point.hit_rate * 100,
                  static_cast<unsigned long long>(point.requests),
                  static_cast<unsigned long long>(point.shed));
    }
  }

  std::string results = "{\"certs\": " + std::to_string(num_certs) +
                        ", \"ops_per_client\": " + std::to_string(ops) +
                        ", \"sweep\": [";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    char buffer[256];
    std::snprintf(buffer, sizeof buffer,
                  "%s{\"clients\": %u, \"qps\": %.0f, \"p50_us\": %.2f, "
                  "\"p95_us\": %.2f, \"p99_us\": %.2f, \"hit_rate\": %.4f, "
                  "\"requests\": %llu, \"shed\": %llu}",
                  i == 0 ? "" : ", ", p.clients, p.qps, p.p50_us, p.p95_us,
                  p.p99_us, p.hit_rate,
                  static_cast<unsigned long long>(p.requests),
                  static_cast<unsigned long long>(p.shed));
    results += buffer;
  }
  results += "]";

  // Faults mode: clean vs storm through the same SimNet path.
  bool faults_ok = true;
  bool faults_on = true;
  if (const char* env = std::getenv("REV_SERVE_FAULTS"))
    faults_on = std::atoi(env) != 0;
  if (faults_on) {
    const std::size_t fault_ops =
        bench::SizeFromEnv("REV_SERVE_FAULT_OPS", 2'000);
    const std::size_t fault_certs = std::min<std::size_t>(num_certs, 2'000);
    const auto seed =
        static_cast<std::uint64_t>(
            bench::SizeFromEnv("REV_SERVE_FAULT_SEED", 0xBEEF));
    net::FaultPlan plan(seed);
    net::FaultRule burst;
    burst.kind = net::FaultKind::kHttpError;
    burst.http_status = 503;
    burst.retry_after = 1;
    burst.probability = 0.08;
    plan.AddRule(burst);
    net::FaultRule hang;
    hang.kind = net::FaultKind::kTimeout;
    hang.probability = 0.05;
    plan.AddRule(hang);
    net::FaultRule corrupt;
    corrupt.kind = net::FaultKind::kCorrupt;
    corrupt.probability = 0.05;
    corrupt.corrupt_bytes = 2;
    plan.AddRule(corrupt);

    bench::BenchRun::Phase phase("serve.faults");
    const unsigned fault_clients = 4;
    // Both runs feed one SLO monitor: clean windows at virtual offset 0,
    // storm windows far later — the burn-rate engine must page only in
    // the storm range.
    obs::SloMonitor slo;
    slo.AddObjective({.name = "availability",
                      .objective = 0.999,
                      .window_seconds = 60,
                      .short_windows = 1,
                      .long_windows = 3,
                      .burn_threshold = 4.0});
    slo.AddObjective({.name = "latency_fast",
                      .objective = 0.99,
                      .window_seconds = 60,
                      .short_windows = 1,
                      .long_windows = 3,
                      .burn_threshold = 4.0});
    constexpr std::int64_t kStormWindowBase = 10'000;
    const FaultsPoint clean = RunFaultsOnce(fault_clients, fault_certs,
                                            fault_ops, nullptr, &slo, 0);
    const FaultsPoint storm = RunFaultsOnce(
        fault_clients, fault_certs, fault_ops, &plan, &slo, kStormWindowBase);
    const double qps_ratio = clean.qps > 0 ? storm.qps / clean.qps : 0;
    const double p99_ratio = clean.p99_us > 0 ? storm.p99_us / clean.p99_us : 0;

    std::uint64_t slo_alerts = 0, slo_clean_alerts = 0;
    for (const auto& alert : slo.AlertTimeline()) {
      ++slo_alerts;
      if (alert.window_start < kStormWindowBase * 60) ++slo_clean_alerts;
    }
    const bool slo_ok = slo_clean_alerts == 0 && slo_alerts > 0;

    std::printf("\nfaults mode (seed %llu, %u clients x %zu ops):\n",
                static_cast<unsigned long long>(seed), fault_clients,
                fault_ops);
    std::printf("  %-8s %12s %10s %10s %8s %8s %8s\n", "", "QPS", "p50(us)",
                "p99(us)", "amplif", "gave-up", "injected");
    std::printf("  %-8s %12.0f %10.2f %10.2f %8.3f %8llu %8llu\n", "clean",
                clean.qps, clean.p50_us, clean.p99_us, clean.amplification,
                static_cast<unsigned long long>(clean.gave_up),
                static_cast<unsigned long long>(clean.injected));
    std::printf("  %-8s %12.0f %10.2f %10.2f %8.3f %8llu %8llu\n", "storm",
                storm.qps, storm.p50_us, storm.p99_us, storm.amplification,
                static_cast<unsigned long long>(storm.gave_up),
                static_cast<unsigned long long>(storm.injected));
    std::printf("  degradation: QPS x%.3f, p99 x%.3f\n", qps_ratio, p99_ratio);
    std::printf("  slo: %llu alert windows (clean-phase %llu): %s\n",
                static_cast<unsigned long long>(slo_alerts),
                static_cast<unsigned long long>(slo_clean_alerts),
                slo_ok ? "OK" : "FAIL");

    // Traced retry probe: one storm-phase request rendered as a stitched
    // trace whose critical path must tile the measured end-to-end latency.
    auto& collector = obs::DistTraceCollector::Global();
    collector.Clear();
    collector.Enable();
    bool probe_ok = false;
    std::uint64_t probe_attempts = 0;
    double probe_elapsed = 0;
    std::size_t probe_hops = 0;
    std::string probe_trace_hex;
    std::string probe_hops_json;
    {
      const x509::Certificate issuer = MakeIssuerCert();
      ocsp::Responder responder(issuer, crypto::SimKeyFromLabel("serve-bench"));
      responder.AddCertificate(SerialOf(0));
      serve::Frontend frontend;
      frontend.AttachResponder(&responder);
      frontend.RebuildAll(kNow);
      net::SimNet probe_net;
      probe_net.AddHost("ocsp.bench",
                        [&](const net::HttpRequest& request,
                            util::Timestamp now) {
                          return frontend.HandleHttp(request, now);
                        });
      net::FaultPlan probe_plan(seed ^ 0x9E3779B97F4A7C15ull);
      net::FaultRule probe_burst;
      probe_burst.kind = net::FaultKind::kHttpError;
      probe_burst.http_status = 503;
      probe_burst.retry_after = 1;
      probe_burst.probability = 0.45;
      probe_plan.AddRule(probe_burst);
      probe_net.SetFaultPlan(&probe_plan);

      ocsp::OcspRequest ocsp_request;
      ocsp_request.cert_ids = {ocsp::MakeCertId(issuer, SerialOf(0))};
      const Bytes probe_body = ocsp::EncodeOcspRequest(ocsp_request);

      net::RetryPolicy probe_policy;
      probe_policy.max_attempts = 5;
      probe_policy.initial_backoff_seconds = 1;
      probe_policy.jitter = 0.5;
      probe_policy.seed = 42;
      for (std::uint64_t i = 0; i < 50 && !probe_ok; ++i) {
        collector.Clear();
        const obs::TraceId trace = obs::MakeTraceId(seed, 2'000 + i);
        const obs::SpanContext root{trace, obs::RootSpanId(trace)};
        net::HttpRequest request;
        request.method = "POST";
        request.host = "ocsp.bench";
        request.path = "/probe/" + std::to_string(i);
        request.body = probe_body;
        request.headers[obs::kTraceparentHeader] = obs::FormatTraceparent(root);
        const auto result =
            net::FetchWithRetry(probe_net, request, kNow, probe_policy, 30.0);
        if (!result.ok() || result.attempts < 2) continue;
        obs::DistSpan root_span;
        root_span.trace = root.trace;
        root_span.span = root.span;
        root_span.parent = 0;
        root_span.name = "probe.check";
        root_span.node = "probe";
        root_span.kind = obs::SpanKind::kInternal;
        root_span.status = result.fetch.response.status;
        root_span.start_ns = obs::VirtualNs(kNow, 0);
        root_span.end_ns = obs::VirtualNs(kNow, result.total_elapsed_seconds);
        collector.Record(root_span);
        const auto spans = collector.SnapshotTrace(root.trace);
        const auto path = obs::CriticalPath(spans);
        std::uint64_t path_ns = 0;
        for (const auto& segment : path) path_ns += segment.dur_ns();
        const double measured_ns = result.total_elapsed_seconds * 1e9;
        if (measured_ns <= 0 ||
            std::fabs(static_cast<double>(path_ns) - measured_ns) >
                0.01 * measured_ns)
          continue;
        probe_ok = true;
        probe_attempts = result.attempts;
        probe_elapsed = result.total_elapsed_seconds;
        probe_hops = path.size();
        probe_trace_hex = root.trace.Hex();
        for (const auto& segment : path) {
          char hop[256];
          std::snprintf(hop, sizeof hop,
                        "%s{\"name\": \"%s\", \"node\": \"%s\", "
                        "\"start_ns\": %llu, \"dur_ns\": %llu}",
                        probe_hops_json.empty() ? "" : ", ", segment.name,
                        segment.node,
                        static_cast<unsigned long long>(segment.start_ns),
                        static_cast<unsigned long long>(segment.dur_ns()));
          probe_hops_json += hop;
        }
      }
      probe_net.SetFaultPlan(nullptr);
    }
    collector.ExportFromEnv();
    collector.Disable();
    std::printf("  traced probe: %s (attempts %llu, %.3fs, critical path %zu "
                "hop%s, trace %s)\n",
                probe_ok ? "OK" : "FAIL",
                static_cast<unsigned long long>(probe_attempts), probe_elapsed,
                probe_hops, probe_hops == 1 ? "" : "s",
                probe_trace_hex.empty() ? "-" : probe_trace_hex.c_str());
    faults_ok = slo_ok && probe_ok;

    char buffer[512];
    std::snprintf(
        buffer, sizeof buffer,
        ", \"faults\": {\"seed\": %llu, \"clients\": %u, "
        "\"ops_per_client\": %zu, "
        "\"clean\": {\"qps\": %.0f, \"p50_us\": %.2f, \"p99_us\": %.2f, "
        "\"amplification\": %.4f}, "
        "\"storm\": {\"qps\": %.0f, \"p50_us\": %.2f, \"p99_us\": %.2f, "
        "\"amplification\": %.4f, \"gave_up\": %llu, \"injected\": %llu}, "
        "\"qps_degradation\": %.4f, \"p99_inflation\": %.4f, ",
        static_cast<unsigned long long>(seed), fault_clients, fault_ops,
        clean.qps, clean.p50_us, clean.p99_us, clean.amplification, storm.qps,
        storm.p50_us, storm.p99_us, storm.amplification,
        static_cast<unsigned long long>(storm.gave_up),
        static_cast<unsigned long long>(storm.injected), qps_ratio, p99_ratio);
    results += buffer;
    std::snprintf(
        buffer, sizeof buffer,
        "\"slo\": {\"alerts\": %llu, \"storm_phase_alerts\": %llu, "
        "\"clean_phase_alerts\": %llu, \"timeline\": ",
        static_cast<unsigned long long>(slo_alerts),
        static_cast<unsigned long long>(slo_alerts - slo_clean_alerts),
        static_cast<unsigned long long>(slo_clean_alerts));
    results += buffer;
    results += slo.TimelineJson();
    std::snprintf(
        buffer, sizeof buffer,
        "}, \"traced_probe\": {\"ok\": %s, \"trace\": \"%s\", "
        "\"attempts\": %llu, \"elapsed_seconds\": %.6f, "
        "\"critical_path\": [",
        probe_ok ? "true" : "false", probe_trace_hex.c_str(),
        static_cast<unsigned long long>(probe_attempts), probe_elapsed);
    results += buffer;
    results += probe_hops_json;
    results += "]}}";
  }

  results += "}";
  run.SetResults(std::move(results));

  std::printf("\n");
  const bool metrics_ok = MetricsEndpointSmoke();
  if (!metrics_ok) std::printf("metrics endpoint: FAILED\n");

  // The acceptance floor for the precomputed hot path: >=100k lookups/sec
  // at some point of the sweep (sanitizer builds disable it).
  double floor = 100'000;
  if (const char* env = std::getenv("REV_SERVE_FLOOR")) floor = std::atof(env);
  double best = 0;
  for (const SweepPoint& p : points) best = std::max(best, p.qps);
  std::printf("peak QPS %.0f (floor %.0f/s: %s)\n", best, floor,
              best >= floor ? "meets" : "BELOW");
  if (!faults_ok) std::printf("faults-mode observability gates: FAILED\n");
  return best >= floor && metrics_ok && faults_ok ? 0 : 1;
}
