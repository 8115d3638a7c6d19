// End-to-end cascade distribution bench (ROADMAP item 3): builds the
// measurement world, replays its crawler revocation DB into daily
// Publisher builds served through a serve::Frontend route table, and runs
// a Fleet of >=10k simulated clients on heterogeneous cadences pulling
// deltas over SimNet while a FaultPlan storm batters the distribution
// host. Reports aggregate bandwidth (delta channel vs naive
// snapshot-every-poll), client staleness CDFs, vulnerability-window
// distributions, and the effective-window shrinkage against the CRLSet
// baseline of Fig. 7/10 — with every applied update sample-verified
// against publisher ground truth (wrong answers must be zero).
//
// Knobs: REV_SCALE (world size), REV_CASCADE_CLIENTS (default 12000),
// REV_CASCADE_DAYS (default 12), REV_SEED.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cascade/cascade.h"
#include "cascade/fleet.h"
#include "cascade/publisher.h"
#include "net/fault.h"
#include "net/retry.h"
#include "net/simnet.h"
#include "obs/distrace.h"
#include "obs/slo.h"
#include "serve/frontend.h"
#include "util/stats.h"
#include "util/time.h"

namespace rev {
namespace {

std::uint64_t SeedFromEnv() {
  const char* env = std::getenv("REV_SEED");
  if (env != nullptr) {
    const long long v = std::atoll(env);
    if (v > 0) return static_cast<std::uint64_t>(v);
  }
  return 42;
}

// One crawler revocation mapped into cascade-key space.
struct Replayed {
  util::Timestamp first_seen = 0;
  util::Timestamp expiry = 0;  // not_after of the revoked cert
  Bytes key;
};

double Days(double seconds) { return seconds / util::kSecondsPerDay; }

std::string CdfJson(const util::Distribution& d, std::size_t points) {
  std::string out = "[";
  for (const auto& [value, fraction] : d.CdfSeries(points)) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%s[%.1f, %.4f]",
                  out.size() > 1 ? ", " : "", value, fraction);
    out += buffer;
  }
  out += "]";
  return out;
}

}  // namespace

int Main() {
  bench::BenchRun run("cascade");
  const double scale = bench::ScaleFromEnv();
  const std::uint64_t seed = SeedFromEnv();
  const std::size_t num_clients =
      bench::SizeFromEnv("REV_CASCADE_CLIENTS", 12'000);
  const std::size_t num_days = bench::SizeFromEnv("REV_CASCADE_DAYS", 12);

  bench::PrintHeader(
      "cascade distribution: publisher + >=10k-client fleet under a storm",
      "CRLite-style cascades cover 100% of known revocations in ~10x less "
      "space than CRLs; deltas make daily updates cheap (Fig. 11 context)");

  bench::World world = bench::World::Build(scale);
  const core::EcosystemConfig& config = world.eco->config();

  // ---- universe + revocation replay from the crawler DB ----------------
  // Universe = every certificate the measurement pipeline ever observed;
  // the cascade is exact against exactly this set. Crawler revocations
  // outside it (the hidden population: CRL entries for certs no scan ever
  // saw) cannot be cascade members by construction and are excluded.
  auto universe = std::make_shared<std::vector<Bytes>>();
  std::map<Bytes, util::Timestamp, util::BytesLess> expiry_by_key;
  const core::CertCorpus& corpus = world.pipeline->corpus();
  for (core::CertCorpus::Row row = 0; row < corpus.size(); ++row) {
    Bytes key = cascade::CertKey(corpus.name_der(corpus.issuer_id(row)),
                                 corpus.serial(row));
    expiry_by_key.emplace(key, corpus.not_after(row));
    universe->push_back(std::move(key));
  }
  std::sort(universe->begin(), universe->end(), util::BytesLess{});
  universe->erase(std::unique(universe->begin(), universe->end()),
                  universe->end());
  const auto shared_universe =
      std::shared_ptr<const std::vector<Bytes>>(universe);

  std::vector<Replayed> replay;
  std::size_t hidden_revocations = 0;
  for (const auto& [id, info] : world.crawler->revocations()) {
    if (info.first_seen_in_crl == 0) continue;
    Bytes key = cascade::CertKey(id.first, id.second);
    const auto expiry = expiry_by_key.find(key);
    if (expiry == expiry_by_key.end()) {
      ++hidden_revocations;  // revoked but never scanned: outside the universe
      continue;
    }
    replay.push_back(Replayed{info.first_seen_in_crl, expiry->second,
                              std::move(key)});
  }
  std::sort(replay.begin(), replay.end(),
            [](const Replayed& a, const Replayed& b) {
              return std::tie(a.first_seen, a.key) <
                     std::tie(b.first_seen, b.key);
            });
  std::printf("universe: %zu certs; crawler revocations in-universe %zu, "
              "hidden %zu\n\n",
              shared_universe->size(), replay.size(), hidden_revocations);

  // ---- publisher behind a serve::Frontend on a stormy SimNet -----------
  cascade::PublisherOptions publisher_options;
  publisher_options.max_delta_history = num_days + 2;
  // Deltas serve while not larger than the snapshot itself. At paper scale
  // snapshots are hundreds of KB and the default 0.5 fraction is already
  // generous; at bench scale the snapshot is a few KB, so 1.0 keeps the
  // delta channel exercised without ever costing more than a snapshot.
  publisher_options.snapshot_fallback_fraction = 1.0;
  publisher_options.cascade.threads = bench::ThreadsFromEnv();
  cascade::Publisher publisher(publisher_options);

  serve::FrontendOptions frontend_options;
  frontend_options.num_shards = 4;
  serve::Frontend frontend(frontend_options);
  publisher.ServeThrough(frontend);

  net::SimNet dist_net;
  dist_net.AddHost("cascade.dist.sim",
                   [&frontend](const net::HttpRequest& request,
                               util::Timestamp now) {
                     return frontend.HandleHttp(request, now);
                   });

  const util::Timestamp day0 =
      config.study_end -
      static_cast<util::Timestamp>(num_days - 1) * util::kSecondsPerDay;

  net::FaultPlan storm(seed);
  {
    // Background flakiness for the whole run...
    net::FaultRule rule;
    rule.target = "cascade.dist.sim";
    rule.kind = net::FaultKind::kCorrupt;
    rule.probability = 0.08;
    storm.AddRule(rule);
    rule.kind = net::FaultKind::kHttpError;
    rule.http_status = 503;
    rule.retry_after = 30;
    rule.probability = 0.05;
    storm.AddRule(rule);
    // ...plus a day-long timeout storm mid-run.
    rule.kind = net::FaultKind::kTimeout;
    rule.probability = 0.5;
    rule.start = day0 + static_cast<util::Timestamp>(num_days / 2) *
                            util::kSecondsPerDay;
    rule.end = rule.start + util::kSecondsPerDay;
    storm.AddRule(rule);
  }
  dist_net.SetFaultPlan(&storm);

  cascade::FleetOptions fleet_options;
  fleet_options.num_clients = num_clients;
  fleet_options.seed = seed;
  cascade::Fleet fleet(&dist_net, &publisher, fleet_options);

  // ---- replay: one publish per day, fleet polls in between -------------
  // Per-day poll outcomes feed the burn-rate engine: one SLO window per
  // simulated day, so the mid-run timeout storm must page and the
  // background-flakiness days must stay quiet.
  obs::SloMonitor slo;
  slo.AddObjective({.name = "poll_success",
                    .objective = 0.99,
                    .window_seconds = util::kSecondsPerDay,
                    .short_windows = 1,
                    .long_windows = 2,
                    .burn_threshold = 4.0});
  const util::Timestamp storm_day_start =
      day0 +
      static_cast<util::Timestamp>(num_days / 2) * util::kSecondsPerDay;
  std::size_t snapshot_bytes_last = 0;
  std::size_t levels_last = 0;
  std::uint64_t delta_bytes_total = 0;
  std::size_t revoked_final = 0;
  {
    bench::BenchRun::Phase phase("cascade.replay");
    fleet.StepTo(day0);  // primes per-client poll phases
    std::size_t next_replay = 0;
    std::vector<Bytes> revoked;
    for (std::size_t day = 0; day < num_days; ++day) {
      const util::Timestamp at =
          day0 + static_cast<util::Timestamp>(day) * util::kSecondsPerDay;
      while (next_replay < replay.size() &&
             replay[next_replay].first_seen <= at)
        revoked.push_back(replay[next_replay++].key);
      const cascade::PublishStats stats =
          publisher.Publish(shared_universe, revoked, at);
      snapshot_bytes_last = stats.snapshot_bytes;
      levels_last = stats.levels;
      delta_bytes_total += stats.delta_bytes;
      revoked_final = stats.revoked;
      std::printf("day %2zu: revoked %6zu (+%zu/-%zu)  levels %zu  "
                  "snapshot %s  delta %s\n",
                  day, stats.revoked, stats.added, stats.removed, stats.levels,
                  util::HumanBytes(static_cast<double>(stats.snapshot_bytes))
                      .c_str(),
                  util::HumanBytes(static_cast<double>(stats.delta_bytes))
                      .c_str());
      const cascade::Fleet::Totals before = fleet.totals();
      fleet.StepTo(at + util::kSecondsPerDay);
      const cascade::Fleet::Totals after = fleet.totals();
      const std::uint64_t day_polls = after.polls - before.polls;
      const std::uint64_t day_failed =
          after.failed_polls - before.failed_polls;
      slo.Record("poll_success", at, day_polls - day_failed, day_polls);
    }
  }

  const cascade::Fleet::Totals totals = fleet.totals();
  const cascade::Publisher::Counters served = publisher.counters();
  const util::Distribution& staleness = fleet.staleness();
  const util::Distribution& windows = fleet.vulnerability_windows();
  const util::Distribution end_staleness = fleet.EndStaleness();

  const double sim_days = static_cast<double>(num_days);
  const double bytes_per_client_day =
      static_cast<double>(totals.bytes_downloaded) /
      (static_cast<double>(num_clients) * sim_days);
  // The counterfactual a cascade-without-deltas publisher would pay: every
  // poll that moved a client forward ships the full snapshot.
  const double naive_bytes =
      static_cast<double>(totals.delta_updates + totals.snapshot_updates) *
      static_cast<double>(snapshot_bytes_last);
  const double delta_savings =
      totals.bytes_downloaded > 0
          ? naive_bytes / static_cast<double>(totals.bytes_downloaded)
          : 0;

  std::printf("\nfleet (%zu clients, %zu days, seed %" PRIu64 "):\n",
              num_clients, num_days, seed);
  std::printf("  polls %" PRIu64 " (failed %" PRIu64 ", retries %" PRIu64
              ", up-to-date %" PRIu64 ")\n",
              totals.polls, totals.failed_polls, totals.retries,
              totals.up_to_date_polls);
  std::printf("  updates: %" PRIu64 " delta, %" PRIu64 " snapshot "
              "(publisher served %" PRIu64 "/%" PRIu64 "/%" PRIu64
              " delta/snapshot/up-to-date)\n",
              totals.delta_updates, totals.snapshot_updates,
              served.delta_serves, served.snapshot_serves,
              served.up_to_date_serves);
  std::printf("  bandwidth: %s total, %s/client/day, %.2fx cheaper than "
              "snapshot-every-update\n",
              util::HumanBytes(static_cast<double>(totals.bytes_downloaded))
                  .c_str(),
              util::HumanBytes(bytes_per_client_day).c_str(), delta_savings);
  std::printf("  storm: %" PRIu64 " faults injected\n",
              storm.total_injected());
  std::printf("  ground truth: %" PRIu64 " lookups verified, %" PRIu64
              " wrong answers\n",
              totals.verified_lookups, totals.wrong_answers);
  std::printf("  staleness at poll: p50 %.2fh  p90 %.2fh  p99 %.2fh\n",
              staleness.Quantile(0.5) / 3600, staleness.Quantile(0.9) / 3600,
              staleness.Quantile(0.99) / 3600);
  std::printf("  staleness at end:  p50 %.2fh  p90 %.2fh  p99 %.2fh\n",
              end_staleness.Quantile(0.5) / 3600,
              end_staleness.Quantile(0.9) / 3600,
              end_staleness.Quantile(0.99) / 3600);
  std::printf("  vulnerability window: mean %.2fd  p50 %.2fd  p90 %.2fd\n",
              Days(windows.Mean()), Days(windows.Quantile(0.5)),
              Days(windows.Quantile(0.9)));

  // ---- CRLSet baseline: coverage-weighted effective window -------------
  double crlset_coverage = 0;
  std::size_t crlset_entries = 0, crlset_bytes = 0;
  std::size_t crlset_total_revocations = 0;
  double uncovered_window_days = 0;
  double crlset_effective_days = 0, cascade_effective_days = 0;
  {
    bench::BenchRun::Phase phase("cascade.crlset_baseline");
    core::CrlsetAuditor auditor(world.eco.get(),
                                bench::ScaledCrlsetConfig(scale));
    auditor.RunDaily(config.crawl_start, config.study_end);
    const core::CrlsetAuditor::CoverageStats coverage = auditor.ComputeCoverage(
        config.study_end, *world.pipeline, *world.crawler);
    crlset_entries = coverage.crlset_entries;
    crlset_total_revocations = coverage.total_revocations;
    crlset_bytes = auditor.latest().SerializedSize();
    crlset_coverage =
        coverage.total_revocations > 0
            ? static_cast<double>(coverage.crlset_entries) /
                  static_cast<double>(coverage.total_revocations)
            : 0;

    // A revocation missing from the client-side set stays exploitable
    // until the certificate expires: mean remaining lifetime at
    // revocation, over the replayed population.
    util::Distribution uncovered;
    for (const Replayed& r : replay) {
      uncovered.Add(static_cast<double>(
          std::max<util::Timestamp>(0, r.expiry - r.first_seen)));
    }
    uncovered_window_days = Days(uncovered.Mean());

    // Both channels ride the same update pipeline, so covered revocations
    // see the fleet's measured update lag; the channels differ in how much
    // of the revocation population is covered at all. The cascade covers
    // the full known universe by construction.
    const double update_lag_days = Days(windows.Mean());
    cascade_effective_days = update_lag_days;
    crlset_effective_days = crlset_coverage * update_lag_days +
                            (1 - crlset_coverage) * uncovered_window_days;
  }
  const double shrinkage =
      cascade_effective_days > 0 ? crlset_effective_days / cascade_effective_days
                                 : 0;

  std::printf("\ncrlset baseline:\n");
  std::printf("  covers %zu of %zu crawler revocations (%.1f%%), %s\n",
              crlset_entries, crlset_total_revocations, 100 * crlset_coverage,
              util::HumanBytes(static_cast<double>(crlset_bytes)).c_str());
  std::printf("  cascade covers %zu of %zu in-universe revocations (100%%), "
              "%s snapshot, %zu levels\n",
              revoked_final, revoked_final,
              util::HumanBytes(static_cast<double>(snapshot_bytes_last))
                  .c_str(),
              levels_last);
  std::printf("  effective vulnerability window: crlset %.1fd vs cascade "
              "%.2fd -> %.0fx shrinkage\n",
              crlset_effective_days, cascade_effective_days, shrinkage);

  const bool exact = totals.wrong_answers == 0 && totals.verified_lookups > 0;
  std::printf("\nexactness under storm: %s\n", exact ? "OK" : "FAILED");

  // ---- SLO burn-rate timeline + traced storm probe ---------------------
  std::uint64_t slo_alerts = 0, slo_storm_alerts = 0;
  for (const auto& alert : slo.AlertTimeline()) {
    ++slo_alerts;
    if (alert.window_start >= storm_day_start &&
        alert.window_start < storm_day_start + util::kSecondsPerDay)
      ++slo_storm_alerts;
  }
  const bool slo_ok = slo_storm_alerts > 0 && slo_alerts == slo_storm_alerts;
  std::printf("slo: %" PRIu64 " alert windows, %" PRIu64
              " in the storm day: %s\n",
              slo_alerts, slo_storm_alerts, slo_ok ? "OK" : "FAIL");

  // One distribution poll, traced end to end through the storm: the
  // stitched trace's critical path must tile the measured retry-ladder
  // latency (same 1% gate as bench_fleet's showcase trace).
  auto& collector = obs::DistTraceCollector::Global();
  collector.Clear();
  collector.Enable();
  bool probe_ok = false;
  std::uint64_t probe_attempts = 0;
  double probe_elapsed = 0;
  std::string probe_trace_hex;
  std::string probe_hops_json;
  {
    net::RetryPolicy probe_policy;
    probe_policy.max_attempts = 4;
    probe_policy.initial_backoff_seconds = 30;
    probe_policy.jitter = 0.5;
    probe_policy.seed = seed;
    for (std::uint64_t i = 0; i < 50 && !probe_ok; ++i) {
      collector.Clear();
      const util::Timestamp at_probe =
          storm_day_start + static_cast<util::Timestamp>(7 * i + 1);
      const obs::TraceId trace = obs::MakeTraceId(seed, 3'000 + i);
      const obs::SpanContext root{trace, obs::RootSpanId(trace)};
      net::HttpRequest request;
      request.method = "GET";
      request.host = "cascade.dist.sim";
      request.path = cascade::Publisher::kSnapshotPath;
      request.headers[obs::kTraceparentHeader] = obs::FormatTraceparent(root);
      const auto result =
          net::FetchWithRetry(dist_net, request, at_probe, probe_policy, 600.0);
      if (!result.ok() || result.attempts < 2) continue;
      obs::DistSpan root_span;
      root_span.trace = trace;
      root_span.span = root.span;
      root_span.parent = 0;
      root_span.name = "cascade.poll";
      root_span.node = "probe";
      root_span.kind = obs::SpanKind::kInternal;
      root_span.status = result.fetch.response.status;
      root_span.start_ns = obs::VirtualNs(at_probe, 0);
      root_span.end_ns = obs::VirtualNs(at_probe, result.total_elapsed_seconds);
      collector.Record(root_span);
      const auto spans = collector.SnapshotTrace(trace);
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
      probe_trace_hex = trace.Hex();
      for (const auto& segment : path) {
        char hop[256];
        std::snprintf(hop, sizeof hop,
                      "%s{\"name\": \"%s\", \"node\": \"%s\", "
                      "\"start_ns\": %" PRIu64 ", \"dur_ns\": %" PRIu64 "}",
                      probe_hops_json.empty() ? "" : ", ", segment.name,
                      segment.node, segment.start_ns, segment.dur_ns());
        probe_hops_json += hop;
      }
    }
  }
  collector.ExportFromEnv();
  collector.Disable();
  std::printf("traced probe: %s (attempts %" PRIu64 ", %.1fs, trace %s)\n",
              probe_ok ? "OK" : "FAIL", probe_attempts, probe_elapsed,
              probe_trace_hex.empty() ? "-" : probe_trace_hex.c_str());

  char buffer[2048];
  std::snprintf(
      buffer, sizeof buffer,
      "{\"scale\": %.4f, \"seed\": %" PRIu64 ", \"clients\": %zu, "
      "\"days\": %zu, \"universe\": %zu, \"revoked\": %zu, "
      "\"hidden_revocations\": %zu, "
      "\"publisher\": {\"levels\": %zu, \"snapshot_bytes\": %zu, "
      "\"delta_bytes_total\": %" PRIu64 "}, "
      "\"fleet\": {\"polls\": %" PRIu64 ", \"failed_polls\": %" PRIu64 ", "
      "\"retries\": %" PRIu64 ", \"delta_updates\": %" PRIu64 ", "
      "\"snapshot_updates\": %" PRIu64 ", \"up_to_date_polls\": %" PRIu64 ", "
      "\"bytes_downloaded\": %" PRIu64 ", \"bytes_per_client_day\": %.1f, "
      "\"snapshot_every_update_ratio\": %.3f, "
      "\"faults_injected\": %" PRIu64 ", "
      "\"verified_lookups\": %" PRIu64 ", \"wrong_answers\": %" PRIu64 "}, "
      "\"staleness_seconds\": {\"p50\": %.0f, \"p90\": %.0f, \"p99\": %.0f, "
      "\"mean\": %.0f, \"end_p50\": %.0f, \"end_p99\": %.0f}, "
      "\"vuln_window_days\": {\"mean\": %.3f, \"p50\": %.3f, \"p90\": %.3f}, "
      "\"crlset\": {\"entries\": %zu, \"total_revocations\": %zu, "
      "\"coverage\": %.4f, \"bytes\": %zu, "
      "\"uncovered_window_days\": %.1f, \"effective_window_days\": %.2f}, "
      "\"cascade_effective_window_days\": %.3f, "
      "\"window_shrinkage\": %.1f, \"exact\": %s",
      scale, seed, num_clients, num_days, shared_universe->size(),
      revoked_final, hidden_revocations, levels_last, snapshot_bytes_last,
      delta_bytes_total, totals.polls, totals.failed_polls, totals.retries,
      totals.delta_updates, totals.snapshot_updates, totals.up_to_date_polls,
      totals.bytes_downloaded, bytes_per_client_day, delta_savings,
      storm.total_injected(), totals.verified_lookups, totals.wrong_answers,
      staleness.Quantile(0.5), staleness.Quantile(0.9),
      staleness.Quantile(0.99), staleness.Mean(), end_staleness.Quantile(0.5),
      end_staleness.Quantile(0.99), Days(windows.Mean()),
      Days(windows.Quantile(0.5)), Days(windows.Quantile(0.9)),
      crlset_entries, crlset_total_revocations, crlset_coverage, crlset_bytes,
      uncovered_window_days, crlset_effective_days, cascade_effective_days,
      shrinkage, exact ? "true" : "false");
  std::string results = buffer;
  results += ", \"staleness_cdf_seconds\": " + CdfJson(staleness, 20);
  results += ", \"vuln_window_cdf_seconds\": " + CdfJson(windows, 20);
  std::snprintf(buffer, sizeof buffer,
                ", \"slo\": {\"alerts\": %" PRIu64
                ", \"storm_day_alerts\": %" PRIu64
                ", \"clean_phase_alerts\": %" PRIu64 ", \"timeline\": ",
                slo_alerts, slo_storm_alerts, slo_alerts - slo_storm_alerts);
  results += buffer;
  results += slo.TimelineJson();
  std::snprintf(buffer, sizeof buffer,
                "}, \"traced_probe\": {\"ok\": %s, \"trace\": \"%s\", "
                "\"attempts\": %" PRIu64 ", \"elapsed_seconds\": %.3f, "
                "\"critical_path\": [",
                probe_ok ? "true" : "false", probe_trace_hex.c_str(),
                probe_attempts, probe_elapsed);
  results += buffer;
  results += probe_hops_json;
  results += "]}}";
  run.SetResults(std::move(results));

  if (!slo_ok || !probe_ok)
    std::printf("observability gates: FAILED\n");
  return exact && slo_ok && probe_ok ? 0 : 1;
}

}  // namespace rev

int main() { return rev::Main(); }
