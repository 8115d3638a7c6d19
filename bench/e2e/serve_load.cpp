// Serve workloads: OCSP status served by serve::Frontend in front of four
// issuers' ocsp::Responders (50k serials, 8 % revoked), requests Zipf(1.0)
// over the serials plus 2 % never-issued ones, pre-encoded DER.
//
//   ocsp_read   a steady-state responder: closed loops with nproc clients
//               and one client, an open loop at 100k req/s timed from each
//               request's due time, and after each round two unloaded
//               probes of how long a revocation takes to become visible.
//   ocsp_churn  the same phases while one writer revokes 10 serials/s and
//               serves each until it reads revoked: writes beside reads on
//               the same index and cache.
//
// Every 64th response of every client is kept and, after its phase, parsed,
// signature-checked and compared with the status it must have had when the
// request started.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench.h"
#include "ocsp/ocsp.h"
#include "ocsp/responder.h"
#include "population.h"
#include "serve/frontend.h"
#include "spans.h"

namespace revbench {

namespace ocsp = rev::ocsp;
namespace serve = rev::serve;

namespace {

constexpr util::Timestamp kNow = ServePopulation::kNow;
constexpr double kOpenRate = 100'000;  // offered requests/s in the open loop
constexpr unsigned kGenerators = 2;    // paced generator threads
constexpr double kRevokeRate = 10;     // churn writer, revocations/s

// The system set up over one population: responders, the frontend in front
// of them and its pre-signed responses.
struct World {
  explicit World(const ServePopulation& p) : pop(p) {}
  const ServePopulation& pop;
  std::vector<std::unique_ptr<ocsp::Responder>> responders;
  // Declared after the responders it observes, so it is destroyed first.
  std::unique_ptr<serve::Frontend> frontend;
  double setup_s = 0, rebuild_s = 0;
  std::size_t signed_count = 0;
  // Per target: when a revocation of it started, and the end of the first
  // Serve that answered revoked (steady-clock ns; 0 = never).
  std::unique_ptr<std::atomic<std::int64_t>[]> revoke_start, visible;
};

// setup_s times the system's set-up alone: one responder per issuer loaded
// with its serials and initial revocations in target order, then the
// frontend and its RebuildAll.
std::unique_ptr<World> BuildWorld(const ServePopulation& pop) {
  auto world = std::make_unique<World>(pop);
  const std::size_t n = pop.targets.size();
  world->revoke_start = std::make_unique<std::atomic<std::int64_t>[]>(n);
  world->visible = std::make_unique<std::atomic<std::int64_t>[]>(n);
  const std::int64_t start = NowNs();
  for (std::size_t i = 0; i < pop.issuer_certs.size(); ++i)
    world->responders.push_back(
        std::make_unique<ocsp::Responder>(pop.issuer_certs[i], pop.issuer_keys[i]));
  for (std::size_t i = 0; i < pop.known; ++i) {
    const ServeTarget& t = pop.targets[i];
    world->responders[t.issuer]->AddCertificate(t.serial);
    if (t.status == ocsp::CertStatus::kRevoked)
      world->responders[t.issuer]->Revoke(t.serial, t.revoked_at, t.reason);
  }
  world->frontend = std::make_unique<serve::Frontend>();
  for (const auto& responder : world->responders)
    world->frontend->AttachResponder(responder.get());
  const std::int64_t rebuild = NowNs();
  world->signed_count = world->frontend->RebuildAll(kNow);
  world->rebuild_s = SecondsSince(rebuild);
  world->setup_s = SecondsSince(start);
  return world;
}

struct Sample {
  std::uint32_t target;
  std::int64_t start_ns;
  std::shared_ptr<const rev::Bytes> body;
};

struct Tally {
  std::uint64_t ops = 0, failed = 0, hits = 0;
  std::vector<Sample> samples;
  std::vector<std::uint32_t> latency_ns, late_ns;  // open loop only

  void Merge(Tally&& other) {
    ops += other.ops;
    failed += other.failed;
    hits += other.hits;
    samples.insert(samples.end(), std::make_move_iterator(other.samples.begin()),
                   std::make_move_iterator(other.samples.end()));
    latency_ns.insert(latency_ns.end(), other.latency_ns.begin(),
                      other.latency_ns.end());
    late_ns.insert(late_ns.end(), other.late_ns.begin(), other.late_ns.end());
  }
};

void ServeOne(World& world, std::uint32_t target, std::int64_t start_ns,
              Tally& tally) {
  const bool keep = (tally.ops & 63) == 0;
  serve::Frontend::ServeResult result =
      world.frontend->Serve(world.pop.requests[target], kNow);
  ++tally.ops;
  if (result.http_status != 200 || !result.body) {
    ++tally.failed;
    return;
  }
  tally.hits += result.cache_hit ? 1 : 0;
  if (keep) tally.samples.push_back({target, start_ns, std::move(result.body)});
}

// Closed loop: `clients` threads each send their next request as soon as
// the previous one returns, walking the request sequence from spread-out
// offsets.
Tally ClosedLoop(World& world, unsigned clients, double seconds,
                 std::size_t offset, const trace::Site& site, double* wall_s) {
  const std::vector<std::uint32_t>& seq = world.pop.sequence;
  const std::size_t mask = seq.size() - 1;
  std::atomic<bool> go{false}, stop{false};
  std::vector<Tally> tallies(clients);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Tally& tally = tallies[c];
      std::size_t pos = offset + c * (seq.size() / clients);
      while (!go.load(std::memory_order_acquire)) {
      }
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint32_t target = seq[pos++ & mask];
        trace::Span span(site, target);
        ServeOne(world, target, (tally.ops & 63) == 0 ? NowNs() : 0, tally);
      }
    });
  }
  const std::int64_t start = NowNs();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  *wall_s = SecondsSince(start);
  Tally total;
  for (Tally& t : tallies) total.Merge(std::move(t));
  return total;
}

// Open loop: kGenerators paced threads offer `rate` requests/s in total on
// a fixed schedule. Latency runs from each request's due time, so a stall
// also charges the requests queued behind it; late_ns is how late the
// generator sent. `wall_s` runs from the first due time to the last answer,
// so ops / wall_s falls below `rate` when the generators fall behind.
Tally OpenLoop(World& world, double rate, double seconds, std::size_t offset,
               const trace::Site& site, double* wall_s) {
  const std::vector<std::uint32_t>& seq = world.pop.sequence;
  const std::size_t mask = seq.size() - 1;
  const double interval_ns = 1e9 / rate;
  const std::int64_t start = NowNs() + 1'000'000;
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<Tally> tallies(kGenerators);
  std::vector<std::thread> threads;
  for (unsigned g = 0; g < kGenerators; ++g) {
    threads.emplace_back([&, g] {
      Tally& tally = tallies[g];
      tally.latency_ns.reserve(static_cast<std::size_t>(seconds * rate / kGenerators) + 16);
      tally.late_ns.reserve(tally.latency_ns.capacity());
      std::size_t pos = offset + g * (seq.size() / kGenerators);
      for (std::uint64_t k = g;; k += kGenerators) {
        const std::int64_t due =
            start + static_cast<std::int64_t>(static_cast<double>(k) * interval_ns);
        if (due >= end) break;
        std::int64_t now = NowNs();
        while (now < due) now = NowNs();
        tally.late_ns.push_back(static_cast<std::uint32_t>(
            std::min<std::int64_t>(now - due, 0xFFFF'FFFF)));
        const std::uint32_t target = seq[pos++ & mask];
        {
          trace::Span span(site, target);
          ServeOne(world, target, now, tally);
        }
        tally.latency_ns.push_back(static_cast<std::uint32_t>(
            std::min<std::int64_t>(NowNs() - due, 0xFFFF'FFFF)));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  *wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  Tally total;
  for (Tally& t : tallies) total.Merge(std::move(t));
  return total;
}

struct Revocation {
  double call_us = 0, visible_us = 0;
  int phase = 0;
};

// Revokes one good target and serves it until the answer reads revoked.
bool RevokeAndWait(World& world, std::uint32_t target, Tally& tally,
                   Revocation* out) {
  static const trace::Site kRevoke("ocsp.revoke"), kVisible("serve.until_revoked");
  const ServeTarget& t = world.pop.targets[target];
  const std::int64_t start = NowNs();
  world.revoke_start[target].store(start);
  {
    trace::Span span(kRevoke, target);
    world.responders[t.issuer]->Revoke(t.serial, kNow - 60,
                                       rev::x509::ReasonCode::kKeyCompromise);
  }
  out->call_us = static_cast<double>(NowNs() - start) * 1e-3;
  trace::Span span(kVisible, target);
  for (int attempt = 0; attempt < 1'000'000; ++attempt) {
    serve::Frontend::ServeResult result =
        world.frontend->Serve(world.pop.requests[target], kNow);
    const std::int64_t served = NowNs();
    ++tally.ops;
    if (result.http_status != 200 || !result.body) {
      ++tally.failed;
      continue;
    }
    const auto response = ocsp::ParseOcspResponse(*result.body);
    if (response && response->status == ocsp::ResponseStatus::kSuccessful &&
        response->single.status == ocsp::CertStatus::kRevoked) {
      world.visible[target].store(served);
      out->visible_us = static_cast<double>(served - start) * 1e-3;
      return true;
    }
  }
  return false;
}

// Parses every kept response and compares it with the status its target
// had when the request started.
void CheckSamples(World& world, std::vector<Sample>& samples, Report& report) {
  std::size_t wrong = 0;
  for (const Sample& s : samples) {
    const ServeTarget& t = world.pop.targets[s.target];
    const auto response = ocsp::ParseOcspResponse(*s.body);
    bool ok = response && response->status == ocsp::ResponseStatus::kSuccessful &&
              response->single.cert_id.serial == t.serial &&
              ocsp::VerifyOcspSignature(*response,
                                        world.pop.issuer_certs[t.issuer].tbs.public_key);
    if (ok) {
      const ocsp::CertStatus status = response->single.status;
      const std::int64_t revoked = world.revoke_start[s.target].load();
      const std::int64_t visible = world.visible[s.target].load();
      if (revoked == 0) {
        ok = status == t.status;
      } else if (visible != 0 && s.start_ns > visible) {
        ok = status == ocsp::CertStatus::kRevoked;  // never good again
      } else {
        ok = status == t.status || status == ocsp::CertStatus::kRevoked;
      }
    }
    wrong += ok ? 0 : 1;
  }
  report.Failed(wrong);
  report.Check(wrong == 0, std::to_string(wrong) + " of " +
                               std::to_string(samples.size()) +
                               " checked responses carry a wrong status");
  samples.clear();
}

struct Phases {
  std::vector<double> qps_nc, qps_1c, per_op_nc_ns, p50_us, p99_us;
  std::vector<double> achieved, late_frac, late_p99_us;
  std::uint64_t ops = 0, hits = 0, failed = 0;
};

}  // namespace

void RunServe(const Options& options, Report& report) {
  const bool churn = options.workload == "ocsp_churn";
  ServeConfig config;
  config.seed = options.seed;
  if (options.smoke) {
    config.serials_per_issuer = 500;
    config.sequence_length = std::size_t{1} << 14;
  }

  // Set-up: generate the population once, then set the system up over it
  // kSetupReps times; the last world serves the run.
  std::vector<double> generate_s, setup_s, rebuild_s, sign_ns;
  const std::int64_t generate_start = NowNs();
  const ServePopulation pop = GenerateServe(config);
  generate_s.push_back(SecondsSince(generate_start));
  std::unique_ptr<World> world;
  double heap_before_world = 0, state_mb = 0;
  for (int i = 0; i < kSetupReps; ++i) {
    world.reset();
    heap_before_world = HeapMb();
    world = BuildWorld(pop);
    state_mb = HeapMb() - heap_before_world;
    setup_s.push_back(world->setup_s);
    rebuild_s.push_back(world->rebuild_s);
    sign_ns.push_back(world->rebuild_s * 1e9 /
                      static_cast<double>(std::max<std::size_t>(1, world->signed_count)));
    report.Check(world->signed_count > 0, "RebuildAll signed nothing");
  }
  World& w = *world;
  std::fprintf(stderr,
               "[serve] %s: %zu targets, %zu issuers, %zu signed, setup %.3f s\n",
               options.workload.c_str(), w.pop.targets.size(), w.responders.size(),
               w.signed_count, setup_s.back());

  const unsigned readers = churn ? std::max(1u, options.threads - 1) : options.threads;
  const double warm = options.smoke ? 0.05 : std::min(0.5, 0.05 * options.seconds);
  // The host's speed drifts within seconds, so a run is many short rounds,
  // each a slice of every phase, and each metric is the median over rounds.
  // A traced run spends half its rounds untraced and half traced.
  // Smoke rounds still leave the churn writer time for two revocations.
  const double round_s = options.smoke ? 0.1 : 0.5;
  const int reps = options.smoke ? 2
                                 : std::max(3, static_cast<int>((options.seconds - warm) /
                                                                round_s /
                                                                (options.trace ? 2 : 1)));
  // ocsp_read: unloaded revocations after each round's slices.
  const int probes = churn ? 0 : 2;

  std::atomic<int> phase{0};  // tags churn revocations: 3 = open loop
  Tally writer_tally;
  std::vector<Revocation> revocations;
  std::size_t revoke_next = 0;
  std::size_t writer_errors = 0;
  // Declared after everything it uses; joins on every exit path.
  std::jthread writer;
  if (churn) {
    writer = std::jthread([&](std::stop_token stop) {
      const auto period = std::chrono::nanoseconds(static_cast<std::int64_t>(1e9 / kRevokeRate));
      auto next = std::chrono::steady_clock::now();
      while (true) {
        next += period;
        std::this_thread::sleep_until(next);
        if (stop.stop_requested() || revoke_next >= w.pop.revoke_order.size()) break;
        Revocation r;
        r.phase = phase.load();
        if (RevokeAndWait(w, w.pop.revoke_order[revoke_next++], writer_tally, &r))
          revocations.push_back(r);
        else
          ++writer_errors;
      }
    });
  }

  static const trace::Site kNc("serve.request.nc"), k1c("serve.request.1c"),
      kOpen("serve.request.open"), kWarm("serve.request.warm");
  std::vector<double> visible_ms, call_us;
  auto run_phases = [&](Phases& out, bool spans) {
    trace::Enable(spans);
    for (int rep = 0; rep < reps; ++rep) {
      const std::size_t offset = static_cast<std::size_t>(rep) * 7919 + (spans ? 104'729 : 0);
      double wall = 0;
      phase.store(1);
      Tally nc = ClosedLoop(w, readers, 0.3 * round_s, offset, kNc, &wall);
      out.qps_nc.push_back(static_cast<double>(nc.ops) / wall);
      out.per_op_nc_ns.push_back(wall * 1e9 * readers / static_cast<double>(nc.ops));
      phase.store(2);
      Tally one = ClosedLoop(w, 1, 0.2 * round_s, offset, k1c, &wall);
      out.qps_1c.push_back(static_cast<double>(one.ops) / wall);
      phase.store(3);
      Tally open = OpenLoop(w, kOpenRate, 0.5 * round_s, offset, kOpen, &wall);
      phase.store(0);
      out.achieved.push_back(static_cast<double>(open.ops) / wall);
      for (int i = 0; i < probes; ++i) {
        Revocation r;
        if (RevokeAndWait(w, w.pop.revoke_order[revoke_next++], writer_tally, &r)) {
          visible_ms.push_back(r.visible_us * 1e-3);
          call_us.push_back(r.call_us);
        } else {
          ++writer_errors;
        }
      }
      out.p50_us.push_back(Quantile(open.latency_ns, 0.50) * 1e-3);
      out.p99_us.push_back(Quantile(open.latency_ns, 0.99) * 1e-3);
      std::size_t late = 0;
      for (const std::uint32_t ns : open.late_ns) late += ns > 10'000 ? 1 : 0;
      out.late_frac.push_back(static_cast<double>(late) /
                              static_cast<double>(std::max<std::size_t>(1, open.late_ns.size())));
      out.late_p99_us.push_back(Quantile(open.late_ns, 0.99) * 1e-3);
      for (Tally* t : {&nc, &one, &open}) {
        out.ops += t->ops;
        out.hits += t->hits;
        out.failed += t->failed;
        report.Attempted(t->ops);
        report.Failed(t->failed);
        CheckSamples(w, t->samples, report);
      }
    }
    trace::Enable(false);
  };

  {
    double wall = 0;
    Tally warmup = ClosedLoop(w, readers, warm, 0, kWarm, &wall);
    report.Attempted(warmup.ops);
    report.Failed(warmup.failed);
    CheckSamples(w, warmup.samples, report);
  }
  Phases untraced, traced;
  run_phases(untraced, false);
  if (options.trace) run_phases(traced, true);

  if (churn) {
    writer.request_stop();
    writer.join();
    for (const Revocation& r : revocations) {
      call_us.push_back(r.call_us);
      if (r.phase == 3 || options.smoke) visible_ms.push_back(r.visible_us * 1e-3);
    }
  }
  report.Attempted(writer_tally.ops + revoke_next);
  report.Failed(writer_tally.failed);
  report.Check(writer_errors == 0,
               std::to_string(writer_errors) + " revocations never became visible");
  report.Check(!visible_ms.empty(), "no revocation measured");
  {
    // Responses served after the churn ended, for the never-good-again rule.
    double wall = 0;
    Tally after = ClosedLoop(w, readers, options.smoke ? 0.02 : 0.1, 0, kWarm, &wall);
    report.Attempted(after.ops);
    report.Failed(after.failed);
    CheckSamples(w, after.samples, report);
  }

  report.EndToEnd("setup_s", "s", setup_s);
  report.EndToEnd("ops_per_s", "1/s", untraced.qps_nc);
  report.EndToEnd("ops_per_s_1t", "1/s", untraced.qps_1c);
  report.EndToEnd("op_p50_us", "us", untraced.p50_us);
  report.EndToEnd("visible_ms", "ms", visible_ms);
  // Responders, frontend, cached responses and the revocations since set-up.
  report.EndToEnd("heap_mb", "MB", {HeapMb() - heap_before_world});
  // Too noisy on a shared host to gate on: a per-layer metric, shown in
  // every table.
  report.PerLayer("op_p99_us", "us", untraced.p99_us);

  const double ok_ops = static_cast<double>(untraced.ops - untraced.failed);
  report.Extra("peak_rss_mb", "MB", {PeakRssMb()});
  report.Extra("setup.generate_s", "s", generate_s);
  report.Extra("serve.rebuild_all_s", "s", rebuild_s);
  report.Extra("serve.revoke_call_us", "us", call_us);
  report.Extra("serve.hit_rate", "share", {static_cast<double>(untraced.hits) / ok_ops});
  report.Extra("serve.shed_frac", "share",
               {static_cast<double>(untraced.failed) / static_cast<double>(untraced.ops)});
  report.Extra("serve.open_achieved_per_s", "1/s", untraced.achieved);
  report.Extra("gen.late_frac", "share", untraced.late_frac);
  report.Extra("gen.late_us.p99", "us", untraced.late_p99_us);
  report.Extra("serve.revocations", "count", {static_cast<double>(revoke_next)});

  if (!options.trace) return;

  // --- traced run: per-layer metrics -----------------------------------------
  static const trace::Site kParse("replay.ocsp.parse_request"),
      kStaple("replay.serve.staple");
  std::vector<double> decode, lookup;
  std::size_t misses = 0;
  const std::size_t staples = std::min<std::size_t>(w.pop.sequence.size(), 200'000);
  trace::Enable(true);
  for (int pass = 0; pass < 3; ++pass) {
    {
      trace::Span span(kParse);
      const std::int64_t t0 = NowNs();
      for (const rev::Bytes& request : w.pop.requests) {
        ocsp::OcspRequestView view;
        misses += ocsp::ParseSingleCertRequestView(request, &view) ? 0 : 1;
      }
      decode.push_back(static_cast<double>(NowNs() - t0) /
                       static_cast<double>(w.pop.requests.size()));
    }
    {
      trace::Span span(kStaple);
      const std::int64_t t0 = NowNs();
      for (std::size_t i = 0; i < staples; ++i) {
        const ServeTarget& t = w.pop.targets[w.pop.sequence[i]];
        misses += w.frontend->Staple(w.responders[t.issuer]->issuer_key_hash(),
                                     t.serial, kNow)
                      ? 0
                      : 1;
      }
      lookup.push_back(static_cast<double>(NowNs() - t0) / static_cast<double>(staples));
    }
  }
  trace::Enable(false);
  report.Check(misses == 0, "layer replay failed");

  const std::vector<trace::NameStats> names = trace::Collect();
  report.PerLayer("front_ns", "ns", {trace::Find(names, "serve.request.1c").mean_ns()});
  report.PerLayer("parallel_ns", "ns", untraced.per_op_nc_ns);
  report.PerLayer("decode_ns", "ns", decode);
  report.PerLayer("crypto_ns", "ns", sign_ns);
  report.PerLayer("lookup_ns", "ns", lookup);
  report.PerLayer("batch_s", "s", rebuild_s);
  report.PerLayer("reuse_share", "share", {static_cast<double>(untraced.hits) / ok_ops});
  report.PerLayer("state_mb", "MB", {state_mb});
  report.PerLayer("trace_overhead", "ratio",
                  {Median(untraced.qps_1c) / Median(traced.qps_1c)});

  std::printf("per-layer spans (traced reps %d, untraced reps %d):\n", reps, reps);
  std::printf("  %-34s %10s %12s %12s %10s %10s\n", "span", "count", "total_ms",
              "self_ms", "mean_ns", "p50_ns");
  for (const trace::NameStats& s : names)
    std::printf("  %-34s %10llu %12.3f %12.3f %10.1f %10.0f\n", s.name.c_str(),
                static_cast<unsigned long long>(s.count), s.total_ns * 1e-6,
                s.self_ns * 1e-6, s.mean_ns(), s.p50_ns);
  if (!options.spans_path.empty())
    report.Check(trace::WriteChromeTrace(options.spans_path),
                 "cannot write " + options.spans_path);
}

}  // namespace revbench
