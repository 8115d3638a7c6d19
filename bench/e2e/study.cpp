// Study workloads: the paper's measurement pipeline, from a DER scan archive
// to the headline analyses and the revocation filter clients download.
//
//   corpus_load  a deduplicated dump: every leaf observed once, in the scan
//                of its birth (leaf re-sighting share 0). Arena append,
//                interning, index insert and leaf verification dominate.
//   scan_weekly  six weekly rescans around the Heartbleed disclosure with
//                90 % of the certificates already live at the first scan:
//                most observations re-see a known chain, which is where a
//                dedup fast path in ObserveDer would show.
//
// One rep, on a fresh Pipeline: BeginScan/ObserveDer/EndScan over every
// scan -> Finalize -> cascade keys + FilterCascade::Build over the Leaf Set
// -> DatasetStats, the Fig. 1/2 timeline, Fig. 4 adoption and Table 1.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench.h"
#include "cascade/cascade.h"
#include "core/ca_audit.h"
#include "core/ecosystem.h"
#include "core/pipeline.h"
#include "core/timeline.h"
#include "crypto/sha256.h"
#include "population.h"
#include "spans.h"
#include "util/hex.h"
#include "x509/view.h"

namespace revbench {

namespace core = rev::core;

namespace {

struct Shape {
  StudyConfig config;
  util::Timestamp timeline_start = 0, timeline_end = 0;
  std::int64_t timeline_step = 0;
};

Shape ShapeFor(const Options& options) {
  Shape shape;
  StudyConfig& config = shape.config;
  config.seed = options.seed;
  config.threads = options.threads;
  core::EcosystemConfig dates;
  dates.ApplyDefaults();
  if (options.workload == "corpus_load") {
    config.unique_leaves = options.smoke ? 3'000 : 200'000;
    const std::int64_t step = (dates.study_end - dates.study_start) / 5;
    for (int s = 0; s < 6; ++s) config.scan_times.push_back(dates.study_start + s * step);
    config.backlog_fraction = 0.55;
    config.observe_once = true;
    shape.timeline_start = dates.study_start;
    shape.timeline_end = dates.study_end;
    shape.timeline_step = 14 * util::kSecondsPerDay;
  } else {
    config.unique_leaves = options.smoke ? 2'000 : 60'000;
    const util::Timestamp first = util::MakeDate(2014, 3, 17);
    for (int s = 0; s < 6; ++s)
      config.scan_times.push_back(first + s * 7 * util::kSecondsPerDay);
    config.backlog_fraction = 0.90;
    config.observe_once = false;
    shape.timeline_start = first;
    shape.timeline_end = config.scan_times.back();
    shape.timeline_step = util::kSecondsPerDay;
  }
  return shape;
}

// Everything one rep measures.
struct Rep {
  double study_s = 0, ingest_s = 0, visible_s = 0;
  double finalize_s = 0, verify_s = 0, intermediates_s = 0;
  double keys_s = 0, build_s = 0;
  double analysis_s[4] = {0, 0, 0, 0};
  double op_p50_us = 0, op_p99_us = 0;
  double heap_mb = 0;  // heap the finished study holds, beyond its inputs
  std::uint64_t observed = 0, rejected = 0;
  std::size_t rows = 0, leaf_set = 0, filter_bytes = 0, levels = 0;
  double arena_mb = 0, column_mb = 0, index_mb = 0, interner_mb = 0;
  std::string digest;
};

constexpr const char* kAnalysisNames[4] = {"dataset_stats", "timeline",
                                           "adoption", "table1"};

// The output digest of the default seed at full size. A run of seed 1 that
// is not a smoke run must reproduce it; a change to the system that alters
// any study output shows here first.
constexpr std::uint64_t kDefaultSeed = 1;
struct RecordedDigest {
  const char* workload;
  const char* sha256;
};
constexpr RecordedDigest kDefaultSeedDigests[] = {
    {"corpus_load", "637b35148222cc338849c0002a9ac365f057a92ec6e6baa251559a78d3214110"},
    {"scan_weekly", "fcd44af131be2a7c019f2ee2d0476ce051c63904065aa34428e2b86734abf6f5"},
};

std::string RecordedDigestFor(const Options& options) {
  if (options.seed != kDefaultSeed || options.smoke) return {};
  for (const RecordedDigest& d : kDefaultSeedDigests)
    if (options.workload == d.workload) return d.sha256;
  return {};
}

void HashU64(rev::crypto::Sha256& h, std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  h.Update(BytesView(b, 8));
}

void HashString(rev::crypto::Sha256& h, const std::string& s) {
  HashU64(h, s.size());
  h.Update(BytesView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

// Runs one timed rep and then, untimed, checks its outputs. The pipeline
// is handed back through `keep` when non-null (for the layer replays).
Rep RunRep(const StudyArchive& archive, const Shape& shape, const Options& options,
           std::vector<std::uint32_t>& op_ns, Report& report,
           std::unique_ptr<core::Pipeline>* keep) {
  static const trace::Site kRep("study.rep"), kScan("core.scan"),
      kObserve("core.observe_der"), kFinalize("core.finalize"),
      kKeys("cascade.keys"), kBuild("cascade.build"),
      kStats("core.analysis.dataset_stats"), kTimeline("core.analysis.timeline"),
      kAdoption("core.analysis.adoption"), kTable1("core.analysis.table1");
  Rep rep;
  op_ns.clear();
  const double heap_before = HeapMb();
  auto pipeline = std::make_unique<core::Pipeline>(archive.roots, options.threads);
  std::vector<rev::Bytes> revoked, not_revoked;
  rev::cascade::FilterCascade cascade;
  core::DatasetStats stats;
  std::vector<core::RevocationTimelinePoint> timeline;
  std::vector<core::AdoptionPoint> adoption;
  std::vector<core::CaStatsRow> table1;
  const core::CaNameResolver resolver = [&archive](const std::string& url) {
    auto it = archive.url_to_ca_name.find(url);
    return it == archive.url_to_ca_name.end() ? std::string() : it->second;
  };

  const std::int64_t start = NowNs();
  {
    trace::Span rep_span(kRep);
    for (std::size_t s = 0; s < archive.scans.size(); ++s) {
      trace::Span scan_span(kScan, s);
      pipeline->BeginScan(archive.scan_times[s]);
      for (const std::uint32_t leaf : archive.scans[s]) {
        const BytesView chain[2] = {archive.leaf(leaf),
                                    archive.issuer_der[archive.leaf_issuer[leaf]]};
        const std::int64_t t0 = NowNs();
        bool ok = false;
        {
          trace::Span span(kObserve, leaf);
          ok = pipeline->ObserveDer(chain).has_value();
        }
        op_ns.push_back(static_cast<std::uint32_t>(NowNs() - t0));
        rep.rejected += ok ? 0 : 1;
      }
      pipeline->EndScan();
    }
    const std::int64_t ingested = NowNs();
    rep.ingest_s = static_cast<double>(ingested - start) * 1e-9;
    {
      trace::Span span(kFinalize);
      pipeline->Finalize();
    }
    const core::CertCorpus& corpus = pipeline->corpus();
    {
      trace::Span span(kKeys);
      const std::int64_t t0 = NowNs();
      for (const core::CertCorpus::Row row : pipeline->LeafSet()) {
        const BytesView issuer = corpus.name_der(corpus.issuer_id(row));
        const BytesView serial = corpus.serial(row);
        (archive.db.Lookup(issuer, serial) ? revoked : not_revoked)
            .push_back(rev::cascade::CertKey(issuer, serial));
      }
      rep.keys_s = SecondsSince(t0);
    }
    {
      trace::Span span(kBuild);
      const std::int64_t t0 = NowNs();
      rev::cascade::CascadeOptions cascade_options;
      cascade_options.threads = options.threads;
      cascade = rev::cascade::FilterCascade::Build(revoked, not_revoked,
                                                    cascade_options);
      rep.build_s = SecondsSince(t0);
    }
    rep.visible_s = SecondsSince(ingested);
    std::int64_t t0 = NowNs();
    {
      trace::Span span(kStats);
      stats = core::ComputeDatasetStats(*pipeline);
    }
    rep.analysis_s[0] = SecondsSince(t0);
    t0 = NowNs();
    {
      trace::Span span(kTimeline);
      timeline = core::ComputeRevocationTimeline(
          *pipeline, archive.db, shape.timeline_start, shape.timeline_end,
          shape.timeline_step);
    }
    rep.analysis_s[1] = SecondsSince(t0);
    t0 = NowNs();
    {
      trace::Span span(kAdoption);
      adoption = core::ComputeRevinfoAdoption(*pipeline);
    }
    rep.analysis_s[2] = SecondsSince(t0);
    t0 = NowNs();
    {
      trace::Span span(kTable1);
      table1 = core::ComputeTable1(archive.crl_samples, *pipeline, archive.db,
                                   resolver);
    }
    rep.analysis_s[3] = SecondsSince(t0);
  }
  rep.study_s = SecondsSince(start);
  rep.heap_mb = HeapMb() - heap_before;

  // --- untimed: layer facts and correctness checks -------------------------
  const core::CertCorpus& corpus = pipeline->corpus();
  rep.observed = op_ns.size();
  rep.finalize_s = pipeline->finalize_wall_seconds();
  rep.verify_s = pipeline->verify_wall_seconds();
  rep.intermediates_s = pipeline->intermediate_wall_seconds();
  {
    std::vector<std::uint32_t> v = op_ns;
    rep.op_p50_us = Quantile(v, 0.50) * 1e-3;
    rep.op_p99_us = Quantile(v, 0.99) * 1e-3;
  }
  rep.rows = corpus.size();
  rep.arena_mb = static_cast<double>(corpus.arena_bytes()) / (1 << 20);
  rep.column_mb = static_cast<double>(corpus.column_bytes()) / (1 << 20);
  rep.index_mb = static_cast<double>(corpus.index_bytes()) / (1 << 20);
  rep.interner_mb = static_cast<double>(corpus.interner_bytes()) / (1 << 20);
  rep.filter_bytes = cascade.FilterBytes();
  rep.levels = cascade.NumLevels();

  report.Failed(rep.rejected);
  report.Check(rep.rejected == 0,
               std::to_string(rep.rejected) + " chains rejected by ObserveDer");
  const std::vector<core::CertCorpus::Row> leaf_set = pipeline->LeafSet();
  rep.leaf_set = leaf_set.size();
  report.Check(leaf_set.size() == archive.valid_leaves,
               "Leaf Set has " + std::to_string(leaf_set.size()) +
                   " certificates, the generator issued " +
                   std::to_string(archive.valid_leaves) + " valid leaves");
  report.Check(corpus.CheckInvariants(), "CertCorpus::CheckInvariants failed");
  std::size_t cascade_wrong = 0;
  for (const rev::Bytes& key : revoked) cascade_wrong += cascade.IsRevoked(key) ? 0 : 1;
  for (const rev::Bytes& key : not_revoked) cascade_wrong += cascade.IsRevoked(key) ? 1 : 0;
  report.Check(cascade_wrong == 0,
               std::to_string(cascade_wrong) +
                   " Leaf Set keys where FilterCascade::IsRevoked disagrees with "
                   "the revocation db");
  report.Check(revoked.size() + not_revoked.size() == leaf_set.size(),
               "cascade universe differs from the Leaf Set");

  rev::crypto::Sha256 h;
  for (const core::CertCorpus::Row row : leaf_set) h.Update(corpus.fingerprint(row));
  for (const std::size_t v :
       {stats.unique_certs, stats.leaf_set, stats.intermediate_set,
        stats.leaf_still_advertised, stats.leaf_with_crl, stats.leaf_with_ocsp,
        stats.leaf_unrevocable, stats.intermediate_with_crl,
        stats.intermediate_with_ocsp, stats.intermediate_unrevocable})
    HashU64(h, v);
  for (const core::RevocationTimelinePoint& p : timeline)
    for (const std::uint64_t v :
         {static_cast<std::uint64_t>(p.time), std::uint64_t{p.fresh},
          std::uint64_t{p.fresh_revoked}, std::uint64_t{p.fresh_ev},
          std::uint64_t{p.fresh_ev_revoked}, std::uint64_t{p.alive},
          std::uint64_t{p.alive_revoked}, std::uint64_t{p.alive_ev},
          std::uint64_t{p.alive_ev_revoked}})
      HashU64(h, v);
  for (const core::AdoptionPoint& p : adoption)
    for (const std::uint64_t v :
         {static_cast<std::uint64_t>(p.month_start), std::uint64_t{p.issued},
          std::uint64_t{p.with_crl}, std::uint64_t{p.with_ocsp}})
      HashU64(h, v);
  char avg[64];
  for (const core::CaStatsRow& row : table1) {
    HashString(h, row.name);
    std::snprintf(avg, sizeof(avg), "%zu %zu %zu %.6f", row.num_crls,
                  row.total_certs, row.revoked_certs, row.avg_crl_size_kb);
    HashString(h, avg);
  }
  h.Update(cascade.Serialize());
  const rev::crypto::Sha256Digest digest = h.Finish();
  rep.digest = rev::util::HexEncode(BytesView(digest.data(), digest.size()));

  if (keep != nullptr) *keep = std::move(pipeline);
  return rep;
}

template <typename F>
std::vector<double> Over(const std::vector<Rep>& reps, F f) {
  std::vector<double> out;
  for (const Rep& rep : reps) out.push_back(f(rep));
  return out;
}

// Mean ns per call of `fn` over `n` items, timed as one loop.
template <typename F>
double ReplayNs(std::size_t n, F fn) {
  const std::int64_t t0 = NowNs();
  for (std::size_t i = 0; i < n; ++i) fn(i);
  return static_cast<double>(NowNs() - t0) / static_cast<double>(std::max<std::size_t>(1, n));
}

}  // namespace

void RunStudy(const Options& options, Report& report) {
  const Shape shape = ShapeFor(options);

  // Set-up: generate the archive kSetupReps times. setup_s is the median
  // time spent in the system's own code (signing, CA creation, RevocationDb
  // inserts); equal fingerprints show the generator is a pure function of
  // the seed.
  std::vector<double> setup_s, generate_s;
  StudyArchive archive;
  std::uint64_t fingerprint = 0;
  for (int i = 0; i < kSetupReps; ++i) {
    archive = StudyArchive{};  // never two archives in memory at once
    const std::int64_t t0 = NowNs();
    archive = GenerateStudy(shape.config);
    generate_s.push_back(SecondsSince(t0));
    setup_s.push_back(archive.system_s);
    const std::uint64_t fp = archive.Fingerprint();
    report.Check(i == 0 || fp == fingerprint,
                 "archive generation is not deterministic for one seed");
    fingerprint = fp;
  }
  const std::size_t observations = archive.observations();
  std::fprintf(stderr,
               "[study] %s: %zu unique leaves (%zu valid), %zu observations over "
               "%zu scans, %.1f MB archive, generated in %.3f s\n",
               options.workload.c_str(), archive.num_leaves(), archive.valid_leaves,
               observations, archive.scans.size(),
               static_cast<double>(archive.bytes()) / (1 << 20), generate_s.back());

  // Reps until the measured time is spent: at least three, or two per side
  // in a traced run, whose even reps run untraced for the overhead ratio.
  std::vector<std::uint32_t> op_ns;
  op_ns.reserve(observations);
  std::vector<Rep> untraced, traced;
  std::unique_ptr<core::Pipeline> last;
  const int min_reps = options.smoke ? 2 : options.trace ? 4 : 3;
  const std::int64_t measure_start = NowNs();
  std::string digest;
  for (int i = 0;; ++i) {
    const bool spans = options.trace && i % 2 == 1;
    trace::Enable(spans);
    // The layer replays need a Pipeline: keep the last traced one.
    Rep rep = RunRep(archive, shape, options, op_ns, report, spans ? &last : nullptr);
    trace::Enable(false);
    report.Attempted(rep.observed);
    if (digest.empty()) digest = rep.digest;
    report.Check(rep.digest == digest, "output digest differs between reps");
    (spans ? traced : untraced).push_back(std::move(rep));
    const bool done = i + 1 >= min_reps &&
                      (options.smoke || i + 1 >= 50 ||
                       SecondsSince(measure_start) >= options.seconds);
    if (done && (!options.trace || spans)) break;
  }
  std::printf("digest %s\n", digest.c_str());
  const std::string recorded = RecordedDigestFor(options);
  report.Check(recorded.empty() || digest == recorded,
               "output digest " + digest + " differs from the recorded " + recorded);

  const double obs = static_cast<double>(observations);
  const std::vector<Rep>& e2e = untraced;
  report.EndToEnd("setup_s", "s", setup_s);
  report.EndToEnd("ops_per_s", "1/s", Over(e2e, [&](const Rep& r) { return obs / r.study_s; }),
                  Pick::kMax);
  report.EndToEnd("ops_per_s_1t", "1/s",
                  Over(e2e, [&](const Rep& r) { return obs / r.ingest_s; }), Pick::kMax);
  report.EndToEnd("op_p50_us", "us", Over(e2e, [](const Rep& r) { return r.op_p50_us; }),
                  Pick::kMin);
  report.EndToEnd("visible_ms", "ms",
                  Over(e2e, [](const Rep& r) { return r.visible_s * 1e3; }), Pick::kMin);
  report.EndToEnd("heap_mb", "MB", Over(e2e, [](const Rep& r) { return r.heap_mb; }));

  // Too noisy on a shared host to gate on: a per-layer metric, shown in
  // every table.
  report.PerLayer("op_p99_us", "us", Over(e2e, [](const Rep& r) { return r.op_p99_us; }));

  const Rep& any = e2e.back();
  report.Extra("peak_rss_mb", "MB", {PeakRssMb()});
  report.Extra("study_s", "s", Over(e2e, [](const Rep& r) { return r.study_s; }));
  report.Extra("core.ingest_s", "s", Over(e2e, [](const Rep& r) { return r.ingest_s; }));
  report.Extra("core.finalize_s", "s", Over(e2e, [](const Rep& r) { return r.finalize_s; }));
  report.Extra("core.finalize_verify_s", "s",
               Over(e2e, [](const Rep& r) { return r.verify_s; }));
  report.Extra("core.finalize_intermediates_s", "s",
               Over(e2e, [](const Rep& r) { return r.intermediates_s; }));
  for (int a = 0; a < 4; ++a)
    report.Extra(std::string("core.analysis.") + kAnalysisNames[a] + "_s", "s",
                 Over(e2e, [a](const Rep& r) { return r.analysis_s[a]; }));
  report.Extra("cascade.keys_s", "s", Over(e2e, [](const Rep& r) { return r.keys_s; }));
  report.Extra("cascade.build_s", "s", Over(e2e, [](const Rep& r) { return r.build_s; }));
  report.Extra("cascade.filter_bytes", "bytes", {static_cast<double>(any.filter_bytes)});
  report.Extra("cascade.levels", "count", {static_cast<double>(any.levels)});
  report.Extra("core.rows", "count", {static_cast<double>(any.rows)});
  report.Extra("core.leaf_set", "count", {static_cast<double>(any.leaf_set)});
  report.Extra("core.arena_mb", "MB", {any.arena_mb});
  report.Extra("core.column_mb", "MB", {any.column_mb});
  report.Extra("core.index_mb", "MB", {any.index_mb});
  report.Extra("core.interner_mb", "MB", {any.interner_mb});
  report.Extra("setup.archive_mb", "MB",
               {static_cast<double>(archive.bytes()) / (1 << 20)});
  report.Extra("setup.generate_s", "s", generate_s);
  // Leaf re-sighting: share of leaf observations whose leaf was already in
  // the corpus (an input property: 0 for the dump, ~0.8 for weekly scans).
  const double leaf_resighting = 1.0 - static_cast<double>(archive.num_leaves()) / obs;
  report.Extra("core.leaf_resighting_share", "share", {leaf_resighting});

  if (!options.trace) return;

  // --- traced run: per-layer metrics -----------------------------------------
  const core::CertCorpus& corpus = last->corpus();
  const std::size_t n = archive.num_leaves();
  static const trace::Site kParse("replay.x509.parse_view"),
      kSha("replay.crypto.sha256"), kFind("replay.core.index_find");
  std::vector<rev::Bytes> fps(n);
  for (std::size_t i = 0; i < n; ++i)
    fps[i] = rev::crypto::Sha256Bytes(archive.leaf(i));
  std::vector<double> decode, sha, find;
  std::size_t misses = 0;
  trace::Enable(true);
  for (int pass = 0; pass < 3; ++pass) {
    {
      trace::Span span(kParse);
      decode.push_back(ReplayNs(n, [&](std::size_t i) {
        if (!rev::x509::ParseCertView(archive.leaf(i))) ++misses;
      }));
    }
    {
      trace::Span span(kSha);
      sha.push_back(ReplayNs(n, [&](std::size_t i) {
        const auto d = rev::crypto::Sha256::Hash(archive.leaf(i));
        misses += d[0] == fps[i][0] ? 0 : 1;
      }));
    }
    {
      trace::Span span(kFind);
      find.push_back(ReplayNs(n, [&](std::size_t i) {
        misses += corpus.Find(fps[i]) == core::CertCorpus::kNoRow ? 1 : 0;
      }));
    }
  }
  trace::Enable(false);
  report.Check(misses == 0, "layer replay disagreed with the corpus");

  const std::vector<trace::NameStats> names = trace::Collect();
  const trace::NameStats observe = trace::Find(names, "core.observe_der");
  const double leaves = static_cast<double>(n);
  report.PerLayer("front_ns", "ns", {observe.mean_ns()});
  report.PerLayer("parallel_ns", "ns", Over(e2e, [&](const Rep& r) {
                    return r.verify_s * 1e9 * options.threads / leaves;
                  }));
  report.PerLayer("decode_ns", "ns", decode);
  report.PerLayer("crypto_ns", "ns", sha);
  report.PerLayer("lookup_ns", "ns", find);
  report.PerLayer("batch_s", "s", Over(e2e, [](const Rep& r) {
                    return r.study_s - r.ingest_s;
                  }));
  report.PerLayer("reuse_share", "share", {leaf_resighting});
  report.PerLayer("state_mb", "MB",
                  {static_cast<double>(corpus.arena_bytes() + corpus.column_bytes() +
                                       corpus.index_bytes() + corpus.interner_bytes()) /
                   (1 << 20)});
  report.PerLayer("trace_overhead", "ratio",
                  {Median(Over(traced, [](const Rep& r) { return r.ingest_s; })) /
                   Median(Over(untraced, [](const Rep& r) { return r.ingest_s; }))});
  report.Extra("core.observe_der_ns.p50", "ns", {observe.p50_ns});

  std::printf("per-layer spans (traced reps %zu, untraced reps %zu):\n",
              traced.size(), untraced.size());
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
