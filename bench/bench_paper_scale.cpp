// Paper-scale end-to-end benchmark (ROADMAP item 2 acceptance): pushes the
// paper's full 38.5M-unique-certificate population through the columnar
// CertCorpus on one machine and runs the headline analyses against it.
//
// Unlike the other benches this one does not build an Ecosystem/SimNet
// world — issuing 38.5M certificates through CertificateAuthority::Issue
// would spend most of its memory on CA-side bookkeeping the measurement
// never reads. Instead it keeps the calibrated CA layer (DefaultCaSpecs
// shard counts, serial-length policies, real CrlUrl/OcspUrl strings) and
// synthesizes the leaf population directly with x509::SignCertificate,
// streaming every observation into the pipeline scan by scan:
//
//   scan s: replay the chains still alive through Pipeline::ObserveDer
//           over their corpus DER (each element a FindDer hit: no parse,
//           no intern), then synthesize the certs first advertised in
//           scan s and stream their DER through Pipeline::ObserveDer.
//
// Revocations are written straight into a RevocationDb during synthesis and
// per-shard CRL tallies become the CrlSizeSample set, so ComputeTable1,
// ComputeRevocationTimeline (Fig. 1/2), ComputeRevinfoAdoption (Fig. 4),
// and ComputeDatasetStats (§3) all run end-to-end on the corpus.
//
// Knobs (defaults reproduce the paper's scale):
//   REV_PAPER_CERTS    unique certificates to synthesize (38'500'000)
//   REV_PAPER_SCANS    number of scans spanning the study window (6)
//   REV_PAPER_VALID    fraction chaining to the trusted roots (0.132,
//                      matching the paper's 5.07M Leaf Set / 38.5M uniques)
//   REV_PAPER_FLOOR    minimum ingest certs/sec; 0 disables the gate
//   REV_PAPER_RSS_MB   maximum peak RSS in MB; 0 disables the gate
//   REV_THREADS        Finalize() fan-out (bench_common.h)
//
// Gate violations exit non-zero after writing BENCH_paper_scale.json, so
// scripts/tier1.sh can enforce a throughput floor and memory ceiling on a
// reduced REV_PAPER_CERTS smoke run.
#include "bench_common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <map>

#include "asn1/oid.h"
#include "obs/slo.h"
#include "util/rng.h"
#include "x509/certificate.h"

using namespace rev;

namespace {

double EnvDouble(const char* name, double fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  const double v = std::atof(env);
  return v > 0 ? v : fallback;
}

std::size_t PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  // ru_maxrss is KB on Linux.
  return static_cast<std::size_t>(ru.ru_maxrss) / 1024;
}

std::vector<double> ZipfWeights(int n, double s) {
  std::vector<double> weights(static_cast<std::size_t>(n));
  double sum = 0;
  for (int i = 0; i < n; ++i) {
    weights[static_cast<std::size_t>(i)] = 1.0 / std::pow(i + 1, s);
    sum += weights[static_cast<std::size_t>(i)];
  }
  for (double& w : weights) w /= sum;
  return weights;
}

// One issuing CA: the calibrated spec, the real CA object (for its
// certificate, key, and service URLs), and the synthesis-side tallies that
// become CRL size samples.
struct SynthCa {
  core::CaSpec spec;
  ca::CertificateAuthority* ca = nullptr;
  x509::CertPtr cert;                   // issuing certificate (in chains)
  Bytes issuer_name_der;                // cached subject-name DER
  core::CertCorpus::Row row = core::CertCorpus::kNoRow;
  std::vector<std::size_t> shard_revoked;  // db entries per CRL shard
  std::vector<std::size_t> shard_weight;   // leaf certs pointing per shard
  std::uint64_t serial_counter = 0;
  std::size_t leaves = 0;               // leaves to synthesize in total
};

// A certificate that stays advertised across scans: its corpus row, its
// issuer's row (the replay chain), the scan after which it disappears, and
// the flags the per-scan SLO tallies need.
struct AliveEntry {
  core::CertCorpus::Row row = core::CertCorpus::kNoRow;
  core::CertCorpus::Row ca_row = core::CertCorpus::kNoRow;
  std::uint8_t death_scan = 0;
  std::uint8_t has_revinfo = 0;
  std::uint8_t chains_to_root = 0;
};

x509::Serial MakeSerial(int serial_bytes, std::uint8_t ca_tag,
                        std::uint64_t counter) {
  x509::Serial serial(static_cast<std::size_t>(serial_bytes));
  serial[0] = 0x41;  // nonzero leading byte: canonical positive magnitude
  serial[1] = ca_tag;
  // Cheap per-cert entropy in the middle bytes; the tail counter already
  // guarantees global uniqueness within a CA.
  std::uint64_t mix = (counter + 1) * 0x9E3779B97F4A7C15ull;
  for (std::size_t i = 2; i + 8 < serial.size(); ++i) {
    serial[i] = static_cast<std::uint8_t>(mix);
    mix >>= 8;
  }
  for (int i = 0; i < 8; ++i)
    serial[serial.size() - 1 - static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(counter >> (8 * i));
  return serial;
}

}  // namespace

int main() {
  bench::BenchRun run("paper_scale");
  bench::PrintHeader(
      "Paper-scale corpus ingest + Fig. 1 / Table 1 analyses",
      "38.5M unique certs over 74 scans -> 5.07M Leaf Set; 8% of fresh "
      "certs revoked; Table 1 per-CA CRL statistics");

  const auto total_certs =
      bench::SizeFromEnv("REV_PAPER_CERTS", 38'500'000);
  const int num_scans =
      std::max(2, static_cast<int>(bench::SizeFromEnv("REV_PAPER_SCANS", 6)));
  const double valid_fraction =
      std::clamp(EnvDouble("REV_PAPER_VALID", 0.132), 0.01, 1.0);
  const double floor_cps = EnvDouble("REV_PAPER_FLOOR", 0);
  const double rss_ceiling_mb = EnvDouble("REV_PAPER_RSS_MB", 0);

  core::EcosystemConfig times;  // only for the calibrated dates
  times.ApplyDefaults();
  const util::Timestamp study_start = times.study_start;
  const util::Timestamp study_end = times.study_end;
  const util::Timestamp crawl_start = times.crawl_start;
  const util::Timestamp heartbleed = times.heartbleed;
  const std::int64_t scan_step = (study_end - study_start) / (num_scans - 1);
  std::vector<util::Timestamp> scan_times;
  for (int s = 0; s < num_scans; ++s)
    scan_times.push_back(study_start + s * scan_step);

  util::Rng rng(20151028);

  // --- CA layer: calibrated roots + intermediates (real URLs/keys) --------
  x509::CertPool roots;
  std::vector<std::unique_ptr<ca::CertificateAuthority>> owned_cas;
  std::vector<SynthCa> cas;
  std::map<std::string, std::string> url_to_ca_name;
  {
    bench::BenchRun::Phase phase("build_cas");
    std::vector<ca::CertificateAuthority*> root_cas;
    for (int i = 0; i < 3; ++i) {
      ca::CertificateAuthority::Options options;
      options.name = "SimRoot " + std::to_string(i + 1);
      options.domain = "root" + std::to_string(i + 1) + ".sim";
      auto root = ca::CertificateAuthority::CreateRoot(
          options, rng, util::MakeDate(2006, 1, 1),
          25 * 365 * util::kSecondsPerDay);
      roots.Add(root->cert());
      root_cas.push_back(root.get());
      owned_cas.push_back(std::move(root));
    }

    std::vector<core::CaSpec> specs = core::DefaultCaSpecs();
    for (int i = 0; i < 40; ++i) {  // ecosystem's small-CA tail
      core::CaSpec spec;
      spec.name = "SmallCA" + std::to_string(i + 1);
      spec.num_crls = 1;
      spec.paper_certs = 8'000 + (static_cast<std::size_t>(i) % 7) * 3'000;
      spec.steady_revoke_per_year = 0.004 + 0.001 * (i % 5);
      spec.heartbleed_revoke_prob = 0.03;
      spec.serial_bytes = 10 + (i % 3) * 4;
      spec.ocsp_adoption = util::MakeDate(2009 + (i % 4), 1 + (i % 12), 1);
      specs.push_back(spec);
    }

    for (std::size_t i = 0; i < specs.size(); ++i) {
      const core::CaSpec& spec = specs[i];
      ca::CertificateAuthority::Options options;
      options.name = spec.name;
      std::string domain = spec.name;
      for (char& c : domain) c = static_cast<char>(std::tolower(c));
      options.domain = domain + ".sim";
      options.num_crl_shards = spec.num_crls;
      options.serial_bytes = spec.serial_bytes;
      auto ca = root_cas[i % root_cas.size()]->CreateIntermediate(
          options, rng, util::MakeDate(2010, 1, 1),
          12 * 365 * util::kSecondsPerDay);
      if (spec.shard_skew > 0)
        ca->SetShardWeights(ZipfWeights(spec.num_crls, spec.shard_skew));

      SynthCa synth;
      synth.spec = spec;
      synth.ca = ca.get();
      synth.cert = ca->cert();
      synth.issuer_name_der = ca->cert()->tbs.subject.Encode();
      synth.shard_revoked.assign(static_cast<std::size_t>(spec.num_crls), 0);
      synth.shard_weight.assign(static_cast<std::size_t>(spec.num_crls), 0);
      for (int shard = 0; shard < spec.num_crls; ++shard)
        url_to_ca_name[ca->CrlUrl(shard)] = spec.name;
      url_to_ca_name[ca->OcspUrl()] = spec.name;
      cas.push_back(std::move(synth));
      owned_cas.push_back(std::move(ca));
    }
  }

  // Untrusted issuers for the non-validating bulk of the corpus (the
  // paper's 38.5M uniques vs 5.07M Leaf Set: most scanned certs are
  // self-signed devices or chain to nothing in the root store).
  struct UntrustedIssuer {
    crypto::KeyPair key;
    x509::Name name;
    x509::CertPtr cert;
    core::CertCorpus::Row row = core::CertCorpus::kNoRow;
    std::uint64_t serial_counter = 0;
  };
  std::vector<UntrustedIssuer> untrusted(16);
  for (std::size_t i = 0; i < untrusted.size(); ++i) {
    UntrustedIssuer& u = untrusted[i];
    u.key = crypto::SimKeyFromLabel("untrusted-issuer:" + std::to_string(i));
    u.name = x509::Name::Make("Untrusted Issuer " + std::to_string(i + 1),
                              "SelfSigned Devices Inc");
    x509::TbsCertificate tbs;
    tbs.serial = MakeSerial(12, static_cast<std::uint8_t>(0xC0 + i), 1);
    tbs.issuer = u.name;
    tbs.subject = u.name;
    tbs.not_before = util::MakeDate(2009, 1, 1);
    tbs.not_after = tbs.not_before + 15 * 365 * util::kSecondsPerDay;
    tbs.public_key = u.key.Public();
    tbs.basic_constraints.is_ca = true;
    u.cert = std::make_shared<const x509::Certificate>(
        x509::SignCertificate(tbs, u.key));
  }

  // --- Apportion the population ------------------------------------------
  const auto valid_total = static_cast<std::size_t>(
      std::llround(static_cast<double>(total_certs) * valid_fraction));
  const std::size_t invalid_total = total_certs - valid_total;
  {
    double weight_sum = 0;
    for (const SynthCa& ca : cas)
      weight_sum += static_cast<double>(ca.spec.paper_certs);
    std::size_t assigned = 0;
    for (SynthCa& ca : cas) {
      ca.leaves = static_cast<std::size_t>(
          std::floor(static_cast<double>(valid_total) *
                     static_cast<double>(ca.spec.paper_certs) / weight_sum));
      assigned += ca.leaves;
    }
    cas.front().leaves += valid_total - assigned;  // remainder to largest CA
  }

  // Births per scan: 55% of each population is already advertised at the
  // first scan (the pre-study backlog); the rest arrives evenly.
  auto births_for = [&](std::size_t total) {
    std::vector<std::size_t> births(static_cast<std::size_t>(num_scans), 0);
    births[0] = static_cast<std::size_t>(
        std::llround(static_cast<double>(total) * 0.55));
    std::size_t assigned = births[0];
    for (int s = 1; s < num_scans; ++s) {
      births[static_cast<std::size_t>(s)] =
          (total - births[0]) / static_cast<std::size_t>(num_scans - 1);
      assigned += births[static_cast<std::size_t>(s)];
    }
    births[static_cast<std::size_t>(num_scans - 1)] += total - assigned;
    return births;
  };
  std::vector<std::vector<std::size_t>> valid_births;
  valid_births.reserve(cas.size());
  for (const SynthCa& ca : cas) valid_births.push_back(births_for(ca.leaves));
  const std::vector<std::size_t> invalid_births = births_for(invalid_total);

  // All leaves share one public key: leaf keys never sign anything here, and
  // one shared SPKI keeps synthesis off the per-cert key-derivation path.
  const crypto::PublicKey leaf_key =
      crypto::SimKeyFromLabel("paper-scale-leaf").Public();

  auto scan_of = [&](util::Timestamp t) {
    if (t <= study_start) return 0;
    const auto s = static_cast<int>((t - study_start) / scan_step);
    return std::min(s, num_scans - 1);
  };

  obs::SloMonitor slo;
  slo.AddObjective({.name = "revinfo_coverage",
                    .objective = 0.995,
                    .window_seconds = scan_step,
                    .short_windows = 1,
                    .long_windows = 2,
                    .burn_threshold = 2.0});
  slo.AddObjective({.name = "chain_validity",
                    .objective = 0.10,
                    .window_seconds = scan_step,
                    .short_windows = 1,
                    .long_windows = 2,
                    .burn_threshold = 2.0});

  core::Pipeline pipeline(roots, bench::ThreadsFromEnv());
  core::RevocationDb db;
  std::vector<AliveEntry> alive;
  alive.reserve(total_certs / 2);

  const auto ingest_start = std::chrono::steady_clock::now();
  std::uint64_t total_observations = 0;
  {
    bench::BenchRun::Phase phase("ingest_scans");
    // Every synthesized chain parses; a rejection is a generator bug.
    const auto observe = [&pipeline](const x509::Certificate& leaf,
                                     const x509::Certificate& issuer) {
      const BytesView chain[2] = {leaf.der, issuer.der};
      const std::optional<core::CertCorpus::Row> row =
          pipeline.ObserveDer(chain);
      if (!row) {
        std::fprintf(stderr, "synthesized chain rejected by ObserveDer\n");
        std::abort();
      }
      return *row;
    };
    x509::TbsCertificate tbs;
    tbs.public_key = leaf_key;
    for (int s = 0; s < num_scans; ++s) {
      const util::Timestamp now = scan_times[static_cast<std::size_t>(s)];
      pipeline.BeginScan(now);
      std::uint64_t observed = 0, with_revinfo = 0, chained = 0;

      // Replay: certs advertised in earlier scans and still alive. The
      // views point into the corpus arena, which a FindDer hit leaves
      // untouched.
      std::size_t kept = 0;
      const core::CertCorpus& corpus = pipeline.corpus();
      for (const AliveEntry& entry : alive) {
        if (entry.death_scan < s) continue;
        const BytesView chain[2] = {corpus.der(entry.row),
                                    corpus.der(entry.ca_row)};
        pipeline.ObserveDer(chain);
        ++observed;
        with_revinfo += entry.has_revinfo;
        chained += entry.chains_to_root;
        alive[kept++] = entry;
      }
      alive.resize(kept);

      // Births: leaves first advertised in this scan, synthesized in full.
      for (std::size_t i = 0; i < cas.size(); ++i) {
        SynthCa& ca = cas[i];
        const std::size_t births =
            valid_births[i][static_cast<std::size_t>(s)];
        for (std::size_t c = 0; c < births; ++c) {
          const std::uint64_t n = ++ca.serial_counter;
          tbs.serial = MakeSerial(ca.spec.serial_bytes,
                                  static_cast<std::uint8_t>(i + 1), n);
          tbs.issuer = ca.cert->tbs.subject;
          // Appended, not `"w" + ...`: GCC 12 at -O3 reports a false
          // -Wrestrict on that operator+.
          std::string host(1, 'w');
          host += std::to_string(n);
          host += '.';
          host += ca.ca->options().domain;
          tbs.subject = x509::Name::FromCommonName(host);
          // Lifetime mix: mostly 1 year, some 90-day / 2-year / 3-year.
          const double lu = rng.UniformDouble();
          const std::int64_t lifetime =
              (lu < 0.08   ? 90
               : lu < 0.75 ? 365
               : lu < 0.93 ? 730
                           : 1095) *
              util::kSecondsPerDay;
          if (s == 0) {
            const util::Timestamp earliest = std::max(
                times.issuance_start,
                study_start - lifetime + util::kSecondsPerDay);
            tbs.not_before = rng.UniformInt(earliest, study_start);
          } else {
            tbs.not_before = rng.UniformInt(
                scan_times[static_cast<std::size_t>(s - 1)] + 1, now);
          }
          tbs.not_after = tbs.not_before + lifetime;

          const int shard = ca.ca->ShardForSerial(tbs.serial);
          ++ca.shard_weight[static_cast<std::size_t>(shard)];
          const bool unrevocable = rng.Chance(0.0009);
          tbs.crl_urls.clear();
          tbs.ocsp_urls.clear();
          if (!unrevocable) {
            tbs.crl_urls.push_back(ca.ca->CrlUrl(shard));
            if (tbs.not_before >= ca.spec.ocsp_adoption)
              tbs.ocsp_urls.push_back(ca.ca->OcspUrl());
          }
          tbs.policies.clear();
          if (rng.Chance(0.04))
            tbs.policies = {asn1::oids::VerisignEvPolicy()};

          // Revocation draw: Heartbleed mass event for certs fresh at the
          // event, steady-state hazard otherwise.
          util::Timestamp revoked_at = 0;
          x509::ReasonCode reason = x509::ReasonCode::kNoReasonCode;
          if (tbs.not_before <= heartbleed && heartbleed <= tbs.not_after &&
              rng.Chance(ca.spec.heartbleed_revoke_prob)) {
            revoked_at =
                heartbleed + rng.UniformInt(0, 45 * util::kSecondsPerDay);
            reason = x509::ReasonCode::kKeyCompromise;
          } else {
            const double hazard = std::min(
                0.9, ca.spec.steady_revoke_per_year *
                         (static_cast<double>(lifetime) / (365.0 * 86'400)));
            if (rng.Chance(hazard)) {
              revoked_at = rng.UniformInt(
                  tbs.not_before + util::kSecondsPerDay, tbs.not_after);
              reason = rng.Chance(ca.spec.crlset_reason_fraction)
                           ? (rng.Chance(0.5)
                                  ? x509::ReasonCode::kNoReasonCode
                                  : x509::ReasonCode::kKeyCompromise)
                           : x509::ReasonCode::kSuperseded;
            }
          }
          revoked_at = std::min(revoked_at, tbs.not_after);

          const core::CertCorpus::Row row =
              observe(x509::SignCertificate(tbs, ca.ca->key()), *ca.cert);
          if (ca.row == core::CertCorpus::kNoRow)
            ca.row = pipeline.corpus().FindDer(ca.cert->der);

          if (revoked_at != 0) {
            core::RevocationInfo info;
            info.revoked_at = revoked_at;
            info.reason = reason;
            info.first_seen_in_crl =
                std::max(crawl_start, revoked_at) +
                rng.UniformInt(0, util::kSecondsPerDay);
            if (db.Insert(ca.issuer_name_der, tbs.serial, info))
              ++ca.shard_revoked[static_cast<std::size_t>(shard)];
          }

          // Death: expiry, cut short by revocation unless the server keeps
          // advertising (4%, the paper's alive-and-revoked population).
          int death = std::max(s, scan_of(tbs.not_after));
          if (revoked_at != 0 && !rng.Chance(0.04))
            death = std::min(death, scan_of(revoked_at));
          death = std::max(death, s);

          ++observed;
          const bool has_revinfo = !unrevocable;
          with_revinfo += has_revinfo;
          ++chained;
          if (death > s)
            alive.push_back({row, ca.row, static_cast<std::uint8_t>(death),
                             has_revinfo, 1});
        }
      }

      // Births of the non-validating population.
      {
        const std::size_t births = invalid_births[static_cast<std::size_t>(s)];
        for (std::size_t c = 0; c < births; ++c) {
          UntrustedIssuer& u = untrusted[c % untrusted.size()];
          const std::uint64_t n = ++u.serial_counter;
          tbs.serial =
              MakeSerial(12,
                         static_cast<std::uint8_t>(
                             0xC0 + (c % untrusted.size())),
                         n + 1);
          tbs.issuer = u.name;
          // Device certs reuse a bounded name pool (routers, appliances).
          tbs.subject = x509::Name::FromCommonName(
              "device" + std::to_string(n % 100'000) + ".local");
          const std::int64_t lifetime =
              (rng.Chance(0.5) ? 365 : 3'650) * util::kSecondsPerDay;
          if (s == 0) {
            const util::Timestamp earliest = std::max(
                times.issuance_start,
                study_start - lifetime + util::kSecondsPerDay);
            tbs.not_before = rng.UniformInt(earliest, study_start);
          } else {
            tbs.not_before = rng.UniformInt(
                scan_times[static_cast<std::size_t>(s - 1)] + 1, now);
          }
          tbs.not_after = tbs.not_before + lifetime;
          tbs.crl_urls.clear();
          tbs.ocsp_urls.clear();
          tbs.policies.clear();

          const core::CertCorpus::Row row =
              observe(x509::SignCertificate(tbs, u.key), *u.cert);
          if (u.row == core::CertCorpus::kNoRow)
            u.row = pipeline.corpus().FindDer(u.cert->der);

          const int death = std::max(s, scan_of(tbs.not_after));
          ++observed;
          if (death > s)
            alive.push_back({row, u.row, static_cast<std::uint8_t>(death),
                             0, 0});
        }
      }

      pipeline.EndScan();
      total_observations += observed;
      slo.Record("revinfo_coverage", now, with_revinfo, observed);
      slo.Record("chain_validity", now, chained, observed);
      std::fprintf(stderr,
                   "[scan %d/%d] t=%lld observed=%llu corpus=%zu alive=%zu "
                   "rss=%zuMB\n",
                   s + 1, num_scans, static_cast<long long>(now),
                   static_cast<unsigned long long>(observed),
                   pipeline.corpus().size(), alive.size(), PeakRssMb());
    }
  }
  const double ingest_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    ingest_start)
          .count();
  alive.clear();
  alive.shrink_to_fit();

  {
    bench::BenchRun::Phase phase("finalize");
    pipeline.Finalize();
  }

  const core::CertCorpus& corpus = pipeline.corpus();
  const double ingest_cps =
      static_cast<double>(corpus.size()) / std::max(1e-9, ingest_wall);
  const double verify_cps =
      static_cast<double>(corpus.size()) /
      std::max(1e-9, pipeline.finalize_wall_seconds());

  // --- Synthesize the crawled-CRL view ------------------------------------
  std::vector<core::CrlSizeSample> samples;
  for (const SynthCa& ca : cas) {
    const std::size_t hidden = ca.spec.paper_hidden_revocations +
                               ca.spec.paper_offweb_revocations;
    const std::vector<double> weights = ZipfWeights(
        ca.spec.num_crls, ca.spec.shard_skew > 0 ? ca.spec.shard_skew : 0.0);
    for (int shard = 0; shard < ca.spec.num_crls; ++shard) {
      core::CrlSizeSample sample;
      sample.url = ca.ca->CrlUrl(shard);
      sample.ca_name = ca.spec.name;
      sample.entries =
          ca.shard_revoked[static_cast<std::size_t>(shard)] +
          static_cast<std::size_t>(
              std::llround(static_cast<double>(hidden) *
                           weights[static_cast<std::size_t>(shard)]));
      sample.bytes =
          160 + sample.entries *
                    (22 + static_cast<std::size_t>(ca.spec.serial_bytes));
      sample.cert_weight = static_cast<double>(
          ca.shard_weight[static_cast<std::size_t>(shard)]);
      samples.push_back(std::move(sample));
    }
  }

  // --- Analyses ------------------------------------------------------------
  core::DatasetStats stats;
  {
    bench::BenchRun::Phase phase("analysis_dataset_stats");
    stats = core::ComputeDatasetStats(pipeline);
  }
  std::vector<core::RevocationTimelinePoint> timeline;
  {
    bench::BenchRun::Phase phase("analysis_timeline");
    timeline = core::ComputeRevocationTimeline(
        pipeline, db, study_start, study_end, 14 * util::kSecondsPerDay);
  }
  std::vector<core::AdoptionPoint> adoption;
  {
    bench::BenchRun::Phase phase("analysis_adoption");
    adoption = core::ComputeRevinfoAdoption(pipeline);
  }
  std::vector<core::CaStatsRow> table1;
  {
    bench::BenchRun::Phase phase("analysis_table1");
    const core::CaNameResolver resolver =
        [&url_to_ca_name](const std::string& url) {
          auto it = url_to_ca_name.find(url);
          return it == url_to_ca_name.end() ? std::string() : it->second;
        };
    table1 = core::ComputeTable1(samples, pipeline, db, resolver);
  }

  const std::size_t peak_rss_mb = PeakRssMb();
  const core::RevocationTimelinePoint& last_point = timeline.back();

  core::TextTable table({"metric", "measured", "paper"});
  table.AddRow({"unique certificates", std::to_string(stats.unique_certs),
                "38,514,130"});
  table.AddRow({"Leaf Set", std::to_string(stats.leaf_set), "5,067,476"});
  table.AddRow({"Intermediate Set", std::to_string(stats.intermediate_set),
                "1,946"});
  table.AddRow({"revocation db entries", std::to_string(db.size()), "-"});
  table.AddRow({"fresh certs revoked (end of study)",
                core::FormatDouble(100 * last_point.FreshRevokedFraction(), 2) +
                    "%",
                "~8%"});
  table.AddRow({"ingest certs/sec",
                core::FormatDouble(ingest_cps, 0), "-"});
  table.AddRow({"verify certs/sec",
                core::FormatDouble(verify_cps, 0), "-"});
  table.AddRow({"peak RSS", std::to_string(peak_rss_mb) + " MB", "-"});
  std::printf("%s\n", table.Render().c_str());

  std::printf("Table 1 (top CAs by certificate count):\n");
  core::TextTable t1({"CA", "CRLs", "certs", "revoked", "avg CRL (KB)"});
  for (std::size_t i = 0; i < table1.size() && i < 12; ++i) {
    const core::CaStatsRow& row = table1[i];
    t1.AddRow({row.name, std::to_string(row.num_crls),
               std::to_string(row.total_certs),
               std::to_string(row.revoked_certs),
               core::FormatDouble(row.avg_crl_size_kb, 1)});
  }
  std::printf("%s\n", t1.Render().c_str());

  // --- JSON results --------------------------------------------------------
  std::string json = "{";
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "\"total_certs\": %zu, \"scans\": %d, \"observations\": %llu, "
      "\"leaf_set\": %zu, \"intermediate_set\": %zu, "
      "\"still_advertised\": %zu, \"revocations\": %zu, ",
      stats.unique_certs, num_scans,
      static_cast<unsigned long long>(total_observations), stats.leaf_set,
      stats.intermediate_set, stats.leaf_still_advertised, db.size());
  json += buf;
  std::snprintf(
      buf, sizeof(buf),
      "\"ingest_certs_per_sec\": %.1f, \"verify_certs_per_sec\": %.1f, "
      "\"ingest_wall_seconds\": %.3f, \"finalize_wall_seconds\": %.3f, "
      "\"peak_rss_mb\": %zu, ",
      ingest_cps, verify_cps, ingest_wall,
      pipeline.finalize_wall_seconds(), peak_rss_mb);
  json += buf;
  std::snprintf(
      buf, sizeof(buf),
      "\"arena_mb\": %zu, \"column_mb\": %zu, \"index_mb\": %zu, "
      "\"interner_mb\": %zu, ",
      corpus.arena_bytes() >> 20, corpus.column_bytes() >> 20,
      corpus.index_bytes() >> 20, corpus.interner_bytes() >> 20);
  json += buf;
  std::snprintf(
      buf, sizeof(buf),
      "\"fresh_revoked_fraction\": %.5f, \"alive_revoked_fraction\": %.5f, "
      "\"timeline_points\": %zu, \"adoption_points\": %zu, ",
      last_point.FreshRevokedFraction(), last_point.AliveRevokedFraction(),
      timeline.size(), adoption.size());
  json += buf;
  json += "\"table1\": [";
  for (std::size_t i = 0; i < table1.size() && i < 12; ++i) {
    const core::CaStatsRow& row = table1[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"ca\": \"%s\", \"crls\": %zu, \"certs\": %zu, "
                  "\"revoked\": %zu, \"avg_crl_kb\": %.1f}",
                  i == 0 ? "" : ", ", row.name.c_str(), row.num_crls,
                  row.total_certs, row.revoked_certs, row.avg_crl_size_kb);
    json += buf;
  }
  json += "], \"slo\": ";
  json += slo.TimelineJson();
  json += "}";
  run.SetResults(json);

  // --- Gates ---------------------------------------------------------------
  int exit_code = 0;
  if (floor_cps > 0 && ingest_cps < floor_cps) {
    std::fprintf(stderr,
                 "GATE FAILURE: ingest %.1f certs/sec below REV_PAPER_FLOOR "
                 "%.1f\n",
                 ingest_cps, floor_cps);
    exit_code = 1;
  }
  if (rss_ceiling_mb > 0 &&
      static_cast<double>(peak_rss_mb) > rss_ceiling_mb) {
    std::fprintf(stderr,
                 "GATE FAILURE: peak RSS %zu MB above REV_PAPER_RSS_MB %.0f\n",
                 peak_rss_mb, rss_ceiling_mb);
    exit_code = 1;
  }
  if (exit_code == 0)
    std::printf("gates OK (floor %.0f certs/sec, ceiling %.0f MB)\n",
                floor_cps, rss_ceiling_mb);
  return exit_code;
}
