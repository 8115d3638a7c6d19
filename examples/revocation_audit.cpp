// revocation_audit: the paper's end-to-end measurement, miniaturized.
//
// Builds a synthetic PKI ecosystem, runs weekly certificate scans over it,
// constructs the Intermediate and Leaf Sets, crawls CRLs daily, and prints
// an audit report: dataset statistics (§3), revoked fresh/alive fractions
// (Fig. 2 endpoints), and crawl costs (§5).
//
//   $ ./revocation_audit [scale]     (default scale 0.002)
#include <cstdio>
#include <cstdlib>

#include "core/ca_audit.h"
#include "core/crawler.h"
#include "core/ecosystem.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "core/timeline.h"
#include "scan/scanner.h"

using namespace rev;

int main(int argc, char** argv) {
  constexpr std::int64_t kDay = util::kSecondsPerDay;
  core::EcosystemConfig config;
  config.scale = argc > 1 ? std::atof(argv[1]) : 0.002;
  std::printf("building ecosystem at scale %.4f ...\n", config.scale);
  auto eco = core::Ecosystem::Build(config);
  const core::EcosystemConfig& c = eco->config();
  std::printf("  issued %zu certificates across %zu CAs, %zu servers\n\n",
              eco->total_issued(), eco->cas().size(), eco->internet().size());

  // Weekly scans, Oct 2013 – Mar 2015 (74 in the paper), streamed into the
  // pipeline one observed chain at a time.
  core::Pipeline pipeline(eco->roots());
  int scans = 0;
  bool rejected = false;
  for (util::Timestamp t = c.study_start; t <= c.study_end; t += 7 * kDay) {
    pipeline.BeginScan(t);
    scan::StreamCertScan(
        eco->internet(), t, [&](const scan::CertObservation& obs) {
          if (pipeline.ObserveDer(obs.Der())) return;
          std::fprintf(stderr, "scan ingest rejected ip %u's chain\n", obs.ip);
          rejected = true;
        });
    pipeline.EndScan();
    ++scans;
  }
  if (rejected) return 1;
  pipeline.Finalize();
  std::printf("ran %d weekly scans\n", scans);

  const core::DatasetStats stats = core::ComputeDatasetStats(pipeline);
  std::printf("dataset (cf. paper §3):\n");
  std::printf("  unique certificates observed : %zu\n", stats.unique_certs);
  std::printf("  Leaf Set (validated)         : %zu\n", stats.leaf_set);
  std::printf("  Intermediate Set             : %zu\n", stats.intermediate_set);
  std::printf("  still advertised, last scan  : %.1f%%\n",
              100.0 * static_cast<double>(stats.leaf_still_advertised) /
                  static_cast<double>(stats.leaf_set));
  std::printf("  leaves with CRL / OCSP       : %.2f%% / %.2f%%\n",
              100.0 * static_cast<double>(stats.leaf_with_crl) / static_cast<double>(stats.leaf_set),
              100.0 * static_cast<double>(stats.leaf_with_ocsp) / static_cast<double>(stats.leaf_set));
  std::printf("  unrevocable leaves           : %zu (%.3f%%)\n\n",
              stats.leaf_unrevocable,
              100.0 * static_cast<double>(stats.leaf_unrevocable) / static_cast<double>(stats.leaf_set));

  // Daily CRL crawl, Oct 2014 – Mar 2015.
  core::RevocationCrawler crawler(&eco->net());
  crawler.CollectUrls(pipeline);
  int crawl_days = 0;
  for (util::Timestamp t = c.crawl_start; t <= c.study_end; t += kDay) {
    crawler.CrawlAll(t);
    ++crawl_days;
  }
  std::printf("crawled %zu CRLs daily for %d days:\n", crawler.crawled().size(),
              crawl_days);
  std::printf("  revocations discovered : %zu\n", crawler.total_revocations());
  std::printf("  bytes downloaded       : %s (cache-aware)\n",
              util::HumanBytes(static_cast<double>(crawler.bytes_downloaded())).c_str());
  std::printf("  crawl time simulated   : %.1f s, %llu fetch failures\n\n",
              crawler.seconds_spent(),
              static_cast<unsigned long long>(crawler.fetch_failures()));

  // Fig. 2 endpoints.
  const auto timeline = core::ComputeRevocationTimeline(
      pipeline, crawler, util::MakeDate(2014, 1, 1), c.study_end, 7 * kDay);
  const auto& pre = timeline[12];   // late March 2014 (pre-Heartbleed)
  const auto& end = timeline.back();
  std::printf("revocation timeline (cf. Fig. 2):\n");
  std::printf("  %s  fresh revoked %.2f%%  (EV %.2f%%)  alive revoked %.2f%%\n",
              util::FormatDate(pre.time).c_str(),
              100 * pre.FreshRevokedFraction(), 100 * pre.FreshEvRevokedFraction(),
              100 * pre.AliveRevokedFraction());
  std::printf("  %s  fresh revoked %.2f%%  (EV %.2f%%)  alive revoked %.2f%%\n",
              util::FormatDate(end.time).c_str(),
              100 * end.FreshRevokedFraction(), 100 * end.FreshEvRevokedFraction(),
              100 * end.AliveRevokedFraction());
  std::printf("  (the jump is the Heartbleed mass revocation of April 2014)\n\n");

  // CRL size summary (Fig. 6 endpoints).
  const auto samples = core::CollectCrlSizes(crawler, pipeline, *eco);
  const core::CrlSizeDistributions dist = core::BuildCrlSizeDistributions(samples);
  std::printf("CRL sizes across %zu crawled CRLs (cf. Fig. 6):\n", samples.size());
  std::printf("  raw median      : %s\n", util::HumanBytes(dist.raw.Median()).c_str());
  std::printf("  weighted median : %s (per certificate)\n",
              util::HumanBytes(dist.weighted.Median()).c_str());
  std::printf("  maximum         : %s\n", util::HumanBytes(dist.raw.Max()).c_str());
  return 0;
}
