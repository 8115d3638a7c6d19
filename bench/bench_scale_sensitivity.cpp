// Scale-sensitivity sweep: re-derives the headline shapes at several
// REV_SCALE values to show which conclusions are scale-stable (fractions,
// orderings, crossovers) and which quantities scale linearly (counts,
// absolute CRL sizes). This is the repo's answer to "did the downscaling
// manufacture the results?"
#include "bench_common.h"

using namespace rev;

namespace {

struct Row {
  double scale;
  std::size_t leaf_set;
  double fresh_revoked_end;
  double alive_revoked_end;
  double stapling_servers;
  double crl_weighted_over_raw;
  double crlset_coverage;
};

Row Measure(double scale) {
  Row row;
  row.scale = scale;
  bench::World world =
      bench::World::Build(scale, /*crawl_step_days=*/3);
  const core::EcosystemConfig& c = world.eco->config();
  row.leaf_set = world.pipeline->LeafSet().size();

  // Sample exactly at the last scan, where the alive set is well-defined.
  const util::Timestamp sample = world.pipeline->latest_scan_time();
  const auto timeline = core::ComputeRevocationTimeline(
      *world.pipeline, *world.crawler, sample, sample,
      7 * util::kSecondsPerDay);
  row.fresh_revoked_end = timeline.back().FreshRevokedFraction();
  row.alive_revoked_end = timeline.back().AliveRevokedFraction();

  const core::StaplingStats stapling = core::ComputeStaplingStats(
      scan::RunHandshakeScan(world.eco->internet(), c.study_end - util::kSecondsPerDay));
  row.stapling_servers = stapling.ServerFraction();

  const auto samples =
      core::CollectCrlSizes(*world.crawler, *world.pipeline, *world.eco);
  const core::CrlSizeDistributions dist = core::BuildCrlSizeDistributions(samples);
  row.crl_weighted_over_raw =
      dist.raw.Median() > 0 ? dist.weighted.Median() / dist.raw.Median() : 0;

  core::CrlsetAuditor auditor(world.eco.get(), bench::ScaledCrlsetConfig(scale));
  auditor.RunDaily(c.crawl_start, c.crawl_start + 10 * util::kSecondsPerDay);
  const auto coverage = auditor.ComputeCoverage(
      c.crawl_start + 10 * util::kSecondsPerDay, *world.pipeline, *world.crawler);
  row.crlset_coverage =
      coverage.total_revocations
          ? static_cast<double>(coverage.crlset_entries) /
                static_cast<double>(coverage.total_revocations)
          : 0;
  return row;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Scale sensitivity — headline shapes across REV_SCALE",
      "fractions and orderings should be stable while counts scale linearly");

  core::TextTable table({"scale", "Leaf Set", "fresh revoked", "alive revoked",
                         "servers stapling", "CRL weighted/raw",
                         "CRLSet coverage"});
  for (double scale : {0.001, 0.002, 0.004}) {
    const Row row = Measure(scale);
    table.AddRow({core::FormatDouble(row.scale, 4),
                  std::to_string(row.leaf_set),
                  core::FormatDouble(row.fresh_revoked_end, 4),
                  core::FormatDouble(row.alive_revoked_end, 4),
                  core::FormatDouble(row.stapling_servers, 4),
                  core::FormatDouble(row.crl_weighted_over_raw, 1) + "x",
                  core::FormatDouble(row.crlset_coverage, 4)});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "reading: the Leaf Set scales ~linearly; the revoked fractions,\n"
      "stapling share, and CRLSet coverage hold steady; the weighted/raw\n"
      "CRL-size ratio *grows* with scale (toward the paper's ~57x) because\n"
      "per-CRL entry counts grow while small CRLs stay header-bound.\n");
  return 0;
}
