// The paper report: one world (the ecosystem, its weekly scans and the
// daily CRL crawl) feeds every row of the paper's evaluation: §3, Figs.
// 2–10, Tables 1–2 and §7. Each checked row holds the paper's value, the
// measured value, the predicate and its verdict. PAPER_RESULTS.json records
// the rows beside the data tables the figures are drawn from; it holds no
// wall times, so the same scale gives the same bytes at any REV_THREADS.
//
//   REV_SCALE=0.002 ./build/bench/paper_report   # writes ./PAPER_RESULTS.json
//
// Exits non-zero when a row fails, and also when a known deviation starts
// to hold, so the deviation list stays true.
#include <algorithm>
#include <functional>
#include <iterator>
#include <set>

#include "bench_common.h"
#include "browser/matrix.h"
#include "browser/profiles.h"
#include "browser/testsuite.h"

using namespace rev;
using core::FormatDouble;

namespace {

constexpr std::int64_t kDay = util::kSecondsPerDay;

using Cells = std::vector<std::string>;

// Every string the report writes is its own text: none holds a quote or a
// backslash.
std::string Quote(const std::string& s) { return "\"" + s + "\""; }

std::string JsonList(const Cells& cells) {
  std::string out = "[";
  for (std::size_t i = 0; i < cells.size(); ++i)
    out += (i ? ", " : "") + Quote(cells[i]);
  return out + "]";
}

double Share(std::size_t num, std::size_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

std::string Pct(double fraction, int digits = 2) {
  return FormatDouble(100 * fraction, digits) + "%";
}

std::string Ratio(std::size_t num, std::size_t den) {
  return std::to_string(num) + "/" + std::to_string(den);
}

std::string Of(std::size_t num, std::size_t den, int digits = 1) {
  return Ratio(num, den) + " (" + Pct(Share(num, den), digits) + ")";
}

class Report {
 public:
  // Opens the section of one figure or table. A CRLSet scenario names its
  // dates in `scenario`.
  void Section(std::string id, std::string title, std::string scenario = {}) {
    sections_.push_back({std::move(id), std::move(title),
                         std::move(scenario), {}, {}});
  }

  // One paper row. A row known to miss the paper's claim carries the reason
  // in `deviation`, and is expected not to hold.
  void Row(const std::string& id, const std::string& paper,
           const std::string& measured, const std::string& predicate,
           bool holds, const char* deviation = nullptr) {
    const char* verdict = holds ? "pass" : deviation ? "deviation" : "fail";
    if (!holds && !deviation) ++failed_;
    if (holds && deviation) ++stale_;
    std::printf("%-9s %-30s %-24s paper %-26s [%s]%s\n", verdict,
                (sections_.back().id + "." + id).c_str(), measured.c_str(),
                paper.c_str(), predicate.c_str(),
                holds && deviation ? "  <- known deviation now holds" : "");
    std::string json = "{\"id\": " + Quote(id) + ", \"paper\": " +
                       Quote(paper) + ", \"measured\": " + Quote(measured) +
                       ", \"predicate\": " + Quote(predicate) +
                       ", \"verdict\": \"" + verdict + "\"";
    if (deviation) json += ", \"reason\": " + Quote(deviation);
    Append(sections_.back().rows, json + "}");
  }

  // A data table the figure is drawn from, its cells as printed: recorded,
  // not checked.
  void Table(const std::string& name, const Cells& columns,
             const std::vector<Cells>& rows) {
    std::string json = "{\"name\": " + Quote(name) + ", \"columns\": " +
                       JsonList(columns) + ",\n       \"rows\": [";
    for (std::size_t i = 0; i < rows.size(); ++i)
      json += (i ? ",\n        " : "\n        ") + JsonList(rows[i]);
    Append(sections_.back().tables, json + "]}");
  }

  // Writes the JSON file; returns the exit status.
  int Finish(const char* path, double scale) {
    FILE* out = std::fopen(path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path);
      return 1;
    }
    std::fprintf(out, "{\n  \"scale\": %s,\n  \"sections\": [",
                 FormatDouble(scale, 4).c_str());
    for (std::size_t s = 0; s < sections_.size(); ++s) {
      const SectionRecord& section = sections_[s];
      std::fprintf(out, "%s\n    {\"id\": %s, \"title\": %s,", s ? "," : "",
                   Quote(section.id).c_str(), Quote(section.title).c_str());
      if (!section.scenario.empty())
        std::fprintf(out, "\n     \"scenario\": %s,",
                     Quote(section.scenario).c_str());
      std::fprintf(out, "\n     \"rows\": [%s],\n     \"tables\": [%s]}",
                   section.rows.c_str(), section.tables.c_str());
    }
    std::fprintf(out, "\n  ]\n}\n");
    std::fclose(out);
    std::printf("\nwrote %s: %d failing row(s), %d known deviation(s) now "
                "holding\n", path, failed_, stale_);
    return failed_ + stale_ == 0 ? 0 : 1;
  }

 private:
  // Rows and tables are kept as the JSON list bodies they print as.
  struct SectionRecord {
    std::string id, title, scenario, rows, tables;
  };

  static void Append(std::string& list, const std::string& item) {
    list += (list.empty() ? "\n      " : ",\n      ") + item;
  }

  std::vector<SectionRecord> sections_;
  int failed_ = 0;
  int stale_ = 0;
};

// §3.1/§3.2: the scan corpus, the Intermediate and Leaf Sets, and how much
// revocation information they carry.
void DatasetStats(Report& report, bench::World& world) {
  report.Section("s3", "§3 dataset statistics");
  const core::DatasetStats stats = core::ComputeDatasetStats(*world.pipeline);
  const double scaled_leaves = 5'067'476 * world.config.scale;
  std::size_t ca_certs = 0;
  for (const core::Ecosystem::CaEntry& entry : world.eco->cas())
    ca_certs += entry.cross_cert ? 2 : 1;
  const double leaf_crl = Share(stats.leaf_with_crl, stats.leaf_set);
  const double leaf_ocsp = Share(stats.leaf_with_ocsp, stats.leaf_set);
  const double advertised = Share(stats.leaf_still_advertised, stats.leaf_set);
  const double unrevocable = Share(stats.leaf_unrevocable, stats.leaf_set);
  const double int_crl =
      Share(stats.intermediate_with_crl, stats.intermediate_set);
  const double int_ocsp =
      Share(stats.intermediate_with_ocsp, stats.intermediate_set);

  report.Row("weekly_scans", "74", std::to_string(world.num_scans), "== 74",
             world.num_scans == 74);
  report.Row("unique_certificates", "38,514,130 (incl. invalid)",
             std::to_string(stats.unique_certs),
             "== Leaf Set + Intermediate Set (no invalid certificates modeled)",
             stats.unique_certs == stats.leaf_set + stats.intermediate_set);
  report.Row("intermediate_set", "1,946",
             std::to_string(stats.intermediate_set),
             "<= " + std::to_string(ca_certs) + " simulated CA certificates",
             stats.intermediate_set > 0 && stats.intermediate_set <= ca_certs);
  report.Row("leaf_set", "5,067,476", std::to_string(stats.leaf_set),
             "0.5-1.5 x paper x REV_SCALE",
             stats.leaf_set > 0.5 * scaled_leaves &&
                 stats.leaf_set < 1.5 * scaled_leaves);
  report.Row("still_advertised", "45.2%", Pct(advertised, 1), "30-60%",
             advertised > 0.30 && advertised < 0.60);
  report.Row("leaf_crl", "99.9%", Pct(leaf_crl), "> 99%", leaf_crl > 0.99);
  report.Row("leaf_ocsp", "95.0%", Pct(leaf_ocsp),
             "> 85% and < leaf CRL share",
             leaf_ocsp > 0.85 && leaf_ocsp < leaf_crl);
  report.Row("leaf_unrevocable", "4,384 (0.09%)",
             std::to_string(stats.leaf_unrevocable) + " (" +
                 Pct(unrevocable, 3) + ")",
             "< 1%", unrevocable < 0.01);
  report.Row("intermediate_crl", "98.9%", Pct(int_crl, 1), "> 95%",
             int_crl > 0.95);
  report.Row("intermediate_ocsp", "48.5%", Pct(int_ocsp, 1), "30-70%",
             int_ocsp > 0.30 && int_ocsp < 0.70);

  // §3.2: certificates with only an OCSP responder; each is queried.
  core::RevocationCrawler crawler(&world.eco->net());
  std::size_t ocsp_only = 0, answered = 0, revoked = 0;
  const core::CertCorpus& corpus = world.pipeline->corpus();
  for (const core::CertCorpus::Row row : world.pipeline->LeafSet()) {
    if (!corpus.crl_url_ids(row).empty() || corpus.ocsp_url_ids(row).empty())
      continue;
    ++ocsp_only;
    const x509::CertPtr cert = corpus.cert(row);
    for (const core::Ecosystem::CaEntry& entry : world.eco->cas()) {
      if (!(entry.ca->cert()->tbs.subject == cert->tbs.issuer)) continue;
      const auto status = crawler.QueryOcsp(*cert, *entry.ca->cert(),
                                            world.eco->config().study_end);
      if (status) {
        ++answered;
        if (*status == ocsp::CertStatus::kRevoked) ++revoked;
      }
      break;
    }
  }
  report.Row("ocsp_only", "642, each queried",
             std::to_string(ocsp_only) + "; " + std::to_string(answered) +
                 " answered, " + std::to_string(revoked) + " revoked",
             "every responder answers",
             ocsp_only > 0 && answered == ocsp_only);
}

// Fig. 2 and §4.2: the fresh/alive revoked fractions over time, and the
// reason codes of the crawled revocations.
void Fig2(Report& report, bench::World& world) {
  report.Section("fig2", "Fig. 2 fraction of fresh/alive certificates revoked");
  const core::EcosystemConfig& c = world.eco->config();
  const auto points = core::ComputeRevocationTimeline(
      *world.pipeline, *world.crawler, util::MakeDate(2014, 1, 1), c.study_end,
      7 * kDay);
  const double pre = points[12].FreshRevokedFraction();
  const double fresh = points.back().FreshRevokedFraction();
  const double fresh_ev = points.back().FreshEvRevokedFraction();
  const double alive = points.back().AliveRevokedFraction();
  auto rise = [&](std::size_t i) {
    return points[i].FreshRevokedFraction() -
           points[i - 1].FreshRevokedFraction();
  };
  std::size_t spike = 1;
  for (std::size_t i = 1; i < points.size(); ++i)
    if (rise(i) > rise(spike)) spike = i;
  const util::Timestamp spike_time = points[spike].time;

  report.Row("pre_heartbleed_fresh", ">1%", Pct(pre), "> 1%", pre > 0.01);
  report.Row("final_fresh", ">8%", Pct(fresh), "> 8%", fresh > 0.08,
             "the generator's post-Heartbleed wave lands just short; the "
             "spike and its ratio to the pre-Heartbleed level hold");
  report.Row("final_fresh_ev", ">6%", Pct(fresh_ev), "> 6%", fresh_ev > 0.06);
  report.Row("final_alive", "~0.6-1%", Pct(alive), "0.6-1%",
             alive >= 0.006 && alive <= 0.01,
             "the churn model keeps slightly more revoked certificates "
             "advertised; alive stays an order of magnitude below fresh");
  report.Row("fresh_growth", ">8% vs >1%", FormatDouble(fresh / pre, 1) + "x",
             ">= 2.5x pre-Heartbleed", fresh >= 2.5 * pre);
  report.Row("alive_below_fresh", "~0.6-1% vs >8%",
             FormatDouble(alive / fresh, 2) + "x", "alive < 0.35 x fresh",
             alive < 0.35 * fresh);
  report.Row("heartbleed_spike", "Apr 2014", util::FormatDate(spike_time),
             "largest weekly rise within 28 days after " +
                 util::FormatDate(c.heartbleed),
             spike_time >= c.heartbleed &&
                 spike_time <= c.heartbleed + 28 * kDay);
  std::vector<Cells> rows;
  for (std::size_t i = 0; i < points.size(); i += 2) {
    const core::RevocationTimelinePoint& p = points[i];
    rows.push_back({util::FormatDate(p.time),
                    FormatDouble(p.FreshRevokedFraction(), 4),
                    FormatDouble(p.FreshEvRevokedFraction(), 4),
                    FormatDouble(p.AliveRevokedFraction(), 4),
                    FormatDouble(p.AliveEvRevokedFraction(), 4)});
  }
  report.Table("timeline", {"date", "fresh revoked", "fresh EV revoked",
                            "alive revoked", "alive EV revoked"}, rows);

  const std::size_t total = world.crawler->total_revocations();
  const auto histogram = world.crawler->ReasonCodeHistogram();
  const auto none = histogram.find(x509::ReasonCode::kNoReasonCode);
  const double no_reason =
      Share(none == histogram.end() ? 0 : none->second, total);
  report.Row("no_reason_code", "vast majority (§4.2)",
             Pct(no_reason, 1) + " of " + std::to_string(total),
             "> 80% of crawled revocations", no_reason > 0.80);
  rows.clear();
  for (const auto& [reason, count] : histogram)
    rows.push_back({x509::ReasonCodeName(reason), std::to_string(count),
                    FormatDouble(Share(count, total), 3)});
  report.Table("reason_codes", {"reason code", "count", "fraction"}, rows);
}

// Fig. 3 and §4.3: OCSP Stapling support from one handshake scan, and the
// repeat-connection curve.
void Fig3(Report& report, bench::World& world) {
  report.Section("fig3", "Fig. 3 / §4.3 OCSP Stapling adoption");
  const util::Timestamp scan_time = util::MakeDate(2015, 3, 28);
  const core::StaplingStats stats = core::ComputeStaplingStats(
      scan::RunHandshakeScan(world.eco->internet(), scan_time));
  const double servers = stats.ServerFraction();
  const double any = Share(stats.certs_any_staple, stats.fresh_certs);
  const double all = Share(stats.certs_all_staple, stats.fresh_certs);
  const double ev_any = Share(stats.ev_certs_any_staple, stats.ev_fresh_certs);
  const double ev_all = Share(stats.ev_certs_all_staple, stats.ev_fresh_certs);
  report.Row("servers_stapling", "337,856 (2.60%)",
             std::to_string(stats.servers_stapled) + " (" + Pct(servers) + ")",
             "1-5% of " + std::to_string(stats.servers_total) + " servers",
             servers > 0.01 && servers < 0.05);
  report.Row("certs_any_staple", "5.19%", Pct(any),
             "1-10% of " + std::to_string(stats.fresh_certs) + " fresh certs",
             any > 0.01 && any < 0.10);
  report.Row("certs_all_staple", "3.09%", Pct(all), "< >=1-server share",
             all < any);
  report.Row("ev_any_staple", "3.15%", Pct(ev_any),
             "< all certs' >=1-server share", ev_any < any);
  report.Row("ev_all_staple", "1.95%", Pct(ev_all),
             "< all certs' all-servers share", ev_all < all);

  // Repeat connections over 20,000 servers once the scan-warmed staple
  // caches have expired (OCSP validity is 4 days).
  const std::vector<double> curve = core::StaplingRepeatCurve(
      world.eco->internet(), scan_time + 5 * kDay, 10, 20'000, 4242);
  report.Row("single_connection", "~82%", Pct(curve.front(), 1), "70-90%",
             curve.front() > 0.70 && curve.front() < 0.90);
  report.Row("repeats_converge", "all staplers seen after a few",
             FormatDouble(curve.back(), 4) + " after " +
                 std::to_string(curve.size()),
             "non-decreasing, ends at 1",
             std::is_sorted(curve.begin(), curve.end()) && curve.back() == 1.0);
  std::vector<Cells> rows;
  for (std::size_t i = 0; i < curve.size(); ++i)
    rows.push_back({std::to_string(i + 1), FormatDouble(curve[i], 4)});
  report.Table("repeat_curve", {"requests", "fraction observed to staple"},
               rows);
}

// Fig. 4: revocation pointers in new certificates by issuance month.
void Fig4(Report& report, bench::World& world) {
  report.Section("fig4", "Fig. 4 revocation information in new certificates");
  // Mean OCSP share of the months before and from July 2012.
  double ocsp_sum[2] = {0, 0}, min_crl = 1;
  std::size_t months[2] = {0, 0};
  std::vector<Cells> rows;
  for (const core::AdoptionPoint& point :
       core::ComputeRevinfoAdoption(*world.pipeline)) {
    if (point.issued < 10) continue;
    rows.push_back({util::FormatDate(point.month_start).substr(0, 7),
                    std::to_string(point.issued),
                    FormatDouble(point.CrlFraction(), 3),
                    FormatDouble(point.OcspFraction(), 3)});
    if (point.issued >= 60) min_crl = std::min(min_crl, point.CrlFraction());
    const bool late = point.month_start >= util::MakeDate(2012, 7, 1);
    ocsp_sum[late] += point.OcspFraction();
    ++months[late];
  }
  const double before = ocsp_sum[0] / std::max<double>(months[0], 1);
  const double after = ocsp_sum[1] / std::max<double>(months[1], 1);
  report.Row("ocsp_jump", "OCSP jumps to ~100% (RapidSSL, Jul 2012)",
             FormatDouble(before, 3) + " before vs " +
                 FormatDouble(after, 3) + " after",
             "after > 0.95 and after - before > 0.05",
             after > 0.95 && after - before > 0.05);
  report.Row("crl_universal", "CRLs near-universal since 2011",
             FormatDouble(min_crl, 3), "every month with >= 60 issued > 0.96",
             min_crl > 0.96);
  report.Table("monthly", {"month", "issued", "with CRL", "with OCSP"}, rows);
}

// Figs. 5 and 6: CRL size against entries, and the raw vs certificate-
// weighted size distributions.
void Fig5And6(Report& report,
              const std::vector<core::CrlSizeSample>& samples) {
  report.Section("fig5", "Fig. 5 CRL size vs number of entries");
  std::vector<double> xs, ys;
  for (const core::CrlSizeSample& s : samples) {
    if (s.entries == 0) continue;
    xs.push_back(static_cast<double>(s.entries));
    ys.push_back(static_cast<double>(s.bytes));
  }
  const util::LinearFit fit = util::FitLine(xs, ys);
  report.Row("bytes_per_entry", "~38 B/entry",
             FormatDouble(fit.slope, 1) + " B/entry over " +
                 std::to_string(xs.size()) + " CRLs",
             "20-80 B/entry", fit.slope > 20 && fit.slope < 80);
  report.Row("linearity", "strong linear correlation",
             "r = " + FormatDouble(fit.r, 4), "r > 0.98", fit.r > 0.98);
  std::vector<core::CrlSizeSample> ordered = samples;
  std::ranges::sort(ordered, {}, &core::CrlSizeSample::entries);
  // A sample of every 30th CRL by entries, and the largest.
  std::vector<Cells> rows;
  auto add = [&](const core::CrlSizeSample& s) {
    rows.push_back({std::to_string(s.entries),
                    util::HumanBytes(static_cast<double>(s.bytes)),
                    s.entries ? FormatDouble(Share(s.bytes, s.entries), 1)
                              : "-",
                    s.ca_name});
  };
  const std::size_t step = std::max<std::size_t>(1, ordered.size() / 30);
  for (std::size_t i = 0; i < ordered.size(); i += step) add(ordered[i]);
  if (!ordered.empty() && (ordered.size() - 1) % step != 0)
    add(ordered.back());
  report.Table("scatter", {"entries", "size", "bytes/entry", "CA"}, rows);

  report.Section("fig6",
                 "Fig. 6 CDF of CRL sizes, raw vs certificate-weighted");
  const core::CrlSizeDistributions dist =
      core::BuildCrlSizeDistributions(samples);
  const double raw = dist.raw.Median(), weighted = dist.weighted.Median();
  report.Row("raw_median", "<900 B", util::HumanBytes(raw), "< 900 B",
             raw < 900);
  report.Row("weighted_median", "51 KB", util::HumanBytes(weighted),
             "> raw median", weighted > raw);
  report.Row("weighted_over_raw", "~57x", FormatDouble(weighted / raw, 1) + "x",
             ">= 3x (grows with REV_SCALE)", weighted >= 3 * raw);
  report.Row("maximum", "76 MB", util::HumanBytes(dist.raw.Max()),
             ">= 100x raw median", dist.raw.Max() >= 100 * raw);
  rows.clear();
  for (double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.00})
    rows.push_back({FormatDouble(q, 2), util::HumanBytes(dist.raw.Quantile(q)),
                    util::HumanBytes(dist.weighted.Quantile(q))});
  report.Table("quantiles",
               {"percentile", "raw CRL size", "weighted (per cert)"}, rows);
}

// Table 1: per-CA CRLs, certificates, revocations and weighted CRL size.
void Table1(Report& report, bench::World& world,
            const std::vector<core::CrlSizeSample>& samples) {
  using CaRow = core::CaStatsRow;
  report.Section("table1", "Table 1 CRLs, certificates and CRL size per CA");
  const auto rows =
      core::ComputeTable1(samples, *world.pipeline, *world.crawler, *world.eco);
  auto find = [&](const std::string& name) {
    return *std::find_if(rows.begin(), rows.end(),
                         [&](const CaRow& r) { return r.name == name; });
  };
  const CaRow godaddy = find("GoDaddy"), rapidssl = find("RapidSSL");
  bool godaddy_leads = true;
  for (const CaRow& r : rows)
    godaddy_leads = godaddy_leads && r.total_certs <= godaddy.total_certs &&
                    r.num_crls <= godaddy.num_crls &&
                    r.revoked_certs <= godaddy.revoked_certs;
  auto describe = [](const CaRow& r) {
    return std::to_string(r.num_crls) + " / " + std::to_string(r.total_certs) +
           " / " + std::to_string(r.revoked_certs) + " / " +
           FormatDouble(r.avg_crl_size_kb, 1) + " KB";
  };
  report.Row("godaddy_leads", "322 / 1.05M / 277.5k / 1,184 KB",
             describe(godaddy), "first in certificates, CRLs and revocations",
             godaddy_leads);
  report.Row("rapidssl_few_revoked", "5 / 626.8k / 2.2k / 34.5 KB",
             describe(rapidssl), "revoked < 2% of its certificates",
             Share(rapidssl.revoked_certs, rapidssl.total_certs) < 0.02);
  // The table lists the CAs behind at least 10 scanned certificates: the
  // off-web AppleWWDR CRL and the tiny tail CAs drop out.
  std::vector<CaRow> listed;
  std::ranges::copy_if(rows, std::back_inserter(listed),
                       [](const CaRow& r) { return r.total_certs >= 10; });
  std::vector<CaRow> by_size = listed;
  std::ranges::sort(by_size, std::greater{}, &CaRow::avg_crl_size_kb);
  report.Row("outsized_crls", "GoDaddy, GlobalSign, StartCom",
             by_size[0].name + ", " + by_size[1].name + ", " + by_size[2].name,
             "the top 3 by average CRL size",
             std::set<std::string>{by_size[0].name, by_size[1].name,
                                   by_size[2].name} ==
                 std::set<std::string>{"GoDaddy", "GlobalSign", "StartCom"});
  std::vector<Cells> cells;
  for (const CaRow& row : listed)
    cells.push_back({row.name, std::to_string(row.num_crls),
                     std::to_string(row.total_certs),
                     std::to_string(row.revoked_certs),
                     FormatDouble(row.avg_crl_size_kb, 1)});
  report.Table("ca_stats",
               {"CA", "CRLs", "certs", "revoked", "avg CRL size (KB)"}, cells);
}

// Table 2: the 244-case suite run against all 30 browser/OS profiles.
void Table2(Report& report) {
  report.Section("table2", "Table 2 browser test results");
  const util::Timestamp now = util::MakeDate(2015, 3, 31);
  const std::vector<browser::TestCase> suite = browser::GenerateTestSuite();
  const browser::Table2 table = browser::BuildTable2(/*seed=*/2015, now);

  // Per column (one OS variant each): revoked chains rejected and
  // unavailability cases that hard-fail.
  std::vector<Cells> ranking;
  std::set<std::string> seen;
  std::string mobile, rejects_all, rejects_none;  // columns, in paper order
  auto add = [](std::string& list, const std::string& column) {
    list += (list.empty() ? "" : ", ") + column;
  };
  int most_hard_fails = 0, unavailable_cases = 0;
  for (const browser::BrowserProfile& profile : browser::AllProfiles()) {
    if (!seen.insert(profile.column).second) continue;
    if (profile.mobile) add(mobile, profile.column);
    int revoked = 0, revoked_total = 0, unavailable = 0, unavailable_total = 0;
    for (const browser::TestCase& test : suite) {
      if (test.stapling) continue;
      const bool rejected =
          browser::RunCase(test, profile.policy, 2015, now).rejected();
      if (test.revoked_element >= 0) {
        ++revoked_total;
        revoked += rejected;
      } else if (test.failure != browser::FailureMode::kNone) {
        ++unavailable_total;
        unavailable += rejected;
      }
    }
    if (revoked == revoked_total) add(rejects_all, profile.column);
    if (revoked == 0) add(rejects_none, profile.column);
    most_hard_fails = std::max(most_hard_fails, unavailable);
    unavailable_cases = unavailable_total;
    ranking.push_back({profile.column, Ratio(revoked, revoked_total),
                       Ratio(unavailable, unavailable_total)});
  }
  report.Row("suite", "244 cases, 30 profiles",
             std::to_string(suite.size()) + " cases, " +
                 std::to_string(browser::AllProfiles().size()) + " profiles",
             "== 244 cases, 30 profiles",
             suite.size() == 244 && browser::AllProfiles().size() == 30);
  report.Row("mobile_check_nothing", "mobile browsers check nothing",
             rejects_none, "== the mobile columns", rejects_none == mobile);
  report.Row("most_checks", "IE, Safari and Opera 31 check the most",
             rejects_all, "Opera 31.0, Safari, IE reject every revoked chain",
             rejects_all == "Opera 31.0, Safari 6-8, IE 7-9, IE 10, IE 11");
  report.Row("none_meets_all", "no browser meets all criteria",
             "at most " + Ratio(most_hard_fails, unavailable_cases) +
                 " hard-fails",
             "no column hard-fails every unavailability case",
             most_hard_fails < unavailable_cases);
  std::vector<Cells> rows;
  for (const browser::Table2::Row& row : table.rows) {
    Cells cells = {row.section, row.label};
    cells.insert(cells.end(), row.cells.begin(), row.cells.end());
    rows.push_back(cells);
  }
  Cells columns = {"section", "test"};
  columns.insert(columns.end(), table.columns.begin(), table.columns.end());
  report.Table("matrix", columns, rows);
  report.Table("ranking", {"profile", "revoked chains rejected",
                           "unavailability hard-fails"}, ranking);
}

// The four CRLSet scenarios of §7, each a daily generator run over the same
// world's CAs with its own auditor.
std::string Span(util::Timestamp from, util::Timestamp to) {
  return util::FormatDate(from) + " to " + util::FormatDate(to);
}

void Fig7(Report& report, bench::World& world) {
  const util::Timestamp start = world.eco->config().crawl_start;
  const util::Timestamp now = start + 30 * kDay;
  report.Section("fig7", "Fig. 7 / §7.2 CRLSet coverage", Span(start, now));
  core::CrlsetAuditor auditor(world.eco.get(),
                              bench::ScaledCrlsetConfig(world.config.scale));
  auditor.RunDaily(start, now);
  const auto cdf = auditor.ComputeCoverageCdf(now);
  const auto stats =
      auditor.ComputeCoverage(now, *world.pipeline, *world.crawler);
  const double fully = 1.0 - cdf.reason_coded.CdfAt(0.999);
  report.Row("revocations_covered", "41,105/11,461,935 (0.35%)",
             Of(stats.crlset_entries, stats.total_revocations, 2), "< 1%",
             Share(stats.crlset_entries, stats.total_revocations) < 0.01);
  report.Row("parents_covered", "62/1,584 (3.9%)",
             Of(stats.covered_parents, stats.total_parents), "< 50% of CAs",
             2 * stats.covered_parents < stats.total_parents);
  report.Row("crls_covered", "295/2,800 (10.5%)",
             Of(stats.covered_crls, stats.total_crls), "< 50% of CRLs",
             2 * stats.covered_crls < stats.total_crls);
  report.Row("fully_covered", "75.6%", Pct(fully, 1), "> 50% of covered CRLs",
             fully > 0.5);
  report.Row("top1m_covered", "1,644/42,225 (3.9%); top-1k 41/392",
             Of(stats.top1m_in_crlset, stats.top1m_revoked) + "; top-1k " +
                 Ratio(stats.top1k_in_crlset, stats.top1k_revoked),
             "top-1M < 25%",
             Share(stats.top1m_in_crlset, stats.top1m_revoked) < 0.25);
  std::vector<Cells> rows;
  for (double x : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0})
    rows.push_back({FormatDouble(x, 2),
                    FormatDouble(cdf.all_entries.CdfAt(x), 3),
                    FormatDouble(cdf.reason_coded.CdfAt(x), 3)});
  report.Table("cdf", {"coverage fraction", "CDF (all entries)",
                       "CDF (CRLSet reason codes)"}, rows);
}

void Fig8(Report& report, bench::World& world) {
  const core::EcosystemConfig& c = world.eco->config();
  core::CrlsetAuditor::Options options;
  options.parent_removal_date = util::MakeDate(2014, 5, 20);
  const util::Timestamp removal = *options.parent_removal_date;
  const util::Timestamp start = util::MakeDate(2013, 7, 18);
  report.Section("fig8", "Fig. 8 CRLSet entries over time",
                 Span(start, c.study_end) + "; " + options.parent_removal_ca +
                     " parent removed " + util::FormatDate(removal));
  core::CrlsetAuditor auditor(world.eco.get(),
                              bench::ScaledCrlsetConfig(world.config.scale));
  auditor.RunDaily(start, c.study_end, options);
  const auto& days = auditor.days();
  const auto peak = std::ranges::max_element(
      days, {}, &core::CrlsetAuditor::DayRecord::crlset_entries);
  // Days are consecutive from `start`.
  const std::size_t removal_index = (removal - start) / kDay;
  const std::size_t before = days[removal_index - 1].crlset_entries;
  const std::size_t after = days[removal_index + 2].crlset_entries;
  const std::size_t final_entries = days.back().crlset_entries;
  const double decline = 1.0 - Share(final_entries, peak->crlset_entries);
  report.Row("heartbleed_peak", "~24.9k at Heartbleed (Apr 2014)",
             std::to_string(peak->crlset_entries) + " on " +
                 util::FormatDate(peak->day),
             "peak within 60 days after " + util::FormatDate(c.heartbleed),
             peak->day >= c.heartbleed &&
                 peak->day <= c.heartbleed + 60 * kDay);
  report.Row("parent_removal_drop", "5,774 entries removed",
             std::to_string(before) + " -> " + std::to_string(after),
             "drops > 10%", after < 0.9 * static_cast<double>(before));
  report.Row("final_decline", ">1/3 below peak",
             std::to_string(final_entries) + " (" + Pct(decline, 0) +
                 " below peak)",
             "> 33% below peak", decline > 1.0 / 3);
  std::vector<Cells> rows;
  for (std::size_t i = 0; i < days.size(); i += 14)
    rows.push_back({util::FormatDate(days[i].day),
                    std::to_string(days[i].crlset_entries)});
  report.Table("entries", {"date", "CRLSet entries"}, rows);
}

void Fig9(Report& report, bench::World& world) {
  const core::EcosystemConfig& c = world.eco->config();
  core::CrlsetAuditor::Options options;
  options.outage_start = util::MakeDate(2014, 11, 20);
  options.outage_end = util::MakeDate(2014, 12, 4);
  report.Section("fig9", "Fig. 9 daily additions to CRLs vs CRLSets",
                 Span(c.crawl_start, c.study_end) + "; generator outage " +
                     Span(*options.outage_start, *options.outage_end));
  core::CrlsetAuditor auditor(world.eco.get(),
                              bench::ScaledCrlsetConfig(world.config.scale));
  auditor.RunDaily(c.crawl_start, c.study_end, options);
  const auto& days = auditor.days();
  std::size_t crl_total = 0, crlset_total = 0, outage = 0;
  std::vector<Cells> rows;
  // Day 0 is the initial flood when tracking starts.
  for (std::size_t i = 1; i < days.size(); ++i) {
    crl_total += days[i].crl_new_entries;
    crlset_total += days[i].crlset_new_entries;
    if (days[i].day >= *options.outage_start &&
        days[i].day < *options.outage_end)
      outage += days[i].crlset_new_entries;
    if (i % 4 == 1)
      rows.push_back({util::FormatDate(days[i].day),
                      std::to_string(days[i].crl_new_entries),
                      std::to_string(days[i].crlset_new_entries)});
  }
  report.Row("crl_vs_crlset", "orders of magnitude more in CRLs",
             std::to_string(crl_total) + " vs " + std::to_string(crlset_total) +
                 " (" + FormatDouble(Share(crl_total, crlset_total), 1) + "x)",
             ">= 10x", crl_total >= 10 * crlset_total);
  report.Row("outage_additions", "none for two weeks", std::to_string(outage),
             "== 0", outage == 0);
  report.Table("daily", {"date", "new CRL entries", "new CRLSet entries"},
               rows);
}

void Fig10(Report& report, bench::World& world) {
  const core::EcosystemConfig& c = world.eco->config();
  core::CrlsetAuditor::Options options;
  options.parent_removal_date = util::MakeDate(2014, 12, 15);
  report.Section("fig10", "Fig. 10 CRLSet windows of vulnerability",
                 Span(c.crawl_start, c.study_end) + "; " +
                     options.parent_removal_ca + " parent removed " +
                     util::FormatDate(*options.parent_removal_date));
  core::CrlsetAuditor auditor(world.eco.get(),
                              bench::ScaledCrlsetConfig(world.config.scale));
  auditor.RunDaily(c.crawl_start, c.study_end, options);
  const util::Distribution appear = auditor.DaysToAppear();
  const util::Distribution removal = auditor.RemovalToExpiryDays();
  report.Row("appear_1day", "60%",
             Pct(appear.CdfAt(1.0), 0) + " of " +
                 std::to_string(appear.Count()),
             ">= 60%", appear.CdfAt(1.0) >= 0.60);
  report.Row("appear_2days", ">90%", Pct(appear.CdfAt(2.0), 0), "> 90%",
             appear.CdfAt(2.0) > 0.90,
             "generation runs exactly daily, so no entry lands on day 2; the "
             "tail is CRLs over the per-CRL entry cap, which wait for weeks");
  report.Row("removal_median", "187 days",
             FormatDouble(removal.Median(), 0) + " days over " +
                 std::to_string(removal.Count()),
             "94-374 days (0.5-2x paper)",
             removal.Median() >= 94 && removal.Median() <= 374);
  std::vector<Cells> rows;
  for (double d : {1.0, 2.0, 3.0, 7.0, 30.0, 90.0, 187.0, 365.0, 1000.0})
    rows.push_back({FormatDouble(d, 0), FormatDouble(appear.CdfAt(d), 3),
                    FormatDouble(removal.CdfAt(d), 3)});
  report.Table("cdf",
               {"days", "CDF: days to appear", "CDF: removal -> expiry"}, rows);
}

}  // namespace

int main() {
  bench::World world = bench::World::Build(bench::ScaleFromEnv());
  Report report;
  DatasetStats(report, world);
  Fig2(report, world);
  Fig3(report, world);
  Fig4(report, world);
  const auto samples =
      core::CollectCrlSizes(*world.crawler, *world.pipeline, *world.eco);
  Fig5And6(report, samples);
  Table1(report, world, samples);
  Table2(report);
  // The CRLSet scenarios replay earlier days against CAs the crawl already
  // took to the study's end; each CA re-issues the CRL of the day asked for.
  Fig7(report, world);
  Fig8(report, world);
  Fig9(report, world);
  Fig10(report, world);
  const int status = report.Finish("PAPER_RESULTS.json", world.config.scale);
  obs::DistTraceCollector::Global().ExportFromEnv();  // REV_TRACE=<file>
  return status;
}
