// The CRLSet audit (§7): simulates Google's daily CRLSet generation over
// the ecosystem's CRLs and measures coverage (Fig. 7, §7.2), size dynamics
// (Fig. 8), daily additions (Fig. 9), and windows of vulnerability
// (Fig. 10). The Bloom/GCS alternative of Fig. 11 builds on the same data.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "core/crawler.h"
#include "core/ecosystem.h"
#include "core/pipeline.h"
#include "crlset/crlset.h"
#include "crlset/generator.h"
#include "util/stats.h"
#include "util/time.h"

namespace rev::core {

class CrlsetAuditor {
 public:
  CrlsetAuditor(Ecosystem* eco, crlset::GeneratorConfig config);

  struct Options {
    // The paper observed a two-week gap with no CRLSet additions
    // (Nov–Dec 2014, Fig. 9); reproduce it as a generator outage.
    std::optional<util::Timestamp> outage_start;
    std::optional<util::Timestamp> outage_end;
    // The "VeriSign Class 3 EV" parent removal (May 2014, Fig. 8): from
    // this day on the named CA's CRLs no longer feed the CRLSet.
    std::optional<util::Timestamp> parent_removal_date;
    std::string parent_removal_ca = "Verisign";
  };

  // Runs daily generation from `start` to `end` inclusive.
  void RunDaily(util::Timestamp start, util::Timestamp end,
                const Options& options);
  void RunDaily(util::Timestamp start, util::Timestamp end) {
    RunDaily(start, end, Options{});
  }

  struct DayRecord {
    util::Timestamp day = 0;
    std::size_t crlset_entries = 0;
    std::size_t crl_new_entries = 0;     // Fig. 9 upper line
    std::size_t crlset_new_entries = 0;  // Fig. 9 lower line
  };
  const std::vector<DayRecord>& days() const { return days_; }

  const crlset::CrlSet& latest() const { return latest_; }

  // Fig. 10 distributions, in days.
  util::Distribution DaysToAppear() const;
  util::Distribution RemovalToExpiryDays() const;

  // Fig. 7: per covered CRL, the fraction of its entries in the final
  // CRLSet — over all entries and over CRLSet-reason-coded entries only.
  struct CoverageCdf {
    util::Distribution all_entries;
    util::Distribution reason_coded;
    std::size_t covered_crls = 0;  // CRLs that ever contributed an entry
    std::size_t total_crls = 0;
  };
  CoverageCdf ComputeCoverageCdf(util::Timestamp now);

  // §7.2 headline numbers.
  struct CoverageStats {
    std::size_t total_revocations = 0;    // entries across all CRLs
    std::size_t crlset_entries = 0;
    std::size_t total_parents = 0;        // CA certificates
    std::size_t covered_parents = 0;
    std::size_t covered_crls = 0;
    std::size_t total_crls = 0;
    // Alexa-tier coverage of revoked Leaf Set certificates.
    std::size_t top1k_revoked = 0, top1k_in_crlset = 0;
    std::size_t top1m_revoked = 0, top1m_in_crlset = 0;
  };
  CoverageStats ComputeCoverage(util::Timestamp now, const Pipeline& pipeline,
                                const RevocationCrawler& crawler);

 private:
  struct EntryTrack {
    util::Timestamp first_in_crl = 0;
    util::Timestamp first_in_crlset = 0;  // 0 = never
    util::Timestamp left_crlset = 0;      // 0 = still there or never
    util::Timestamp cert_expiry = 0;
    util::Timestamp left_crl = 0;         // 0 = still present
  };

  Ecosystem* eco_;
  crlset::GeneratorConfig config_;
  int sequence_ = 0;
  crlset::CrlSet latest_;
  std::vector<DayRecord> days_;
  // (parent spki hash, serial) -> track
  std::map<std::pair<Bytes, x509::Serial>, EntryTrack, util::BytesLess>
      tracks_;
  // (ca index, shard) -> last CRL number folded into the tracker.
  std::map<std::pair<std::size_t, int>, std::int64_t> last_seen_crl_number_;
};

}  // namespace rev::core
