#include "core/crlset_audit.h"

#include <algorithm>

namespace rev::core {

CrlsetAuditor::CrlsetAuditor(Ecosystem* eco, crlset::GeneratorConfig config)
    : eco_(eco), config_(config) {}

void CrlsetAuditor::RunDaily(util::Timestamp start, util::Timestamp end,
                             const Options& options) {
  // From the removal day on, the removed parent's sources are dropped here:
  // the Ecosystem is shared with the other analyses of the same world.
  std::optional<Bytes> removed_parent;
  if (options.parent_removal_date) {
    for (const Ecosystem::CaEntry& entry : eco_->cas()) {
      if (entry.spec.name != options.parent_removal_ca) continue;
      removed_parent = entry.ca->cert()->SubjectSpkiSha256();
      break;
    }
  }
  for (util::Timestamp day = start; day <= end; day += util::kSecondsPerDay) {
    DayRecord record;
    record.day = day;

    // Track every CRL entry across ALL CAs (Fig. 9's upper line). CRLs that
    // have not been re-issued since the last visit are skipped — big
    // off-web CRLs refresh weekly and scanning them daily would dominate.
    for (std::size_t ca_index = 0; ca_index < eco_->cas().size(); ++ca_index) {
      const Ecosystem::CaEntry& entry = eco_->cas()[ca_index];
      const Bytes parent = entry.ca->cert()->SubjectSpkiSha256();
      for (int shard = 0; shard < entry.spec.num_crls; ++shard) {
        const crl::Crl& crl = entry.ca->GetCrl(shard, day);
        const auto shard_key = std::make_pair(ca_index, shard);
        auto seen_it = last_seen_crl_number_.find(shard_key);
        if (seen_it != last_seen_crl_number_.end() &&
            seen_it->second == crl.tbs.crl_number)
          continue;
        last_seen_crl_number_[shard_key] = crl.tbs.crl_number;
        for (const crl::CrlEntry& crl_entry : crl.tbs.entries) {
          auto [it, inserted] =
              tracks_.try_emplace(std::make_pair(parent, crl_entry.serial));
          if (inserted) {
            it->second.first_in_crl = day;
            it->second.cert_expiry = entry.ca->ExpiryOf(crl_entry.serial);
            ++record.crl_new_entries;
          }
        }
      }
    }

    const bool in_outage =
        options.outage_start && options.outage_end &&
        day >= *options.outage_start && day < *options.outage_end;

    if (!in_outage) {
      std::vector<crlset::CrlSource> sources = eco_->CrlSetSources(day);
      if (removed_parent && day >= *options.parent_removal_date)
        std::erase_if(sources, [&](const crlset::CrlSource& source) {
          return source.parent_spki_sha256 == *removed_parent;
        });
      crlset::CrlSet next =
          crlset::GenerateCrlSet(sources, config_, ++sequence_);

      // Additions.
      for (const auto& [parent, serials] : next.parents()) {
        for (const x509::Serial& serial : serials) {
          auto [it, inserted] =
              tracks_.try_emplace(std::make_pair(parent, serial));
          EntryTrack& track = it->second;
          if (inserted) track.first_in_crl = day;
          if (track.first_in_crlset == 0) {
            track.first_in_crlset = day;
            ++record.crlset_new_entries;
          }
          track.left_crlset = 0;  // (re)present
        }
      }
      // Removals: entries in the previous set absent from the new one.
      for (const auto& [parent, serials] : latest_.parents()) {
        for (const x509::Serial& serial : serials) {
          if (next.IsRevoked(parent, serial)) continue;
          auto it = tracks_.find(std::make_pair(parent, serial));
          if (it != tracks_.end() && it->second.left_crlset == 0)
            it->second.left_crlset = day;
        }
      }
      latest_ = std::move(next);
    }

    record.crlset_entries = latest_.NumEntries();
    days_.push_back(record);
  }
}

util::Distribution CrlsetAuditor::DaysToAppear() const {
  util::Distribution dist;
  for (const auto& [key, track] : tracks_) {
    if (track.first_in_crlset == 0) continue;
    const double days = static_cast<double>(track.first_in_crlset -
                                            track.first_in_crl) /
                        static_cast<double>(util::kSecondsPerDay);
    dist.Add(std::max(days, 0.0) + 1.0);  // same-day discovery counts as 1
  }
  return dist;
}

util::Distribution CrlsetAuditor::RemovalToExpiryDays() const {
  util::Distribution dist;
  for (const auto& [key, track] : tracks_) {
    if (track.left_crlset == 0 || track.cert_expiry == 0) continue;
    if (track.cert_expiry <= track.left_crlset) continue;  // expiry removal
    dist.Add(static_cast<double>(track.cert_expiry - track.left_crlset) /
             static_cast<double>(util::kSecondsPerDay));
  }
  return dist;
}

CrlsetAuditor::CoverageCdf CrlsetAuditor::ComputeCoverageCdf(
    util::Timestamp now) {
  CoverageCdf cdf;
  for (const Ecosystem::CaEntry& entry : eco_->cas()) {
    const Bytes parent = entry.ca->cert()->SubjectSpkiSha256();
    for (int shard = 0; shard < entry.spec.num_crls; ++shard) {
      const crl::Crl& crl = entry.ca->GetCrl(shard, now);
      ++cdf.total_crls;
      if (crl.tbs.entries.empty()) continue;
      std::size_t present = 0, eligible = 0;
      for (const crl::CrlEntry& crl_entry : crl.tbs.entries) {
        if (crlset::IsCrlSetReasonCode(crl_entry.reason)) ++eligible;
        if (latest_.IsRevoked(parent, crl_entry.serial)) ++present;
      }
      if (present == 0) continue;
      ++cdf.covered_crls;
      cdf.all_entries.Add(static_cast<double>(present) /
                          static_cast<double>(crl.tbs.entries.size()));
      if (eligible > 0)
        cdf.reason_coded.Add(static_cast<double>(present) /
                             static_cast<double>(eligible));
    }
  }
  return cdf;
}

CrlsetAuditor::CoverageStats CrlsetAuditor::ComputeCoverage(
    util::Timestamp now, const Pipeline& pipeline,
    const RevocationCrawler& crawler) {
  CoverageStats stats;
  std::size_t total_entries = 0;
  (void)eco_->CrlSetSources(now, &total_entries);
  stats.total_revocations = total_entries;
  stats.crlset_entries = latest_.NumEntries();
  stats.total_parents = eco_->cas().size();
  stats.covered_parents = latest_.NumParents();

  const CoverageCdf cdf = ComputeCoverageCdf(now);
  stats.covered_crls = cdf.covered_crls;
  stats.total_crls = cdf.total_crls;

  // Alexa-tier coverage: for revoked Leaf Set certs, is the revocation in
  // the CRLSet?
  std::map<std::string, Bytes> parent_by_ca;
  for (const Ecosystem::CaEntry& entry : eco_->cas())
    parent_by_ca[entry.spec.name] = entry.ca->cert()->SubjectSpkiSha256();

  const CertCorpus& corpus = pipeline.corpus();
  // URL id -> CA name, resolved once per distinct URL.
  std::vector<std::string> name_memo(corpus.num_urls());
  std::vector<bool> name_resolved(corpus.num_urls(), false);
  auto name_for = [&](std::uint32_t url_id) -> const std::string& {
    if (!name_resolved[url_id]) {
      name_resolved[url_id] = true;
      name_memo[url_id] = eco_->CaNameForUrl(std::string(corpus.url(url_id)));
    }
    return name_memo[url_id];
  };
  for (const CertCorpus::Row row : pipeline.LeafSet()) {
    const BytesView issuer = corpus.name_der(corpus.issuer_id(row));
    const BytesView serial_view = corpus.serial(row);
    if (!crawler.db().Lookup(issuer, serial_view)) continue;
    const Bytes fp(corpus.fingerprint(row).begin(),
                   corpus.fingerprint(row).end());
    const PopularityTier tier = eco_->TierOf(fp);
    if (tier == PopularityTier::kOther) continue;

    std::string ca_name;
    for (const std::uint32_t url_id : corpus.crl_url_ids(row)) {
      ca_name = name_for(url_id);
      if (!ca_name.empty()) break;
    }
    const x509::Serial serial(serial_view.begin(), serial_view.end());
    auto parent_it = parent_by_ca.find(ca_name);
    const bool in_crlset = parent_it != parent_by_ca.end() &&
                           latest_.IsRevoked(parent_it->second, serial);

    if (tier == PopularityTier::kTop1k) {
      ++stats.top1k_revoked;
      if (in_crlset) ++stats.top1k_in_crlset;
    }
    // Top 1k is a subset of top 1M in the paper's framing.
    ++stats.top1m_revoked;
    if (in_crlset) ++stats.top1m_in_crlset;
  }
  return stats;
}

}  // namespace rev::core
