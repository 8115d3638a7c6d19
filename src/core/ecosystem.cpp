#include "core/ecosystem.h"

#include <algorithm>
#include <cmath>

namespace rev::core {

void EcosystemConfig::ApplyDefaults() {
  if (issuance_start == 0) issuance_start = util::MakeDate(2011, 1, 1);
  if (study_start == 0) study_start = util::MakeDate(2013, 10, 30);
  if (study_end == 0) study_end = util::MakeDate(2015, 3, 31);
  if (crawl_start == 0) crawl_start = util::MakeDate(2014, 10, 2);
  if (heartbleed == 0) heartbleed = util::MakeDate(2014, 4, 8);
}

std::vector<CaSpec> DefaultCaSpecs() {
  // Calibrated from Table 1 (certificate and CRL counts, serial-length
  // policies) and §5.1 (OCSP adoption; RapidSSL adopted July 2012).
  const util::Timestamp early = util::MakeDate(2009, 1, 1);
  const util::Timestamp rapidssl_ocsp = util::MakeDate(2012, 7, 1);
  std::vector<CaSpec> specs = {
      // name        crls  certs      rev/yr  hb     ser  skew  ocsp-date
      {"GoDaddy", 322, 1'050'014, 0.140, 0.55, 20, 1.6, early, 0.92, false, 0,
       180'000},
      {"RapidSSL", 5, 626'774, 0.0020, 0.015, 16, 0.5, rapidssl_ocsp, 0.95,
       true, 0, 3'000},
      {"Comodo", 30, 447'506, 0.009, 0.070, 16, 1.2, early, 0.90, true, 0,
       38'000, 0.25},
      {"PositiveSSL", 3, 415'075, 0.010, 0.070, 16, 1.0, early, 0.90, false, 0,
       20'000},
      {"GeoTrust", 27, 335'380, 0.0045, 0.030, 12, 0.9, early, 0.95, true, 0,
       2'000},
      {"Verisign", 37, 311'788, 0.028, 0.150, 21, 1.2, early, 0.85, true, 0,
       12'000, 0.35},
      {"Thawte", 32, 278'563, 0.009, 0.070, 12, 0.9, early, 0.90, true, 0,
       2'500},
      {"GlobalSign", 26, 247'819, 0.055, 0.250, 20, 1.8, early, 0.88, false, 0,
       78'000, 0.30},
      {"StartCom", 17, 236'776, 0.0035, 0.025, 16, 2.0, early, 0.85, false, 0,
       290'000},
      // Off-web CRL populations: CAs whose CRLs dominate the raw entry
      // counts but whose certificates are rarely served on port 443. The
      // first stands in for Apple WWDR (the 76 MB / 2.6M-entry CRL).
      {"AppleWWDR", 1, 4'000, 0.05, 0.0, 16, 0.0, early, 0.95, false,
       2'600'000},
      {"OffWebOps", 12, 0, 0.0, 0.0, 18, 0.6, early, 0.9, false, 8'500'000},
  };
  return specs;
}

namespace {

constexpr std::int64_t kYear = 365 * util::kSecondsPerDay;

std::vector<double> ZipfWeights(int n, double s) {
  std::vector<double> weights(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    weights[static_cast<std::size_t>(i)] = 1.0 / std::pow(i + 1, s);
  return weights;
}

}  // namespace

void Ecosystem::BuildCas(util::Rng& rng) {
  // Roots.
  std::vector<ca::CertificateAuthority*> root_cas;
  for (int i = 0; i < config_.num_roots; ++i) {
    ca::CertificateAuthority::Options options;
    options.name = "SimRoot " + std::to_string(i + 1);
    options.domain = "root" + std::to_string(i + 1) + ".sim";
    auto root = ca::CertificateAuthority::CreateRoot(
        options, rng, util::MakeDate(2006, 1, 1),
        25 * kYear);
    root->RegisterEndpoints(&net_);
    roots_.Add(root->cert());
    root_cas.push_back(root.get());
    owned_cas_.push_back(std::move(root));
  }

  std::vector<CaSpec> specs = DefaultCaSpecs();
  // Tail of small CAs, one CRL each; a slice of them is google-crawled
  // (most covered CRLs are small ones, §7.2).
  for (int i = 0; i < config_.num_tail_cas; ++i) {
    CaSpec spec;
    spec.name = "SmallCA" + std::to_string(i + 1);
    spec.num_crls = 1;
    spec.paper_certs = 8'000 + (static_cast<std::size_t>(i) % 7) * 3'000;
    spec.steady_revoke_per_year = 0.004 + 0.001 * (i % 5);
    spec.heartbleed_revoke_prob = 0.03;
    spec.serial_bytes = 10 + (i % 3) * 4;
    spec.ocsp_adoption = util::MakeDate(2009 + (i % 4), 1 + (i % 12), 1);
    spec.crlset_reason_fraction = 0.85 + 0.03 * (i % 5);
    spec.google_crawled = (i % 4) == 0;
    specs.push_back(spec);
  }

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const CaSpec& spec = specs[i];
    ca::CertificateAuthority::Options options;
    options.name = spec.name;
    options.domain = spec.name + ".sim";
    for (char& c : options.domain)
      if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    // Shard counts scale with the certificate population (at reduced scale,
    // keeping all 322 of GoDaddy's CRLs would make every CRL trivially
    // small and destroy the Fig. 6 weighted-size shape). Off-web CRL
    // populations keep their structural shard counts.
    int effective_shards = spec.num_crls;
    if (spec.paper_offweb_revocations == 0) {
      effective_shards = static_cast<int>(
          std::llround(static_cast<double>(spec.num_crls) * config_.scale * 100));
      effective_shards = std::clamp(effective_shards, 1, spec.num_crls);
    }
    options.num_crl_shards = effective_shards;
    options.serial_bytes = spec.serial_bytes;
    // Off-web CRL populations re-issue weekly (they are huge and their
    // churn does not matter day-to-day); web CAs re-issue daily (§5.2:
    // 95% of CRLs expire within 24 hours).
    if (spec.paper_offweb_revocations > 0)
      options.crl_validity_seconds = 7 * util::kSecondsPerDay;
    // Roughly half of real intermediate certificates carry no OCSP pointer
    // (§3.2: 48.5%) — they predate OCSP adoption.
    const bool intermediate_has_ocsp = (i % 2) == 0;
    auto ca = root_cas[i % root_cas.size()]->CreateIntermediate(
        options, rng, util::MakeDate(2008, 1, 1), 15 * kYear,
        /*include_crl_url=*/true, intermediate_has_ocsp);
    if (spec.shard_skew > 0)
      ca->SetShardWeights(ZipfWeights(effective_shards, spec.shard_skew));
    ca->RegisterEndpoints(&net_);
    host_to_ca_name_[ca->CrlHost()] = spec.name;
    host_to_ca_name_[ca->OcspHost()] = spec.name;
    CaSpec effective_spec = spec;
    effective_spec.num_crls = effective_shards;
    CaEntry entry;
    entry.spec = std::move(effective_spec);
    entry.ca = ca.get();

    // Optional second-level sub-CA.
    if (spec.subca_fraction > 0) {
      ca::CertificateAuthority::Options sub_options;
      sub_options.name = spec.name + " SubCA";
      sub_options.domain = "sub." + options.domain;
      sub_options.num_crl_shards = std::max(1, effective_shards / 4);
      sub_options.serial_bytes = spec.serial_bytes;
      auto sub = ca->CreateIntermediate(sub_options, rng,
                                        util::MakeDate(2010, 1, 1), 12 * kYear);
      if (spec.shard_skew > 0)
        sub->SetShardWeights(
            ZipfWeights(sub_options.num_crl_shards, spec.shard_skew));
      sub->RegisterEndpoints(&net_);
      host_to_ca_name_[sub->CrlHost()] = sub_options.name;
      host_to_ca_name_[sub->OcspHost()] = sub_options.name;
      entry.sub_ca = sub.get();

      CaSpec sub_spec = spec;
      sub_spec.name = sub_options.name;
      sub_spec.num_crls = sub_options.num_crl_shards;
      sub_spec.paper_certs = 0;  // issuance is driven from the parent entry
      sub_spec.paper_offweb_revocations = 0;
      sub_spec.paper_hidden_revocations = spec.paper_hidden_revocations / 5;
      sub_spec.subca_fraction = 0;
      CaEntry sub_entry;
      sub_entry.spec = std::move(sub_spec);
      sub_entry.ca = sub.get();
      sub_entry.parent_ca = ca.get();
      ca_entries_.push_back(std::move(sub_entry));
      owned_cas_.push_back(std::move(sub));
    }

    // Cross-sign GeoTrust by a second root (same subject and key, different
    // issuer; §2.1 footnote 3) so scans contain certificates with multiple
    // valid paths and the pipeline's path building is exercised at scale.
    if (spec.name == "GeoTrust" && root_cas.size() >= 2) {
      ca::CertificateAuthority* signer =
          root_cas[(i + 1) % root_cas.size()];
      x509::TbsCertificate cross_tbs = ca->cert()->tbs;
      cross_tbs.issuer = signer->cert()->tbs.subject;
      cross_tbs.serial.push_back(0x77);  // distinct serial under the signer
      entry.cross_cert = std::make_shared<const x509::Certificate>(
          x509::SignCertificate(cross_tbs, signer->key()));
    }

    ca_entries_.push_back(std::move(entry));
    owned_cas_.push_back(std::move(ca));
  }
}

void Ecosystem::IssuePopulation(util::Rng& rng) {
  const util::Timestamp issuance_end = config_.study_end;
  const double issuance_span =
      static_cast<double>(issuance_end - config_.issuance_start);

  for (CaEntry& entry : ca_entries_) {
    const CaSpec& spec = entry.spec;
    ca::CertificateAuthority& ca = *entry.ca;

    // Hidden and off-web CRL populations scale more slowly than the scanned
    // certificate population: scaling them linearly would collapse every
    // CRL to a few hundred bytes and erase the raw-vs-weighted size
    // structure of Fig. 6 (per-CRL entry counts are what the figures
    // measure, and they do not shrink just because we scan fewer hosts).
    const double hidden_scale = std::min(1.0, config_.scale * 10);

    // Off-web revocation mass (not tied to served certificates).
    if (spec.paper_offweb_revocations > 0) {
      const auto count = static_cast<std::size_t>(
          static_cast<double>(spec.paper_offweb_revocations) * hidden_scale);
      ca.AddSyntheticRevocations(
          count, rng, config_.issuance_start, config_.study_end,
          config_.study_end + 30 * util::kSecondsPerDay,
          config_.study_end + 5 * kYear, x509::ReasonCode::kNoReasonCode);
    }

    // Hidden revocations: entries in this CA's CRLs for certificates the
    // scans never see (the CA's non-web issuance). They expire across the
    // study and beyond, feeding the CRL-shrinkage dynamics.
    if (spec.paper_hidden_revocations > 0) {
      const auto count = static_cast<std::size_t>(
          static_cast<double>(spec.paper_hidden_revocations) * hidden_scale);
      // 70% steady-state (revocation dates spread over the study) plus a
      // 30% Heartbleed-clustered batch: the hidden populations were hit by
      // the vulnerability too, which is what puts the CRLSet entry-count
      // peak at April 2014 (Fig. 8).
      const auto hb_count = count * 3 / 10;
      const util::Timestamp expiry_max =
          config_.study_end + 240 * util::kSecondsPerDay;
      ca.AddSyntheticRevocations(count - hb_count, rng,
                                 config_.issuance_start, config_.study_end,
                                 config_.study_start + 30 * util::kSecondsPerDay,
                                 expiry_max, x509::ReasonCode::kNoReasonCode);
      ca.AddSyntheticRevocations(hb_count, rng, config_.heartbleed,
                                 config_.heartbleed + 30 * util::kSecondsPerDay,
                                 config_.heartbleed + 60 * util::kSecondsPerDay,
                                 expiry_max, x509::ReasonCode::kKeyCompromise);
    }

    const auto num_certs = static_cast<std::size_t>(
        static_cast<double>(spec.paper_certs) * config_.scale);
    for (std::size_t c = 0; c < num_certs; ++c) {
      // Issuance time: density grows linearly over the window.
      const double u = std::sqrt(rng.UniformDouble());
      const util::Timestamp issued =
          config_.issuance_start +
          static_cast<util::Timestamp>(u * issuance_span);

      // Lifetime: 1y (45%), 2y (33%), 3y (22%).
      const double lv = rng.UniformDouble();
      const std::int64_t lifetime =
          lv < 0.45 ? kYear : (lv < 0.78 ? 2 * kYear : 3 * kYear);
      const util::Timestamp expiry = issued + lifetime;
      // Certificates dead before the first scan never enter the dataset.
      if (expiry < config_.study_start) continue;

      ca::CertificateAuthority::IssueOptions issue;
      issue.common_name = "www.site" + std::to_string(total_issued_) + ".sim";
      issue.ev = rng.Chance(config_.ev_fraction);
      issue.not_before = issued;
      issue.lifetime_seconds = lifetime;
      const bool unrevocable = rng.Chance(config_.unrevocable_fraction);
      issue.include_crl_url = !unrevocable && rng.Chance(0.999);
      issue.include_ocsp_url =
          !unrevocable && issued >= spec.ocsp_adoption && rng.Chance(0.99);
      if (unrevocable) {
        issue.include_crl_url = false;
        issue.include_ocsp_url = false;
      }
      // A slice of the population is issued through the sub-CA, producing
      // two-intermediate chains.
      ca::CertificateAuthority& issuing =
          (entry.sub_ca != nullptr && rng.Chance(spec.subca_fraction))
              ? *entry.sub_ca
              : ca;
      x509::CertPtr leaf = issuing.Issue(issue, rng);
      ++total_issued_;

      // Popularity tier.
      const double pop = rng.UniformDouble();
      PopularityTier tier = pop < 0.0004
                                ? PopularityTier::kTop1k
                                : (pop < 0.20 ? PopularityTier::kTop1M
                                              : PopularityTier::kOther);
      popularity_[leaf->Fingerprint()] = tier;

      // Revocation schedule.
      util::Timestamp revoked_at = 0;
      x509::ReasonCode reason = x509::ReasonCode::kNoReasonCode;
      const double years_fresh =
          static_cast<double>(lifetime) / static_cast<double>(kYear);
      if (rng.Chance(spec.steady_revoke_per_year * years_fresh)) {
        revoked_at = issued + static_cast<util::Timestamp>(
                                  rng.UniformDouble() *
                                  static_cast<double>(lifetime));
      } else if (issued < config_.heartbleed && expiry > config_.heartbleed &&
                 rng.Chance(spec.heartbleed_revoke_prob)) {
        revoked_at = config_.heartbleed +
                     static_cast<util::Timestamp>(
                         rng.Exponential(5.0 * util::kSecondsPerDay));
        reason = x509::ReasonCode::kKeyCompromise;
      }
      if (revoked_at != 0 && revoked_at < expiry) {
        if (reason == x509::ReasonCode::kNoReasonCode) {
          // §4.2: the vast majority of revocations carry no reason code;
          // per-CA, a slice uses non-CRLSet-eligible codes.
          if (!rng.Chance(spec.crlset_reason_fraction))
            reason = rng.Chance(0.6) ? x509::ReasonCode::kSuperseded
                                     : x509::ReasonCode::kCessationOfOperation;
          else if (rng.Chance(0.15))
            reason = x509::ReasonCode::kKeyCompromise;
        }
        issuing.Revoke(leaf->tbs.serial, revoked_at, reason);
      } else {
        revoked_at = 0;
      }

      // Server population advertising this certificate.
      int num_servers = 1 + static_cast<int>(rng.Poisson(0.6));
      if (rng.Chance(0.02)) num_servers += static_cast<int>(rng.Pareto(3, 1.2));
      num_servers = std::min(num_servers, 60);

      const bool cert_staples = rng.Chance(
          issue.ev ? config_.stapling_cert_fraction_ev
                   : config_.stapling_cert_fraction);

      // Early rotation is a per-certificate event: when the admin replaces
      // the certificate, every server serving it switches (this drives the
      // paper's 45.2% still-advertised figure, §3.1).
      util::Timestamp rotate_at = 0;
      if (revoked_at == 0 && rng.Chance(0.70)) {
        rotate_at = issued + static_cast<util::Timestamp>(
                                 rng.Uniform(0.20, 0.85) *
                                 static_cast<double>(lifetime));
      }

      for (int s = 0; s < num_servers; ++s) {
        scan::Server server{};
        server.ip = static_cast<std::uint32_t>(rng.Next());
        server.leaf = leaf;
        server.chain = {leaf, issuing.cert()};
        if (&issuing != &ca) server.chain.push_back(ca.cert());
        // Some servers advertise the cross-signed variant of the issuing
        // CA's certificate instead.
        if (&issuing == &ca && entry.cross_cert && rng.Chance(0.4))
          server.chain[1] = entry.cross_cert;
        server.birth = issued + static_cast<util::Timestamp>(
                                    rng.UniformDouble() * 20.0 *
                                    static_cast<double>(util::kSecondsPerDay));

        // Death: normally around expiry; early if revoked (most admins
        // rotate); a slice keeps advertising revoked or expired certs.
        util::Timestamp death = expiry;
        if (revoked_at != 0 &&
            !rng.Chance(config_.keep_advertising_after_revoke)) {
          death = revoked_at + static_cast<util::Timestamp>(
                                   rng.UniformDouble() * 12.0 *
                                   static_cast<double>(util::kSecondsPerDay));
        } else if (revoked_at != 0) {
          // Revoked but still advertised; a slice keeps serving even past
          // expiry (the paper's gamespace.adobe.com — both expired AND
          // revoked, §4.1).
          if (rng.Chance(config_.advertise_past_expiry)) {
            death = expiry + static_cast<util::Timestamp>(
                                 rng.UniformDouble() * 200.0 *
                                 static_cast<double>(util::kSecondsPerDay));
          }
        } else if (rng.Chance(config_.advertise_past_expiry)) {
          death = expiry + static_cast<util::Timestamp>(
                               rng.UniformDouble() * 300.0 *
                               static_cast<double>(util::kSecondsPerDay));
        } else if (rotate_at != 0) {
          death = rotate_at;
        }
        server.death = death;
        if (server.death <= server.birth ||
            server.death < config_.study_start)
          continue;

        tls::TlsServer::Config tls_config;
        const bool staples = cert_staples && rng.Chance(0.7);
        if (staples) {
          tls_config.stapling_enabled = true;
          tls_config.staple_requires_cache =
              rng.Chance(config_.staple_requires_cache_fraction);
          if (tls_config.staple_requires_cache)
            tls_config.background_traffic =
                rng.Chance(config_.staple_background_traffic);
          ca::CertificateAuthority* issuer = &issuing;
          const x509::Serial serial = leaf->tbs.serial;
          // Staple fetches flake per-handshake; a fresh fetch succeeds with
          // config probability (drives the Fig. 3 ramp).
          auto fetch_rng = std::make_shared<util::Rng>(rng.Next());
          const double success = config_.staple_fetch_success;
          tls_config.fetch_leaf_staple =
              [issuer, serial, fetch_rng, success](util::Timestamp t) {
                if (!fetch_rng->Chance(success)) return Bytes{};
                return issuer->StapleFor(serial, t);
              };
        }
        server.tls = tls::TlsServer(tls_config);

        internet_.AddServer(std::move(server));
      }
    }
  }
}

std::unique_ptr<Ecosystem> Ecosystem::Build(EcosystemConfig config) {
  config.ApplyDefaults();
  auto eco = std::unique_ptr<Ecosystem>(new Ecosystem());
  eco->config_ = config;
  util::Rng rng(config.seed);
  eco->BuildCas(rng);
  eco->IssuePopulation(rng);
  return eco;
}

std::string Ecosystem::CaNameForUrl(const std::string& url) const {
  auto parsed = net::ParseUrl(url);
  if (!parsed) return {};
  auto it = host_to_ca_name_.find(parsed->host);
  return it == host_to_ca_name_.end() ? std::string{} : it->second;
}

std::vector<crlset::CrlSource> Ecosystem::CrlSetSources(
    util::Timestamp now, std::size_t* out_total_entries) {
  std::vector<crlset::CrlSource> sources;
  std::size_t total_entries = 0;
  for (CaEntry& entry : ca_entries_) {
    const Bytes parent = entry.ca->cert()->SubjectSpkiSha256();
    for (int shard = 0; shard < entry.spec.num_crls; ++shard) {
      const crl::Crl& crl = entry.ca->GetCrl(shard, now);
      total_entries += crl.tbs.entries.size();
      if (!entry.spec.google_crawled) continue;
      crlset::CrlSource source;
      source.parent_spki_sha256 = parent;
      source.crl = &crl;
      sources.push_back(std::move(source));
    }
  }
  if (out_total_entries) *out_total_entries = total_entries;
  return sources;
}

PopularityTier Ecosystem::TierOf(const Bytes& leaf_fingerprint) const {
  auto it = popularity_.find(leaf_fingerprint);
  return it == popularity_.end() ? PopularityTier::kOther : it->second;
}

std::size_t Ecosystem::total_revoked() const {
  std::size_t total = 0;
  for (const CaEntry& entry : ca_entries_) total += entry.ca->revoked_count();
  return total;
}

}  // namespace rev::core
