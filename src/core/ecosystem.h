// The calibrated synthetic PKI ecosystem — the workload generator standing
// in for the live Internet the paper measured (DESIGN.md substitution
// table). It creates root CAs, the Table 1 issuing CAs (plus "off-web" CRL
// populations and a tail of small CAs), issues certificates over 2011–2015,
// drives revocations (steady-state plus the Heartbleed mass event), and
// populates the simulated internet with advertising servers including
// revoked-but-alive, expired-but-alive, and OCSP-stapling behaviors.
//
// Counts are `scale` × the paper's magnitudes; structural parameters
// (CRL shard counts, serial lengths, adoption dates) are unscaled.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ca/ca.h"
#include "crlset/generator.h"
#include "net/simnet.h"
#include "scan/internet.h"
#include "util/rng.h"
#include "util/time.h"
#include "x509/verify.h"

namespace rev::core {

// Per-CA calibration, drawn from Table 1 and §5.
struct CaSpec {
  std::string name;
  int num_crls = 1;
  // Target issued-certificate count at scale = 1.
  std::size_t paper_certs = 0;
  // Steady-state revocation hazard (fraction of certs revoked per year).
  double steady_revoke_per_year = 0.01;
  // Probability a fresh certificate is revoked in the Heartbleed event.
  double heartbleed_revoke_prob = 0.12;
  int serial_bytes = 16;
  // Zipf exponent concentrating certs onto few CRL shards (0 = uniform).
  double shard_skew = 0.0;
  // Certificates issued before this date carry no OCSP responder URL.
  util::Timestamp ocsp_adoption = 0;
  // Fraction of revocations carrying a CRLSet-eligible reason code
  // (including "no reason code"); the rest use Superseded/Cessation.
  double crlset_reason_fraction = 0.9;
  // Whether Google's CRLSet crawler follows this CA's CRLs.
  bool google_crawled = false;
  // Off-web synthetic revocations at scale = 1 (e.g. Apple WWDR's 2.6M).
  std::size_t paper_offweb_revocations = 0;
  // Revoked certificates that share this CA's CRLs but are not part of the
  // scanned web population (real CRLs cover the CA's whole issuance — email
  // certs, unscanned hosts). This is what pushes certificate-weighted CRL
  // sizes far above the raw sizes (Table 1, Fig. 6): e.g. StartCom's single
  // 22 MB / 290k-entry "Free" CRL behind its 240 KB per-cert average.
  std::size_t paper_hidden_revocations = 0;
  // Fraction of this CA's certificates issued through a second-level
  // sub-CA, producing chains with two intermediates (real CAs commonly
  // issue through per-product sub-CAs; this exercises the Int. 2+ paths
  // at ecosystem scale).
  double subca_fraction = 0.0;
};

struct EcosystemConfig {
  std::uint64_t seed = 20151028;
  // Fraction of paper-scale certificate counts to generate.
  double scale = 0.004;

  util::Timestamp issuance_start = 0;   // defaults to 2011-01-01
  util::Timestamp study_start = 0;      // 2013-10-30 (first Rapid7 scan)
  util::Timestamp study_end = 0;        // 2015-03-31
  util::Timestamp crawl_start = 0;      // 2014-10-02 (daily CRL crawls)
  util::Timestamp heartbleed = 0;       // 2014-04-08

  double ev_fraction = 0.04;
  double unrevocable_fraction = 0.0009;            // neither CRL nor OCSP
  double keep_advertising_after_revoke = 0.04;     // alive-and-revoked
  double advertise_past_expiry = 0.05;             // expired-but-alive
  double stapling_cert_fraction = 0.045;           // stapling-friendly certs
  double stapling_cert_fraction_ev = 0.025;
  double staple_requires_cache_fraction = 0.45;    // nginx-like servers
  // Fraction of cache-requiring servers whose staple cache is kept warm by
  // other clients' traffic (drives Fig. 3's ~82% single-connection point).
  double staple_background_traffic = 0.75;
  double staple_fetch_success = 0.9;               // per-handshake fetch

  int num_tail_cas = 40;       // small CAs, one CRL each
  int num_roots = 3;

  // Applies the paper-period defaults for any unset timestamps.
  void ApplyDefaults();
};

// Popularity tiers standing in for Alexa ranks (§7.2).
enum class PopularityTier : std::uint8_t { kTop1k, kTop1M, kOther };

class Ecosystem {
 public:
  static std::unique_ptr<Ecosystem> Build(EcosystemConfig config);

  net::SimNet& net() { return net_; }
  scan::Internet& internet() { return internet_; }
  const x509::CertPool& roots() const { return roots_; }
  const EcosystemConfig& config() const { return config_; }

  struct CaEntry {
    CaSpec spec;
    ca::CertificateAuthority* ca = nullptr;
    // Second-level sub-CA (itself listed as its own CaEntry), or null.
    ca::CertificateAuthority* sub_ca = nullptr;
    // The CA whose certificate sits above this one (null for top-level
    // intermediates whose issuer is a root).
    ca::CertificateAuthority* parent_ca = nullptr;
    // Cross-signed variant of this CA's certificate (same subject and key,
    // signed by a different root; §2.1 footnote 3), or null. Servers
    // advertise either variant, giving leaves multiple valid paths.
    x509::CertPtr cross_cert;
  };
  const std::vector<CaEntry>& cas() const { return ca_entries_; }

  // Maps a CRL URL back to the issuing CA's display name ("" if unknown).
  std::string CaNameForUrl(const std::string& url) const;

  // CRLSet generation inputs: the CRLs (as of `now`) of google-crawled CAs.
  // CRLs are refreshed on demand. `out_total_entries` (optional) receives
  // the total entry count across ALL CAs' CRLs, crawled or not.
  std::vector<crlset::CrlSource> CrlSetSources(util::Timestamp now,
                                               std::size_t* out_total_entries = nullptr);

  PopularityTier TierOf(const Bytes& leaf_fingerprint) const;

  // Ground truth for calibration tests.
  std::size_t total_issued() const { return total_issued_; }
  std::size_t total_revoked() const;

 private:
  Ecosystem() = default;
  void BuildCas(util::Rng& rng);
  void IssuePopulation(util::Rng& rng);

  EcosystemConfig config_;
  net::SimNet net_;
  scan::Internet internet_;
  x509::CertPool roots_;
  std::vector<std::unique_ptr<ca::CertificateAuthority>> owned_cas_;
  std::vector<CaEntry> ca_entries_;  // issuing CAs (excludes roots)
  std::map<std::string, std::string> host_to_ca_name_;
  std::map<Bytes, PopularityTier, util::BytesLess> popularity_;
  std::size_t total_issued_ = 0;
};

// The Table 1 / §5 calibration table used by Ecosystem::Build.
std::vector<CaSpec> DefaultCaSpecs();

}  // namespace rev::core
