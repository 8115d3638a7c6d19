#include "population.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "asn1/oid.h"
#include "bench.h"
#include "core/ecosystem.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace revbench {

namespace core = rev::core;
namespace crypto = rev::crypto;
namespace x509 = rev::x509;

namespace {

// Share of leaves chaining to the trusted roots: the paper's 5.07 M Leaf Set
// out of 38.5 M unique certificates.
constexpr double kValidFraction = 0.132;
constexpr std::size_t kServeIssuers = 4;
constexpr double kRevokedFraction = 0.08;
constexpr double kUnknownFraction = 0.02;  // requests for never-issued serials
constexpr double kZipfExponent = 1.0;

std::uint64_t Mix(std::uint64_t seed, std::uint64_t label) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (label + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t Fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001B3ull;
  return h;
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

x509::Serial MakeSerial(int serial_bytes, std::uint8_t tag,
                        std::uint64_t counter) {
  x509::Serial serial(static_cast<std::size_t>(serial_bytes));
  serial[0] = 0x41;  // nonzero leading byte: canonical positive magnitude
  serial[1] = tag;
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

template <typename T>
void Shuffle(std::vector<T>& v, rev::util::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.NextBelow(i)]);
}

// One issuer of leaves: a calibrated CA (trusted) or a self-signed device
// issuer that chains to nothing (untrusted).
struct Issuer {
  bool trusted = false;
  core::CaSpec spec;                           // trusted only
  const rev::ca::CertificateAuthority* ca = nullptr;  // trusted only
  crypto::KeyPair key;                         // untrusted only
  x509::Name name;
  Bytes name_der;
  std::uint8_t tag = 0;
  std::vector<std::size_t> births;  // per scan
};

struct Revocation {
  x509::Serial serial;
  core::RevocationInfo info;
};

// Everything one issuer's generation task produces.
struct IssuerOutput {
  Bytes store;
  std::vector<std::uint64_t> ends;  // end offset of each leaf in store
  std::vector<std::uint8_t> birth, death;
  std::vector<Revocation> revocations;
  std::vector<std::size_t> shard_revoked, shard_weight;
  std::int64_t system_ns = 0;  // inside x509::SignCertificate
};

struct Calendar {
  util::Timestamp issuance_start, crawl_start, heartbleed;
};

int ScanOf(const std::vector<util::Timestamp>& scans, util::Timestamp t) {
  const auto it = std::upper_bound(scans.begin(), scans.end(), t);
  return it == scans.begin() ? 0 : static_cast<int>(it - scans.begin()) - 1;
}

IssuerOutput GenerateIssuer(const Issuer& issuer,
                            const std::vector<util::Timestamp>& scans,
                            const Calendar& cal, const crypto::PublicKey& leaf_key,
                            std::uint64_t seed) {
  rev::util::Rng rng(seed);
  IssuerOutput out;
  const int num_crls = issuer.trusted ? issuer.spec.num_crls : 0;
  out.shard_revoked.assign(static_cast<std::size_t>(num_crls), 0);
  out.shard_weight.assign(static_cast<std::size_t>(num_crls), 0);

  x509::TbsCertificate tbs;
  tbs.public_key = leaf_key;
  tbs.issuer = issuer.name;
  std::uint64_t counter = 0;
  for (std::size_t s = 0; s < scans.size(); ++s) {
    const util::Timestamp now = scans[s];
    for (std::size_t c = 0; c < issuer.births[s]; ++c) {
      const std::uint64_t n = ++counter;
      std::int64_t lifetime = 0;
      if (issuer.trusted) {
        tbs.serial = MakeSerial(issuer.spec.serial_bytes, issuer.tag, n);
        // Built in steps: GCC 12 gives a false -Wrestrict warning on
        // "w" + std::to_string(n).
        std::string common_name = std::to_string(n);
        common_name.insert(common_name.begin(), 'w');
        tbs.subject = x509::Name::FromCommonName(
            common_name + "." + issuer.ca->options().domain);
        // Lifetime mix: mostly 1 year, some 90-day / 2-year / 3-year.
        const double lu = rng.UniformDouble();
        lifetime = (lu < 0.08 ? 90 : lu < 0.75 ? 365 : lu < 0.93 ? 730 : 1095) *
                   util::kSecondsPerDay;
      } else {
        tbs.serial = MakeSerial(12, issuer.tag, n + 1);
        // Device certs reuse a bounded name pool (routers, appliances).
        tbs.subject = x509::Name::FromCommonName(
            "device" + std::to_string(n % 100'000) + ".local");
        lifetime = (rng.Chance(0.5) ? 365 : 3'650) * util::kSecondsPerDay;
      }
      if (s == 0) {
        const util::Timestamp earliest = std::max(
            cal.issuance_start, now - lifetime + util::kSecondsPerDay);
        tbs.not_before = rng.UniformInt(earliest, now);
      } else {
        tbs.not_before = rng.UniformInt(scans[s - 1] + 1, now);
      }
      tbs.not_after = tbs.not_before + lifetime;

      util::Timestamp revoked_at = 0;
      x509::ReasonCode reason = x509::ReasonCode::kNoReasonCode;
      int shard = 0;
      tbs.crl_urls.clear();
      tbs.ocsp_urls.clear();
      tbs.policies.clear();
      if (issuer.trusted) {
        const core::CaSpec& spec = issuer.spec;
        shard = issuer.ca->ShardForSerial(tbs.serial);
        ++out.shard_weight[static_cast<std::size_t>(shard)];
        if (!rng.Chance(0.0009)) {  // 0.09 % carry no revocation pointer
          tbs.crl_urls.push_back(issuer.ca->CrlUrl(shard));
          if (tbs.not_before >= spec.ocsp_adoption)
            tbs.ocsp_urls.push_back(issuer.ca->OcspUrl());
        }
        if (rng.Chance(0.04)) tbs.policies = {rev::asn1::oids::VerisignEvPolicy()};

        // Heartbleed mass event for certs fresh at the event, steady-state
        // hazard otherwise.
        if (tbs.not_before <= cal.heartbleed && cal.heartbleed <= tbs.not_after &&
            rng.Chance(spec.heartbleed_revoke_prob)) {
          revoked_at =
              cal.heartbleed + rng.UniformInt(0, 45 * util::kSecondsPerDay);
          reason = x509::ReasonCode::kKeyCompromise;
        } else {
          const double hazard =
              std::min(0.9, spec.steady_revoke_per_year *
                                (static_cast<double>(lifetime) / (365.0 * 86'400)));
          if (rng.Chance(hazard)) {
            revoked_at = rng.UniformInt(tbs.not_before + util::kSecondsPerDay,
                                        tbs.not_after);
            reason = rng.Chance(spec.crlset_reason_fraction)
                         ? (rng.Chance(0.5) ? x509::ReasonCode::kNoReasonCode
                                            : x509::ReasonCode::kKeyCompromise)
                         : x509::ReasonCode::kSuperseded;
          }
        }
        revoked_at = std::min(revoked_at, tbs.not_after);
      }

      const std::int64_t sign_start = NowNs();
      const x509::Certificate cert = x509::SignCertificate(
          tbs, issuer.trusted ? issuer.ca->key() : issuer.key);
      out.system_ns += NowNs() - sign_start;
      out.store.insert(out.store.end(), cert.der.begin(), cert.der.end());
      out.ends.push_back(out.store.size());

      if (revoked_at != 0) {
        core::RevocationInfo info;
        info.revoked_at = revoked_at;
        info.reason = reason;
        info.first_seen_in_crl = std::max(cal.crawl_start, revoked_at) +
                                 rng.UniformInt(0, util::kSecondsPerDay);
        out.revocations.push_back({tbs.serial, info});
        ++out.shard_revoked[static_cast<std::size_t>(shard)];
      }

      // Death: expiry, cut short by revocation unless the server keeps
      // advertising (4 %, the paper's alive-and-revoked population).
      const int born = static_cast<int>(s);
      int death = std::max(born, ScanOf(scans, tbs.not_after));
      if (revoked_at != 0 && !rng.Chance(0.04))
        death = std::min(death, ScanOf(scans, revoked_at));
      death = std::max(death, born);
      out.birth.push_back(static_cast<std::uint8_t>(born));
      out.death.push_back(static_cast<std::uint8_t>(death));
    }
  }
  return out;
}

std::vector<std::size_t> Births(std::size_t total, std::size_t num_scans,
                                double backlog) {
  std::vector<std::size_t> births(num_scans, 0);
  if (num_scans == 1) {
    births[0] = total;
    return births;
  }
  births[0] = static_cast<std::size_t>(
      std::llround(static_cast<double>(total) * backlog));
  std::size_t assigned = births[0];
  for (std::size_t s = 1; s < num_scans; ++s) {
    births[s] = (total - births[0]) / (num_scans - 1);
    assigned += births[s];
  }
  births[num_scans - 1] += total - assigned;
  return births;
}

}  // namespace

std::size_t StudyArchive::observations() const {
  std::size_t n = 0;
  for (const auto& scan : scans) n += scan.size();
  return n;
}

std::size_t StudyArchive::bytes() const {
  std::size_t n = leaf_store.size() + leaf_offset.size() * 8 +
                  leaf_issuer.size() * 2 + observations() * 4;
  for (const Bytes& der : issuer_der) n += der.size();
  return n;
}

std::uint64_t StudyArchive::Fingerprint() const {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const Bytes& der : issuer_der) h = Fnv(h, der.data(), der.size());
  h = Fnv(h, leaf_store.data(), leaf_store.size());
  h = Fnv(h, leaf_issuer.data(), leaf_issuer.size() * 2);
  for (std::size_t s = 0; s < scans.size(); ++s) {
    h = Fnv(h, &scan_times[s], sizeof(scan_times[s]));
    h = Fnv(h, scans[s].data(), scans[s].size() * 4);
  }
  for (const auto& [key, info] : db.entries()) {
    h = Fnv(h, key.second.data(), key.second.size());
    h = Fnv(h, &info.revoked_at, sizeof(info.revoked_at));
  }
  for (const core::CrlSizeSample& sample : crl_samples)
    h = Fnv(h, &sample.entries, sizeof(sample.entries));
  return h ^ valid_leaves;
}

StudyArchive GenerateStudy(const StudyConfig& config) {
  if (config.scan_times.empty() || config.scan_times.size() > 255 ||
      !std::is_sorted(config.scan_times.begin(), config.scan_times.end()))
    throw std::invalid_argument("GenerateStudy: need 1..255 sorted scan times");
  core::EcosystemConfig dates;
  dates.ApplyDefaults();
  const Calendar cal{dates.issuance_start, dates.crawl_start, dates.heartbleed};
  const std::size_t num_scans = config.scan_times.size();

  StudyArchive archive;
  archive.scan_times = config.scan_times;

  // --- CA layer: 3 roots, the Table 1 CAs and a 40-CA tail ---------------
  rev::util::Rng ca_rng(Mix(config.seed, 0));
  std::int64_t system_ns = 0;  // CA creation, signing, RevocationDb inserts
  std::vector<std::unique_ptr<rev::ca::CertificateAuthority>> owned;
  std::vector<rev::ca::CertificateAuthority*> roots;
  for (int i = 0; i < 3; ++i) {
    rev::ca::CertificateAuthority::Options options;
    options.name = "SimRoot " + std::to_string(i + 1);
    options.domain = "root" + std::to_string(i + 1) + ".sim";
    const std::int64_t t0 = NowNs();
    auto root = rev::ca::CertificateAuthority::CreateRoot(
        options, ca_rng, util::MakeDate(2006, 1, 1),
        25 * 365 * util::kSecondsPerDay);
    archive.roots.Add(root->cert());
    system_ns += NowNs() - t0;
    roots.push_back(root.get());
    owned.push_back(std::move(root));
  }
  std::vector<core::CaSpec> specs = core::DefaultCaSpecs();
  for (int i = 0; i < 40; ++i) {
    core::CaSpec spec;
    spec.name = "SmallCA" + std::to_string(i + 1);
    spec.num_crls = 1;
    spec.paper_certs = 8'000 + static_cast<std::size_t>(i % 7) * 3'000;
    spec.steady_revoke_per_year = 0.004 + 0.001 * (i % 5);
    spec.heartbleed_revoke_prob = 0.03;
    spec.serial_bytes = 10 + (i % 3) * 4;
    spec.ocsp_adoption = util::MakeDate(2009 + (i % 4), 1 + (i % 12), 1);
    specs.push_back(spec);
  }

  const auto valid_total = static_cast<std::size_t>(std::llround(
      static_cast<double>(config.unique_leaves) * kValidFraction));
  const std::size_t invalid_total = config.unique_leaves - valid_total;
  double weight_sum = 0;
  for (const core::CaSpec& spec : specs)
    weight_sum += static_cast<double>(spec.paper_certs);

  std::vector<Issuer> issuers;
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const core::CaSpec& spec = specs[i];
    rev::ca::CertificateAuthority::Options options;
    options.name = spec.name;
    std::string domain = spec.name;
    for (char& c : domain)
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    options.domain = domain + ".sim";
    options.num_crl_shards = spec.num_crls;
    options.serial_bytes = spec.serial_bytes;
    const std::int64_t t0 = NowNs();
    auto ca = roots[i % roots.size()]->CreateIntermediate(
        options, ca_rng, util::MakeDate(2010, 1, 1),
        12 * 365 * util::kSecondsPerDay);
    system_ns += NowNs() - t0;
    if (spec.shard_skew > 0)
      ca->SetShardWeights(ZipfWeights(spec.num_crls, spec.shard_skew));
    for (int shard = 0; shard < spec.num_crls; ++shard)
      archive.url_to_ca_name[ca->CrlUrl(shard)] = spec.name;
    archive.url_to_ca_name[ca->OcspUrl()] = spec.name;

    Issuer issuer;
    issuer.trusted = true;
    issuer.spec = spec;
    issuer.ca = ca.get();
    issuer.name = ca->cert()->tbs.subject;
    issuer.name_der = issuer.name.Encode();
    issuer.tag = static_cast<std::uint8_t>(i + 1);
    const auto leaves = static_cast<std::size_t>(
        std::floor(static_cast<double>(valid_total) *
                   static_cast<double>(spec.paper_certs) / weight_sum));
    assigned += leaves;
    issuer.births.assign(1, leaves);  // split into scans below
    archive.issuer_der.push_back(ca->cert()->der);
    issuers.push_back(std::move(issuer));
    owned.push_back(std::move(ca));
  }
  issuers.front().births[0] += valid_total - assigned;  // remainder to largest

  // Untrusted issuers for the non-validating bulk (self-signed devices and
  // chains to nothing in the root store).
  constexpr std::size_t kUntrusted = 16;
  for (std::size_t i = 0; i < kUntrusted; ++i) {
    Issuer issuer;
    issuer.key = crypto::SimKeyFromLabel("untrusted-issuer:" +
                                         std::to_string(config.seed) + ":" +
                                         std::to_string(i));
    issuer.name = x509::Name::Make("Untrusted Issuer " + std::to_string(i + 1),
                                   "SelfSigned Devices Inc");
    issuer.name_der = issuer.name.Encode();
    issuer.tag = static_cast<std::uint8_t>(0xC0 + i);
    x509::TbsCertificate tbs;
    tbs.serial = MakeSerial(12, issuer.tag, 0);
    tbs.issuer = issuer.name;
    tbs.subject = issuer.name;
    tbs.not_before = util::MakeDate(2009, 1, 1);
    tbs.not_after = tbs.not_before + 15 * 365 * util::kSecondsPerDay;
    tbs.public_key = issuer.key.Public();
    tbs.basic_constraints.is_ca = true;
    const std::int64_t t0 = NowNs();
    archive.issuer_der.push_back(x509::SignCertificate(tbs, issuer.key).der);
    system_ns += NowNs() - t0;
    issuer.births.assign(1, invalid_total / kUntrusted +
                                (i < invalid_total % kUntrusted ? 1 : 0));
    issuers.push_back(std::move(issuer));
  }
  for (Issuer& issuer : issuers) {
    archive.valid_leaves += issuer.trusted ? issuer.births[0] : 0;
    issuer.births = Births(issuer.births[0], num_scans, config.backlog_fraction);
  }

  // --- Leaves: one task per issuer, each on its own seeded stream --------
  // All leaves share one public key: leaf keys never sign anything here.
  const crypto::PublicKey leaf_key =
      crypto::SimKeyFromLabel("e2e-leaf:" + std::to_string(config.seed)).Public();
  std::vector<IssuerOutput> outputs(issuers.size());
  {
    // Largest issuers first so the dynamic claim keeps every worker busy.
    std::vector<std::size_t> order(issuers.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    auto total_of = [&](std::size_t i) {
      std::size_t n = 0;
      for (std::size_t b : issuers[i].births) n += b;
      return n;
    };
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return total_of(a) > total_of(b);
    });
    rev::util::ThreadPool pool(std::max(1u, config.threads));
    pool.ParallelFor(order.size(), [&](std::size_t k) {
      const std::size_t i = order[k];
      outputs[i] = GenerateIssuer(issuers[i], config.scan_times, cal, leaf_key,
                                  Mix(config.seed, 100 + i));
    });
  }

  // --- Merge in issuer order ----------------------------------------------
  std::size_t total_bytes = 0, total_leaves = 0;
  for (const IssuerOutput& out : outputs) {
    total_bytes += out.store.size();
    total_leaves += out.ends.size();
  }
  archive.leaf_store.reserve(total_bytes);
  archive.leaf_offset.reserve(total_leaves + 1);
  archive.leaf_offset.push_back(0);
  archive.leaf_issuer.reserve(total_leaves);
  archive.scans.assign(num_scans, {});
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    IssuerOutput& out = outputs[i];
    const std::uint64_t base = archive.leaf_store.size();
    archive.leaf_store.insert(archive.leaf_store.end(), out.store.begin(),
                              out.store.end());
    for (std::size_t j = 0; j < out.ends.size(); ++j) {
      const auto leaf = static_cast<std::uint32_t>(archive.leaf_issuer.size());
      archive.leaf_offset.push_back(base + out.ends[j]);
      archive.leaf_issuer.push_back(static_cast<std::uint16_t>(i));
      const int last = config.observe_once ? out.birth[j] : out.death[j];
      for (int s = out.birth[j]; s <= last; ++s)
        archive.scans[static_cast<std::size_t>(s)].push_back(leaf);
    }
    Bytes().swap(out.store);
    system_ns += out.system_ns;
    const std::int64_t t0 = NowNs();
    for (const Revocation& r : out.revocations)
      archive.db.Insert(issuers[i].name_der, r.serial, r.info);
    system_ns += NowNs() - t0;

    if (!issuers[i].trusted) continue;
    // The crawled-CRL view: web revocations per shard plus the CA's hidden
    // (off-web) population spread by the shard skew.
    const core::CaSpec& spec = issuers[i].spec;
    const std::size_t hidden =
        spec.paper_hidden_revocations + spec.paper_offweb_revocations;
    const std::vector<double> weights = ZipfWeights(
        spec.num_crls, spec.shard_skew > 0 ? spec.shard_skew : 0.0);
    for (int shard = 0; shard < spec.num_crls; ++shard) {
      const auto k = static_cast<std::size_t>(shard);
      core::CrlSizeSample sample;
      sample.url = issuers[i].ca->CrlUrl(shard);
      sample.ca_name = spec.name;
      sample.entries = out.shard_revoked[k] +
                       static_cast<std::size_t>(std::llround(
                           static_cast<double>(hidden) * weights[k]));
      sample.bytes =
          160 + sample.entries * (22 + static_cast<std::size_t>(spec.serial_bytes));
      sample.cert_weight = static_cast<double>(out.shard_weight[k]);
      archive.crl_samples.push_back(std::move(sample));
    }
  }
  // A scan sees hosts in address order, not grouped by CA.
  for (std::size_t s = 0; s < num_scans; ++s) {
    rev::util::Rng rng(Mix(config.seed, 10'000 + s));
    Shuffle(archive.scans[s], rng);
  }
  archive.system_s = static_cast<double>(system_ns) * 1e-9;
  return archive;
}

ServePopulation GenerateServe(const ServeConfig& config) {
  namespace ocsp = rev::ocsp;
  ServePopulation pop;
  rev::util::Rng rng(Mix(config.seed, 1));
  const util::Timestamp now = ServePopulation::kNow;

  for (std::size_t i = 0; i < kServeIssuers; ++i) {
    const crypto::KeyPair key = crypto::SimKeyFromLabel(
        "e2e-responder:" + std::to_string(config.seed) + ":" + std::to_string(i));
    x509::TbsCertificate tbs;
    tbs.serial = x509::Serial{static_cast<std::uint8_t>(0x10 + i)};
    tbs.issuer = tbs.subject =
        x509::Name::Make("E2E Issuing CA " + std::to_string(i + 1), "Bench");
    tbs.not_before = now - 3 * 365 * util::kSecondsPerDay;
    tbs.not_after = now + 3 * 365 * util::kSecondsPerDay;
    tbs.public_key = key.Public();
    tbs.basic_constraints = {true, -1};
    pop.issuer_certs.push_back(x509::SignCertificate(tbs, key));
    pop.issuer_keys.push_back(key);
  }

  // Serials: 12-byte magnitudes with a fixed nonzero lead byte below 0x80
  // (so DER INTEGER round-trips leave them unchanged), random middle bytes
  // and a per-issuer counter tail that keeps them unique.
  auto make_serial = [&](std::size_t issuer, std::uint64_t counter) {
    x509::Serial serial(12);
    serial[0] = 0x3A;
    serial[1] = static_cast<std::uint8_t>(issuer);
    rng.Fill(serial.data() + 2, 6);
    for (int b = 0; b < 4; ++b)
      serial[11 - static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(counter >> (8 * b));
    return serial;
  };
  for (std::size_t i = 0; i < kServeIssuers; ++i) {
    for (std::size_t n = 0; n < config.serials_per_issuer; ++n) {
      ServeTarget target;
      target.issuer = static_cast<std::uint16_t>(i);
      target.serial = make_serial(i, n);
      if (rng.Chance(kRevokedFraction)) {
        target.status = ocsp::CertStatus::kRevoked;
        target.revoked_at = now - rng.UniformInt(60, 300 * util::kSecondsPerDay);
        target.reason = rng.Chance(0.5) ? rev::x509::ReasonCode::kKeyCompromise
                                        : rev::x509::ReasonCode::kSuperseded;
      }
      pop.targets.push_back(std::move(target));
    }
  }
  const std::size_t known = pop.targets.size();
  pop.known = known;
  const auto unknown = static_cast<std::size_t>(std::ceil(
      static_cast<double>(known) * kUnknownFraction));
  for (std::size_t n = 0; n < unknown; ++n) {
    ServeTarget target;
    target.issuer = static_cast<std::uint16_t>(n % kServeIssuers);
    // Counter space past every issued serial: never issued.
    target.serial = make_serial(target.issuer, 0x8000'0000u + n);
    target.status = ocsp::CertStatus::kUnknown;
    pop.targets.push_back(std::move(target));
  }

  pop.requests.reserve(pop.targets.size());
  for (const ServeTarget& target : pop.targets) {
    ocsp::OcspRequest request;
    request.cert_ids = {
        ocsp::MakeCertId(pop.issuer_certs[target.issuer], target.serial)};
    pop.requests.push_back(ocsp::EncodeOcspRequest(request));
  }

  // Popularity: Zipf over a seeded permutation of the known serials, so hot
  // serials land on every issuer and shard; unknown serials uniformly.
  std::vector<std::uint32_t> by_rank(known);
  for (std::size_t i = 0; i < known; ++i) by_rank[i] = static_cast<std::uint32_t>(i);
  Shuffle(by_rank, rng);
  pop.sequence.resize(config.sequence_length);
  for (std::uint32_t& slot : pop.sequence) {
    if (unknown > 0 && rng.Chance(kUnknownFraction)) {
      slot = static_cast<std::uint32_t>(known + rng.NextBelow(unknown));
    } else {
      slot = by_rank[rng.Zipf(known, kZipfExponent)];
    }
  }

  for (std::size_t i = 0; i < known; ++i)
    if (pop.targets[i].status == ocsp::CertStatus::kGood)
      pop.revoke_order.push_back(static_cast<std::uint32_t>(i));
  Shuffle(pop.revoke_order, rng);
  return pop;
}

}  // namespace revbench
