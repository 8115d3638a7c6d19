#include "ca/ca.h"

#include <cassert>

#include "asn1/oid.h"

namespace rev::ca {

namespace {

x509::Name CaName(const CertificateAuthority::Options& options) {
  // Subjects read "<Name> CA" unless the display name already says so.
  std::string cn = options.name;
  if (cn.size() < 2 || cn.compare(cn.size() - 2, 2, "CA") != 0) cn += " CA";
  return x509::Name::Make(cn, options.name);
}

}  // namespace

CertificateAuthority::CertificateAuthority(Options options, crypto::KeyPair key)
    : options_(std::move(options)), key_(std::move(key)) {
  assert(options_.num_crl_shards >= 1);
  shards_.resize(static_cast<std::size_t>(options_.num_crl_shards));
  shard_revoked_.resize(static_cast<std::size_t>(options_.num_crl_shards));
}

std::unique_ptr<CertificateAuthority> CertificateAuthority::CreateRoot(
    const Options& options, util::Rng& rng, util::Timestamp now,
    std::int64_t ca_lifetime_seconds) {
  auto ca = std::unique_ptr<CertificateAuthority>(new CertificateAuthority(
      options, crypto::GenerateKeyPair(rng, options.key_type, options.rsa_bits)));

  x509::TbsCertificate tbs;
  tbs.serial = ca->NextSerial(rng);
  tbs.issuer = CaName(options);
  tbs.subject = tbs.issuer;
  tbs.not_before = now;
  tbs.not_after = now + ca_lifetime_seconds;
  tbs.public_key = ca->key_.Public();
  tbs.basic_constraints = {.is_ca = true, .path_len = -1};
  tbs.key_usage = x509::kKeyUsageKeyCertSign | x509::kKeyUsageCrlSign;
  // Root certificates carry no revocation pointers by design (§3.2 note 9).
  ca->cert_ = std::make_shared<const x509::Certificate>(
      x509::SignCertificate(tbs, ca->key_));
  ca->responder_ = std::make_unique<ocsp::Responder>(
      *ca->cert_, ca->key_, options.ocsp_validity_seconds);
  ca->InitServing();
  return ca;
}

std::unique_ptr<CertificateAuthority> CertificateAuthority::CreateIntermediate(
    const Options& options, util::Rng& rng, util::Timestamp now,
    std::int64_t ca_lifetime_seconds, bool include_crl_url,
    bool include_ocsp_url) {
  auto child = std::unique_ptr<CertificateAuthority>(new CertificateAuthority(
      options, crypto::GenerateKeyPair(rng, options.key_type, options.rsa_bits)));

  x509::TbsCertificate tbs;
  tbs.serial = NextSerial(rng);
  tbs.issuer = cert_->tbs.subject;
  tbs.subject = CaName(options);
  tbs.not_before = now;
  tbs.not_after = now + ca_lifetime_seconds;
  tbs.public_key = child->key_.Public();
  tbs.basic_constraints = {.is_ca = true, .path_len = -1};
  tbs.key_usage = x509::kKeyUsageKeyCertSign | x509::kKeyUsageCrlSign;
  if (include_crl_url) tbs.crl_urls = {CrlUrl(ShardForSerial(tbs.serial))};
  if (include_ocsp_url) tbs.ocsp_urls = {OcspUrl()};

  child->cert_ = std::make_shared<const x509::Certificate>(
      x509::SignCertificate(tbs, key_));
  child->responder_ = std::make_unique<ocsp::Responder>(
      *child->cert_, child->key_, options.ocsp_validity_seconds);
  child->InitServing();

  // The parent tracks the intermediate like any issued certificate so it
  // can be revoked via the parent's CRL/OCSP.
  issued_[tbs.serial] = IssuedRecord{.not_after = tbs.not_after};
  responder_->AddCertificate(tbs.serial);
  return child;
}

void CertificateAuthority::InitServing() {
  frontend_ = std::make_unique<serve::Frontend>();
  frontend_->AttachResponder(responder_.get());
}

Bytes CertificateAuthority::StapleFor(const x509::Serial& serial,
                                      util::Timestamp now) {
  const std::shared_ptr<const Bytes> der =
      frontend_->Staple(responder_->issuer_key_hash(), serial, now);
  return der ? *der : Bytes{};
}

x509::Serial CertificateAuthority::NextSerial(util::Rng& rng) {
  // A unique counter in the low 8 bytes plus random high bytes up to the
  // CA's serial-length policy (real CAs range from short sequential serials
  // to 49-decimal-digit monsters, which is what spreads CRL entry sizes).
  const int total = std::max(options_.serial_bytes, 9);
  x509::Serial serial(static_cast<std::size_t>(total));
  rng.Fill(serial.data(), serial.size() - 8);
  ++serial_counter_;
  for (int i = 0; i < 8; ++i) {
    serial[serial.size() - 1 - static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(serial_counter_ >> (8 * i));
  }
  // Avoid a leading zero byte so encoded length is stable.
  if (serial[0] == 0) serial[0] = 1;
  return serial;
}

x509::CertPtr CertificateAuthority::Issue(const IssueOptions& issue,
                                          util::Rng& rng) {
  x509::TbsCertificate tbs;
  tbs.serial = NextSerial(rng);
  tbs.issuer = cert_->tbs.subject;
  tbs.subject = x509::Name::FromCommonName(issue.common_name);
  tbs.not_before = issue.not_before;
  const std::int64_t lifetime = issue.lifetime_seconds > 0
                                    ? issue.lifetime_seconds
                                    : options_.default_cert_lifetime_seconds;
  tbs.not_after = issue.not_before + lifetime;

  // Leaf keys never sign anything in the simulation; derive a cheap sim key
  // deterministically from the serial.
  tbs.public_key =
      crypto::SimKeyFromLabel("leaf:" + x509::SerialToString(tbs.serial))
          .Public();
  tbs.key_usage =
      x509::kKeyUsageDigitalSignature | x509::kKeyUsageKeyEncipherment;
  tbs.dns_names = {issue.common_name};
  if (issue.include_crl_url) tbs.crl_urls = {CrlUrl(ShardForSerial(tbs.serial))};
  if (issue.include_ocsp_url) tbs.ocsp_urls = {OcspUrl()};
  if (issue.ev) tbs.policies = {asn1::oids::VerisignEvPolicy()};

  auto cert = std::make_shared<const x509::Certificate>(
      x509::SignCertificate(tbs, key_));
  issued_[tbs.serial] = IssuedRecord{.not_after = tbs.not_after};
  responder_->AddCertificate(tbs.serial);
  return cert;
}

bool CertificateAuthority::Revoke(const x509::Serial& serial,
                                  util::Timestamp when,
                                  x509::ReasonCode reason) {
  auto it = issued_.find(serial);
  if (it == issued_.end()) return false;
  if (it->second.revoked) return true;  // idempotent
  it->second.revoked = true;
  it->second.revoked_at = when;
  it->second.reason = reason;
  ++revoked_count_;
  responder_->Revoke(serial, when, reason);
  const auto shard = static_cast<std::size_t>(ShardForSerial(serial));
  shard_revoked_[shard].push_back(serial);
  shards_[shard].dirty = true;
  return true;
}

bool CertificateAuthority::IsRevoked(const x509::Serial& serial) const {
  auto it = issued_.find(serial);
  return it != issued_.end() && it->second.revoked;
}

void CertificateAuthority::SetShardWeights(std::vector<double> weights) {
  shard_cumulative_.clear();
  if (weights.size() != static_cast<std::size_t>(options_.num_crl_shards))
    return;
  double total = 0;
  for (double w : weights) total += w;
  if (total <= 0) return;
  double cumulative = 0;
  for (double w : weights) {
    cumulative += w / total;
    shard_cumulative_.push_back(cumulative);
  }
  shard_cumulative_.back() = 1.0;
  // Shard assignment changed: re-bucket revocations and rebuild all CRLs.
  std::vector<x509::Serial> all_revoked;
  for (auto& bucket : shard_revoked_) {
    all_revoked.insert(all_revoked.end(), bucket.begin(), bucket.end());
    bucket.clear();
  }
  for (x509::Serial& serial : all_revoked) {
    const auto shard = static_cast<std::size_t>(ShardForSerial(serial));
    shard_revoked_[shard].push_back(std::move(serial));
  }
  for (ShardState& shard : shards_) shard.dirty = true;
}

util::Timestamp CertificateAuthority::ExpiryOf(
    const x509::Serial& serial) const {
  auto it = issued_.find(serial);
  return it == issued_.end() ? 0 : it->second.not_after;
}

int CertificateAuthority::ShardForSerial(const x509::Serial& serial) const {
  if (options_.num_crl_shards <= 1) return 0;
  // Stable hash over the serial bytes.
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint8_t b : serial) h = (h ^ b) * 1099511628211ull;
  if (shard_cumulative_.empty())
    return static_cast<int>(h % static_cast<std::uint64_t>(options_.num_crl_shards));
  const double u =
      static_cast<double>(h >> 11) * 0x1.0p-53;  // uniform in [0, 1)
  for (std::size_t i = 0; i < shard_cumulative_.size(); ++i) {
    if (u < shard_cumulative_[i]) return static_cast<int>(i);
  }
  return options_.num_crl_shards - 1;
}

void CertificateAuthority::AddSyntheticRevocations(
    std::size_t count, util::Rng& rng, util::Timestamp revoked_between_start,
    util::Timestamp revoked_between_end, util::Timestamp expiry_min,
    util::Timestamp expiry_max, x509::ReasonCode reason) {
  for (std::size_t i = 0; i < count; ++i) {
    const x509::Serial serial = NextSerial(rng);
    IssuedRecord record;
    record.not_after = rng.UniformInt(expiry_min, expiry_max);
    record.revoked = true;
    record.revoked_at =
        rng.UniformInt(revoked_between_start, revoked_between_end);
    record.reason = reason;
    issued_.emplace(serial, record);
    shard_revoked_[static_cast<std::size_t>(ShardForSerial(serial))].push_back(serial);
    ++revoked_count_;
  }
  for (ShardState& shard : shards_) shard.dirty = true;
}

std::string CertificateAuthority::CrlUrl(int shard) const {
  return "http://" + CrlHost() + "/crl" + std::to_string(shard) + ".crl";
}

std::string CertificateAuthority::OcspUrl() const {
  return "http://" + OcspHost() + "/";
}

void CertificateAuthority::RebuildCrl(int shard, util::Timestamp now) {
  ShardState& state = shards_[static_cast<std::size_t>(shard)];
  crl::TbsCrl tbs;
  tbs.issuer = cert_->tbs.subject;
  tbs.this_update = now;
  tbs.next_update = now + options_.crl_validity_seconds;
  tbs.crl_number = ++state.crl_number;
  for (const x509::Serial& serial : shard_revoked_[static_cast<std::size_t>(shard)]) {
    const IssuedRecord& record = issued_.at(serial);
    // Revocations scheduled for the future (the ecosystem generator plans
    // whole timelines up front) have not happened yet.
    if (record.revoked_at > now) continue;
    // Entries for expired certificates are dropped (RFC 5280 permits this
    // and real CAs do it; it drives the CRLSet shrinkage in Fig. 8).
    if (record.not_after < now) continue;
    tbs.entries.push_back(
        crl::CrlEntry{serial, record.revoked_at, record.reason});
  }
  state.crl = crl::SignCrl(std::move(tbs), key_);
  state.dirty = false;
}

const crl::Crl& CertificateAuthority::GetCrl(int shard, util::Timestamp now) {
  ShardState& state = shards_[static_cast<std::size_t>(shard)];
  // A call for a day before the cached CRL's thisUpdate (an audit replaying
  // an earlier window) rebuilds too: a CRL must not list later revocations.
  if (state.dirty || state.crl.der.empty() || state.crl.IsExpired(now) ||
      now < state.crl.tbs.this_update)
    RebuildCrl(shard, now);
  return state.crl;
}

void CertificateAuthority::RegisterEndpoints(net::SimNet* net) {
  net->AddHost(CrlHost(), [this](const net::HttpRequest& request,
                                 util::Timestamp now) {
    for (int shard = 0; shard < options_.num_crl_shards; ++shard) {
      if (request.path == "/crl" + std::to_string(shard) + ".crl") {
        const crl::Crl& crl = GetCrl(shard, now);
        net::HttpResponse response;
        response.body = crl.der;
        response.max_age = crl.tbs.next_update - now;
        return response;
      }
    }
    return net::HttpResponse{
        .status = 404, .body = {}, .max_age = 0, .headers = {}};
  });

  net->AddHost(OcspHost(), [this](const net::HttpRequest& request,
                                  util::Timestamp now) {
    // GET (RFC 6960 Appendix A, the form browsers favor; §6.2) and POST
    // both flow through the serving frontend: precomputed responses,
    // admission control, 503 + Retry-After under overload.
    net::HttpResponse response = frontend_->HandleHttp(request, now);
    response.max_age = options_.ocsp_validity_seconds;
    return response;
  });
}

std::vector<CertificateAuthority::RevocationRecord>
CertificateAuthority::CurrentRevocations(util::Timestamp now) const {
  std::vector<RevocationRecord> out;
  for (const auto& [serial, record] : issued_) {
    if (!record.revoked || record.not_after < now) continue;
    out.push_back(RevocationRecord{serial, record.revoked_at, record.not_after,
                                   record.reason});
  }
  return out;
}

}  // namespace rev::ca
