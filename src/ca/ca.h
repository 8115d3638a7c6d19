// The Certificate Authority model: issuance, revocation intake, CRL
// maintenance (with sharding), and OCSP responder service.
//
// Each CA owns one issuing certificate (root or intermediate), a set of
// issued-certificate records, `num_crl_shards` CRLs (the paper's Table 1
// shows real CAs shard between 3 and 322 CRLs), and one OCSP responder.
// CRLs are re-issued on demand when fetched past their nextUpdate, and
// revoked entries are dropped once the underlying certificate expires —
// the behavior behind the CRLSet shrinkage of Fig. 8.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crl/crl.h"
#include "crypto/signer.h"
#include "net/simnet.h"
#include "ocsp/responder.h"
#include "serve/frontend.h"
#include "util/rng.h"
#include "x509/certificate.h"
#include "x509/verify.h"

namespace rev::ca {

class CertificateAuthority {
 public:
  struct Options {
    std::string name;    // display name, e.g. "GoDaddy"
    std::string domain;  // DNS base for service URLs, e.g. "godaddy.sim"
    crypto::KeyType key_type = crypto::KeyType::kSimSha256;
    int rsa_bits = 1024;           // iff key_type == kRsaSha256
    int num_crl_shards = 1;        // CRL sharding policy
    int serial_bytes = 16;         // serial-number length policy
    std::int64_t crl_validity_seconds = util::kSecondsPerDay;      // §5.2: 95% < 24h
    std::int64_t ocsp_validity_seconds = 4 * util::kSecondsPerDay; // §2.2: days
    std::int64_t default_cert_lifetime_seconds = 365 * util::kSecondsPerDay;
  };

  // Creates a self-signed root CA.
  static std::unique_ptr<CertificateAuthority> CreateRoot(
      const Options& options, util::Rng& rng, util::Timestamp now,
      std::int64_t ca_lifetime_seconds = 10 * 365 * util::kSecondsPerDay);

  // Creates an intermediate CA whose certificate this CA signs.
  std::unique_ptr<CertificateAuthority> CreateIntermediate(
      const Options& options, util::Rng& rng, util::Timestamp now,
      std::int64_t ca_lifetime_seconds = 5 * 365 * util::kSecondsPerDay,
      bool include_crl_url = true, bool include_ocsp_url = true);

  struct IssueOptions {
    std::string common_name;
    bool ev = false;
    bool include_crl_url = true;
    bool include_ocsp_url = true;
    util::Timestamp not_before = 0;
    std::int64_t lifetime_seconds = 0;  // 0 = CA default
  };

  // Issues a leaf certificate.
  x509::CertPtr Issue(const IssueOptions& issue, util::Rng& rng);

  // Records a revocation. Returns false for serials this CA never issued.
  bool Revoke(const x509::Serial& serial, util::Timestamp when,
              x509::ReasonCode reason);

  bool IsRevoked(const x509::Serial& serial) const;

  // notAfter of an issued certificate, or 0 if this CA never issued it.
  util::Timestamp ExpiryOf(const x509::Serial& serial) const;

  // CRL service -------------------------------------------------------------

  int ShardForSerial(const x509::Serial& serial) const;

  // Sets non-uniform shard assignment weights (one per shard). Real CAs
  // concentrate most certificates on a few large CRLs (that is what makes
  // GoDaddy's certificate-weighted average CRL size exceed 1 MB in Table 1
  // despite having 322 CRLs); the weights reproduce that skew.
  void SetShardWeights(std::vector<double> weights);
  std::string CrlUrl(int shard) const;
  std::string OcspUrl() const;
  std::string CrlHost() const { return "crl." + options_.domain; }
  std::string OcspHost() const { return "ocsp." + options_.domain; }

  // Returns the signed CRL for a shard, re-issuing if stale at `now`.
  const crl::Crl& GetCrl(int shard, util::Timestamp now);

  // OCSP service --------------------------------------------------------------

  ocsp::Responder& responder() { return *responder_; }
  const ocsp::Responder& responder() const { return *responder_; }

  // The serving frontend in front of this CA's responder: precomputed
  // responses, admission control, load shedding (docs/serving.md). All OCSP
  // traffic registered via RegisterEndpoints flows through it.
  serve::Frontend& frontend() { return *frontend_; }
  const serve::Frontend& frontend() const { return *frontend_; }

  // The response DER a server staples for one of this CA's serials —
  // served from the frontend's precomputed cache when fresh.
  Bytes StapleFor(const x509::Serial& serial, util::Timestamp now);

  // Installs HTTP handlers for the CRL shards and the OCSP responder on the
  // simulated network. The CA must outlive `net`.
  void RegisterEndpoints(net::SimNet* net);

  // Accessors -----------------------------------------------------------------

  const x509::CertPtr& cert() const { return cert_; }
  const crypto::KeyPair& key() const { return key_; }
  const Options& options() const { return options_; }
  std::size_t issued_count() const { return issued_.size(); }
  std::size_t revoked_count() const { return revoked_count_; }

  // All revocation records currently present across shards at `now`
  // (after expiry-based dropping), for analysis code.
  struct RevocationRecord {
    x509::Serial serial;
    util::Timestamp revoked_at;
    util::Timestamp cert_expiry;
    x509::ReasonCode reason;
  };
  std::vector<RevocationRecord> CurrentRevocations(util::Timestamp now) const;

 private:
  CertificateAuthority(Options options, crypto::KeyPair key);

  struct IssuedRecord {
    util::Timestamp not_after = 0;
    bool revoked = false;
    util::Timestamp revoked_at = 0;
    x509::ReasonCode reason = x509::ReasonCode::kNoReasonCode;
  };

  x509::Serial NextSerial(util::Rng& rng);
  void RebuildCrl(int shard, util::Timestamp now);

  void InitServing();

  Options options_;
  crypto::KeyPair key_;
  x509::CertPtr cert_;
  std::unique_ptr<ocsp::Responder> responder_;
  // Declared after responder_: the frontend detaches its observer on
  // destruction, so it must be destroyed first.
  std::unique_ptr<serve::Frontend> frontend_;

  // Adds `count` synthetic revoked-certificate records (serials only, no
  // real certificates issued). Models CRL populations that are not part of
  // the web Leaf Set — e.g. the 2.6M-entry Apple WWDR CRL behind the
  // paper's 76 MB maximum (§5.2) and the 11.46M total revocations (§7.2).
 public:
  void AddSyntheticRevocations(std::size_t count, util::Rng& rng,
                               util::Timestamp revoked_between_start,
                               util::Timestamp revoked_between_end,
                               util::Timestamp expiry_min,
                               util::Timestamp expiry_max,
                               x509::ReasonCode reason);

 private:
  std::vector<double> shard_cumulative_;  // empty = uniform hashing
  std::map<x509::Serial, IssuedRecord, util::BytesLess> issued_;
  // Revoked serials bucketed by shard, so CRL rebuilds touch only their own
  // shard's entries instead of every issued certificate.
  std::vector<std::vector<x509::Serial>> shard_revoked_;
  std::size_t revoked_count_ = 0;
  std::uint64_t serial_counter_ = 0;

  struct ShardState {
    crl::Crl crl;
    bool dirty = true;
    std::int64_t crl_number = 0;
  };
  std::vector<ShardState> shards_;
};

}  // namespace rev::ca
