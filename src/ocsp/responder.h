// An OCSP responder's CA side: the status database of one issuer and the
// key that signs its answers.
//
// One Responder instance serves one issuing CA certificate (matching how a
// CA operates a responder per issuer key). It answers no request itself:
// `serve::Frontend` is the one code path that parses and answers OCSP
// requests, from a sharded read-mostly mirror of this database (see
// docs/serving.md), building and signing responses with MakeSingle and
// Sign. The Responder stays the single writer: every mutation is forwarded
// to an optional observer so the serving layer can invalidate precomputed
// responses.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "crypto/signer.h"
#include "ocsp/ocsp.h"
#include "util/bytes.h"
#include "util/time.h"
#include "x509/certificate.h"

namespace rev::ocsp {

class Responder {
 public:
  // One status record, as stored and as exported to the serving layer.
  struct RecordView {
    CertStatus status = CertStatus::kGood;
    util::Timestamp revocation_time = 0;
    x509::ReasonCode reason = x509::ReasonCode::kNoReasonCode;

    // Replication compares records field-for-field to diff a pushed
    // snapshot against the local index (src/fleet).
    friend bool operator==(const RecordView&, const RecordView&) = default;
  };

  // Mutation callback: fired after AddCertificate/Revoke/Remove with the new
  // record (nullopt = removed). Runs on the mutating thread.
  using MutationObserver =
      std::function<void(const x509::Serial&, const std::optional<RecordView>&)>;

  // `issuer` is the CA certificate whose issued certs this responder covers;
  // `key` signs responses (the CA key itself in this library). `validity`
  // controls SingleResponse nextUpdate; the paper notes OCSP responses are
  // typically cacheable on the order of days (§2.2).
  Responder(const x509::Certificate& issuer, crypto::KeyPair key,
            std::int64_t validity_seconds = 4 * util::kSecondsPerDay);

  // Registers an issued certificate as good.
  void AddCertificate(const x509::Serial& serial);

  // Marks a certificate revoked.
  void Revoke(const x509::Serial& serial, util::Timestamp when,
              x509::ReasonCode reason);

  // Forgets a certificate: subsequent queries answer `unknown`. Used by the
  // test suite to generate unknown-status responses (§6.1).
  void Remove(const x509::Serial& serial);

  // Produces a response for a specific serial without a request (used for
  // OCSP stapling, where the server fetches its own status).
  OcspResponse StatusFor(const x509::Serial& serial, util::Timestamp now) const;

  // --- building blocks shared with the serving layer ----------------------

  // The raw record for `serial`, nullopt if never seen / removed.
  std::optional<RecordView> Lookup(const x509::Serial& serial) const;

  // All records, in serial order (bulk load for the serving index).
  std::vector<std::pair<x509::Serial, RecordView>> SnapshotRecords() const;

  // Builds the SingleResponse for `serial` given `record` (which may come
  // from this responder's database or from a serving-layer index). Applies
  // the scheduled-revocation rule: a revocation whose time is still in the
  // future reads `good` as of `now`.
  SingleResponse MakeSingle(const x509::Serial& serial,
                            const std::optional<RecordView>& record,
                            util::Timestamp now) const;

  // Signs a response over `singles` (request order), echoing `nonce`.
  OcspResponse Sign(std::span<const SingleResponse> singles,
                    util::Timestamp produced_at, BytesView nonce = {}) const;

  // Installs (or clears, with nullptr semantics via default-constructed
  // function) the mutation observer. At most one observer is supported —
  // enough for the serving frontend.
  void SetObserver(MutationObserver observer);

  const Bytes& issuer_name_hash() const { return issuer_name_hash_; }
  const Bytes& issuer_key_hash() const { return issuer_key_hash_; }

 private:
  void Notify(const x509::Serial& serial) const;

  Bytes issuer_name_hash_;
  Bytes issuer_key_hash_;
  crypto::KeyPair key_;
  std::int64_t validity_seconds_;
  std::map<x509::Serial, RecordView, util::BytesLess> records_;
  MutationObserver observer_;
};

}  // namespace rev::ocsp
