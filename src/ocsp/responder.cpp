#include "ocsp/responder.h"

#include "crypto/sha256.h"
#include "x509/spki.h"

namespace rev::ocsp {

Responder::Responder(const x509::Certificate& issuer, crypto::KeyPair key,
                     std::int64_t validity_seconds)
    : issuer_name_hash_(crypto::Sha256Bytes(issuer.tbs.subject.Encode())),
      issuer_key_hash_(issuer.SubjectSpkiSha256()),
      key_(std::move(key)),
      validity_seconds_(validity_seconds) {}

void Responder::SetObserver(MutationObserver observer) {
  observer_ = std::move(observer);
}

void Responder::Notify(const x509::Serial& serial) const {
  if (!observer_) return;
  auto it = records_.find(serial);
  observer_(serial, it == records_.end()
                        ? std::nullopt
                        : std::optional<RecordView>(it->second));
}

void Responder::AddCertificate(const x509::Serial& serial) {
  records_.try_emplace(serial);
  Notify(serial);
}

void Responder::Revoke(const x509::Serial& serial, util::Timestamp when,
                       x509::ReasonCode reason) {
  RecordView& record = records_[serial];
  record.status = CertStatus::kRevoked;
  record.revocation_time = when;
  record.reason = reason;
  Notify(serial);
}

void Responder::Remove(const x509::Serial& serial) {
  records_.erase(serial);
  Notify(serial);
}

std::optional<Responder::RecordView> Responder::Lookup(
    const x509::Serial& serial) const {
  auto it = records_.find(serial);
  if (it == records_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::pair<x509::Serial, Responder::RecordView>>
Responder::SnapshotRecords() const {
  std::vector<std::pair<x509::Serial, RecordView>> out;
  out.reserve(records_.size());
  for (const auto& [serial, record] : records_) out.emplace_back(serial, record);
  return out;
}

SingleResponse Responder::MakeSingle(const x509::Serial& serial,
                                     const std::optional<RecordView>& record,
                                     util::Timestamp now) const {
  SingleResponse single;
  single.cert_id.issuer_name_hash = issuer_name_hash_;
  single.cert_id.issuer_key_hash = issuer_key_hash_;
  single.cert_id.serial = serial;
  single.this_update = now;
  single.next_update = now + validity_seconds_;

  if (!record) {
    single.status = CertStatus::kUnknown;
  } else if (record->status == CertStatus::kRevoked &&
             record->revocation_time > now) {
    // Revocation scheduled but not yet effective (simulation timelines are
    // planned up front): still good as of `now`.
    single.status = CertStatus::kGood;
  } else {
    single.status = record->status;
    single.revocation_time = record->revocation_time;
    single.reason = record->reason;
  }
  return single;
}

OcspResponse Responder::Sign(std::span<const SingleResponse> singles,
                             util::Timestamp produced_at,
                             BytesView nonce) const {
  return SignOcspResponse(singles, produced_at, key_, nonce);
}

OcspResponse Responder::StatusFor(const x509::Serial& serial,
                                  util::Timestamp now) const {
  const SingleResponse single = MakeSingle(serial, Lookup(serial), now);
  return Sign({&single, 1}, now);
}

}  // namespace rev::ocsp
