#include "core/archive.h"

#include <cstdio>

#include "util/wire.h"

namespace rev::core {

using util::wire::GetU32;
using util::wire::GetU64;
using util::wire::PutBlob;
using util::wire::PutU32;
using util::wire::PutU64;

namespace {

constexpr char kMagic[4] = {'R', 'V', 'K', 'A'};
constexpr std::uint32_t kVersion = 1;

}  // namespace

std::uint32_t ScanArchive::Intern(const x509::CertPtr& cert) {
  auto [it, inserted] = index_by_fingerprint_.try_emplace(
      cert->Fingerprint(), static_cast<std::uint32_t>(certs_.size()));
  if (inserted) certs_.push_back(cert);
  return it->second;
}

void ScanArchive::AddSnapshot(const scan::CertScanSnapshot& snapshot) {
  Snapshot stored;
  stored.time = snapshot.time;
  stored.observations.reserve(snapshot.observations.size());
  for (const scan::CertObservation& obs : snapshot.observations) {
    Observation o;
    o.ip = obs.ip;
    o.chain.reserve(obs.chain.size());
    for (const x509::CertPtr& cert : obs.chain) {
      if (cert) o.chain.push_back(Intern(cert));
    }
    stored.observations.push_back(std::move(o));
  }
  snapshots_.push_back(std::move(stored));
}

std::vector<scan::CertScanSnapshot> ScanArchive::Snapshots() const {
  std::vector<scan::CertScanSnapshot> out;
  out.reserve(snapshots_.size());
  for (const Snapshot& stored : snapshots_) {
    scan::CertScanSnapshot snapshot;
    snapshot.time = stored.time;
    snapshot.observations.reserve(stored.observations.size());
    for (const Observation& o : stored.observations) {
      scan::CertObservation obs;
      obs.ip = o.ip;
      for (std::uint32_t index : o.chain) obs.chain.push_back(certs_[index]);
      snapshot.observations.push_back(std::move(obs));
    }
    out.push_back(std::move(snapshot));
  }
  return out;
}

Bytes ScanArchive::Serialize() const {
  Bytes out;
  out.insert(out.end(), std::begin(kMagic), std::end(kMagic));
  PutU32(out, kVersion);
  PutU32(out, static_cast<std::uint32_t>(certs_.size()));
  for (const x509::CertPtr& cert : certs_) PutBlob(out, cert->der);
  PutU32(out, static_cast<std::uint32_t>(snapshots_.size()));
  for (const Snapshot& snapshot : snapshots_) {
    PutU64(out, static_cast<std::uint64_t>(snapshot.time));
    PutU32(out, static_cast<std::uint32_t>(snapshot.observations.size()));
    for (const Observation& o : snapshot.observations) {
      PutU32(out, o.ip);
      PutU32(out, static_cast<std::uint32_t>(o.chain.size()));
      for (std::uint32_t index : o.chain) PutU32(out, index);
    }
  }
  return out;
}

std::optional<ScanArchive> ScanArchive::Deserialize(BytesView data) {
  std::size_t pos = 0;
  if (data.size() < 8) return std::nullopt;
  for (char c : kMagic)
    if (data[pos++] != static_cast<std::uint8_t>(c)) return std::nullopt;
  std::uint32_t version;
  if (!GetU32(data, pos, &version) || version != kVersion) return std::nullopt;

  ScanArchive archive;
  std::uint32_t cert_count;
  if (!GetU32(data, pos, &cert_count)) return std::nullopt;
  archive.certs_.reserve(cert_count);
  for (std::uint32_t i = 0; i < cert_count; ++i) {
    std::uint32_t len;
    if (!GetU32(data, pos, &len) || pos + len > data.size())
      return std::nullopt;
    auto cert = x509::ParseCertificate(data.subspan(pos, len));
    if (!cert) return std::nullopt;
    pos += len;
    auto ptr = std::make_shared<const x509::Certificate>(*std::move(cert));
    archive.index_by_fingerprint_.emplace(
        ptr->Fingerprint(), static_cast<std::uint32_t>(archive.certs_.size()));
    archive.certs_.push_back(std::move(ptr));
  }

  std::uint32_t snapshot_count;
  if (!GetU32(data, pos, &snapshot_count)) return std::nullopt;
  archive.snapshots_.reserve(snapshot_count);
  for (std::uint32_t s = 0; s < snapshot_count; ++s) {
    Snapshot snapshot;
    std::uint64_t time;
    std::uint32_t observation_count;
    if (!GetU64(data, pos, &time) || !GetU32(data, pos, &observation_count))
      return std::nullopt;
    snapshot.time = static_cast<std::int64_t>(time);
    snapshot.observations.reserve(observation_count);
    for (std::uint32_t i = 0; i < observation_count; ++i) {
      Observation o;
      std::uint32_t chain_len;
      if (!GetU32(data, pos, &o.ip) || !GetU32(data, pos, &chain_len))
        return std::nullopt;
      o.chain.reserve(chain_len);
      for (std::uint32_t c = 0; c < chain_len; ++c) {
        std::uint32_t index;
        if (!GetU32(data, pos, &index) || index >= archive.certs_.size())
          return std::nullopt;
        o.chain.push_back(index);
      }
      snapshot.observations.push_back(std::move(o));
    }
    archive.snapshots_.push_back(std::move(snapshot));
  }
  if (pos != data.size()) return std::nullopt;
  return archive;
}

bool ScanArchive::SaveToFile(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  const Bytes data = Serialize();
  const bool ok = std::fwrite(data.data(), 1, data.size(), file) == data.size();
  std::fclose(file);
  return ok;
}

std::optional<ScanArchive> ScanArchive::LoadFromFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return std::nullopt;
  Bytes data;
  std::uint8_t buffer[65536];
  std::size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0)
    data.insert(data.end(), buffer, buffer + n);
  std::fclose(file);
  return Deserialize(data);
}

}  // namespace rev::core
