#include "core/corpus.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "crypto/sha256.h"
#include "util/hash.h"

namespace rev::core {

CertCorpus::Row CertCorpus::FindDer(BytesView der) const {
  return FindDer(der, util::HashBytes(der));
}

CertCorpus::Row CertCorpus::FindDer(BytesView der, std::uint64_t hash) const {
  return index_.Find(hash, [&](std::uint32_t row) {
    const BytesView stored = this->der(row);
    return std::equal(stored.begin(), stored.end(), der.begin(), der.end());
  });
}

CertCorpus::Row CertCorpus::Find(BytesView fingerprint) const {
  if (fingerprint.size() != 32) return kNoRow;
  const std::vector<Row>& rows = SortedRows();
  const std::uint8_t* fps = fps_.data();
  const auto it = std::lower_bound(
      rows.begin(), rows.end(), fingerprint, [fps](Row r, BytesView fp) {
        return std::memcmp(fps + std::size_t{r} * 32, fp.data(), 32) < 0;
      });
  if (it == rows.end() ||
      std::memcmp(fps + std::size_t{*it} * 32, fingerprint.data(), 32) != 0)
    return kNoRow;
  return *it;
}

CertCorpus::UrlRef CertCorpus::InternUrlList(
    std::span<const std::uint32_t> ids, std::size_t num_crl) {
  const std::uint64_t tag = util::HashBytes(
      {reinterpret_cast<const std::uint8_t*>(ids.data()), ids.size_bytes()});
  const std::uint32_t found = url_list_index_.Find(tag, [&](std::uint32_t i) {
    const UrlRef& ref = url_lists_[i];
    const std::uint32_t* stored = url_pool_.data() + ref.offset;
    return ref.num_crl == num_crl &&
           std::size_t{ref.num_crl} + ref.num_ocsp == ids.size() &&
           std::equal(ids.begin(), ids.end(), stored);
  });
  if (found != util::HashIndex::kNoId) return url_lists_[found];
  UrlRef ref;
  ref.offset = static_cast<std::uint32_t>(url_pool_.size());
  ref.num_crl = static_cast<std::uint16_t>(num_crl);
  ref.num_ocsp = static_cast<std::uint16_t>(ids.size() - num_crl);
  url_pool_.insert(url_pool_.end(), ids.begin(), ids.end());
  url_list_index_.Insert(tag, static_cast<std::uint32_t>(url_lists_.size()));
  url_lists_.push_back(ref);
  return ref;
}

CertCorpus::Row CertCorpus::Append(const x509::CertView& view,
                                   std::uint64_t hash) {
  assert(refs_.size() < kNoRow);
  const Row row = static_cast<Row>(refs_.size());

  const BytesView der = view.der;
  const crypto::Sha256Digest digest = crypto::Sha256::Hash(der);
  fps_.insert(fps_.end(), digest.begin(), digest.end());
  // tbs/sig/serial become offsets into the arena copy, which is
  // byte-identical to the parsed buffer, so no second parse is needed.
  const BytesView arena_der = arena_.Copy(der);
  const auto off = [&](BytesView field) {
    return static_cast<std::uint32_t>(field.data() - der.data());
  };
  DerRef ref;
  ref.base = arena_der.data();
  ref.der_len = static_cast<std::uint32_t>(arena_der.size());
  ref.tbs_off = off(view.tbs_der);
  ref.tbs_len = static_cast<std::uint32_t>(view.tbs_der.size());
  ref.sig_off = off(view.signature);
  ref.sig_len = static_cast<std::uint16_t>(view.signature.size());
  ref.serial_off = off(view.serial);
  ref.serial_len = static_cast<std::uint16_t>(view.serial.size());
  refs_.push_back(ref);

  // Names and URLs still alias the caller's buffer; interning copies them.
  issuer_id_.push_back(names_.Intern(view.issuer_der));
  subject_id_.push_back(names_.Intern(view.subject_der));

  url_ids_.clear();
  for (std::string_view u : view.crl_urls) url_ids_.push_back(urls_.Intern(u));
  for (std::string_view u : view.ocsp_urls) url_ids_.push_back(urls_.Intern(u));
  url_ref_.push_back(InternUrlList(url_ids_, view.crl_urls.size()));

  not_before_.push_back(view.not_before);
  not_after_.push_back(view.not_after);
  first_seen_.push_back(0);
  last_seen_.push_back(0);
  observations_.push_back(0);
  latest_epoch_.push_back(0);
  sig_type_.push_back(static_cast<std::uint8_t>(view.sig_type));
  std::uint8_t flags = 0;
  if (view.is_ca) flags |= kFlagCa;
  if (view.is_ev) flags |= kFlagEv;
  flags_.push_back(flags);
  valid_.push_back(0);

  index_.Insert(hash, row);
  return row;
}

x509::CertPtr CertCorpus::cert(Row r) const {
  {
    std::lock_guard<std::mutex> lock(cert_mu_);
    auto it = cert_cache_.find(r);
    if (it != cert_cache_.end()) return it->second;
  }
  auto parsed = x509::ParseCertificate(der(r));
  x509::CertPtr ptr =
      parsed ? std::make_shared<const x509::Certificate>(*std::move(parsed))
             : nullptr;
  std::lock_guard<std::mutex> lock(cert_mu_);
  auto [it, inserted] = cert_cache_.emplace(r, std::move(ptr));
  return it->second;
}

std::vector<CertCorpus::Row> CertCorpus::RowsByFingerprint() const {
  return SortedRows();
}

void CertCorpus::SortByFingerprint(std::span<const std::uint8_t> fingerprints,
                                   std::span<Row> rows) {
  struct Key {
    std::uint64_t prefix;  // first 8 fingerprint bytes, big-endian
    Row row;
  };
  const std::uint8_t* fps = fingerprints.data();
  std::vector<Key> keys(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::uint8_t* fp = fps + std::size_t{rows[i]} * 32;
    std::uint64_t prefix = 0;
    for (int b = 0; b < 8; ++b) prefix = prefix << 8 | fp[b];
    keys[i] = Key{prefix, rows[i]};
  }
  std::sort(keys.begin(), keys.end(), [fps](const Key& a, const Key& b) {
    if (a.prefix != b.prefix) return a.prefix < b.prefix;
    return std::memcmp(fps + std::size_t{a.row} * 32,
                       fps + std::size_t{b.row} * 32, 32) < 0;
  });
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = keys[i].row;
}

const std::vector<CertCorpus::Row>& CertCorpus::SortedRows() const {
  // The sorted order is cached for repeated cold-path queries (Find).
  // Appending a row makes the cache stale; not safe against concurrent
  // ingest (no reader of this order runs during ingest).
  if (sorted_size_.load(std::memory_order_acquire) != size()) {
    std::lock_guard<std::mutex> lock(sort_mu_);
    if (sorted_size_.load(std::memory_order_relaxed) != size()) {
      std::vector<Row> rows(size());
      for (Row r = 0; r < rows.size(); ++r) rows[r] = r;
      SortByFingerprint(rows);
      sorted_rows_ = std::move(rows);
      sorted_size_.store(sorted_rows_.size(), std::memory_order_release);
    }
  }
  return sorted_rows_;
}

std::size_t CertCorpus::column_bytes() const {
  return fps_.size() + refs_.size() * sizeof(DerRef) +
         issuer_id_.size() * 4 + subject_id_.size() * 4 +
         url_ref_.size() * sizeof(UrlRef) + url_pool_.size() * 4 +
         not_before_.size() * 8 + not_after_.size() * 8 +
         first_seen_.size() * 8 + last_seen_.size() * 8 +
         observations_.size() * 8 + latest_epoch_.size() * 4 +
         sig_type_.size() + flags_.size() + valid_.size();
}

bool CertCorpus::CheckInvariants() const {
  const std::size_t n = size();
  if (fps_.size() != n * 32 || issuer_id_.size() != n ||
      subject_id_.size() != n || url_ref_.size() != n ||
      not_before_.size() != n || not_after_.size() != n ||
      first_seen_.size() != n || last_seen_.size() != n ||
      observations_.size() != n || latest_epoch_.size() != n ||
      sig_type_.size() != n || flags_.size() != n || valid_.size() != n)
    return false;
  if (index_.size() != n) return false;

  for (Row r = 0; r < n; ++r) {
    const DerRef& ref = refs_[r];
    if (ref.base == nullptr || ref.der_len == 0) return false;
    // tbs/sig/serial must land inside the row's DER.
    if (std::uint64_t{ref.tbs_off} + ref.tbs_len > ref.der_len) return false;
    if (std::uint64_t{ref.sig_off} + ref.sig_len > ref.der_len) return false;
    if (std::uint64_t{ref.serial_off} + ref.serial_len > ref.der_len)
      return false;

    const crypto::Sha256Digest digest = crypto::Sha256::Hash(der(r));
    if (std::memcmp(digest.data(), fps_.data() + std::size_t{r} * 32, 32) != 0)
      return false;
    if (FindDer(der(r)) != r || Find(fingerprint(r)) != r) return false;
    if (!x509::ParseCertView(der(r))) return false;

    if (issuer_id_[r] >= names_.size() || subject_id_[r] >= names_.size())
      return false;
    for (std::uint32_t id : crl_url_ids(r))
      if (id >= urls_.size()) return false;
    for (std::uint32_t id : ocsp_url_ids(r))
      if (id >= urls_.size()) return false;
    const UrlRef& uref = url_ref_[r];
    if (std::size_t{uref.offset} + uref.num_crl + uref.num_ocsp >
        url_pool_.size())
      return false;
  }

  // Interned names must round-trip through Find.
  for (std::uint32_t id = 0; id < names_.size(); ++id)
    if (names_.Find(AsBytes(names_.Get(id))) != id) return false;
  return true;
}

}  // namespace rev::core
