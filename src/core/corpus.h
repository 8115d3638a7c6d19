// The paper-scale certificate store (ROADMAP item 2): a struct-of-arrays
// columnar corpus replacing Pipeline's node-per-cert std::map<Bytes,
// CertRecord> of heap CertPtrs.
//
// Layout (docs/corpus.md has the full diagram and invariants):
//   - every row enters as raw DER through Pipeline::ObserveDer, after it
//     passed x509::ParseCertView; the DER lives in a util::Arena (chunked,
//     pointer-stable: views never dangle as rows are appended), one block
//     per row holding just those bytes;
//   - tbs/signature/serial are offsets into the row's DER, not copies;
//   - issuer/subject name DER and CRL/OCSP URLs are interned
//     (util::StringInterner) — columns hold 4-byte ids;
//   - lifetimes/observations/flags are fixed-width columns, contiguous for
//     ParallelFor;
//   - identity is the certificate's bytes: one open-addressing index
//     (util::HashIndex) keyed by util::HashBytes of the DER maps it to its
//     row, confirmed by memcmp against the arena copy. Ingest hashes each
//     chain element once and passes that hash to the probe and the append;
//     a re-sighted certificate is found without a parse or a SHA-256;
//   - the SHA-256 fingerprint column is computed once per new row; it is
//     the sort key of SortByFingerprint (the Leaf Set order, built in
//     Pipeline::Finalize) and of the cold paths RowsByFingerprint and
//     Find(fingerprint);
//   - the "in latest scan" view is epoch-based: starting a newer scan is one
//     counter bump, not an O(rows) flag sweep.
//
// Certificate *objects* are materialized lazily: cert(row) re-parses the
// arena DER on demand and caches the result (used for the few hundred CA
// rows and cold paths like OCSP queries; the analyses read columns).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "util/arena.h"
#include "util/bytes.h"
#include "util/hash_index.h"
#include "util/interner.h"
#include "util/time.h"
#include "x509/certificate.h"
#include "x509/verify.h"
#include "x509/view.h"

namespace rev::core {

class CertCorpus {
 public:
  using Row = std::uint32_t;
  static constexpr Row kNoRow = util::HashIndex::kNoId;

  // Row holding exactly these DER bytes, or kNoRow: one word-wise hash of
  // the DER, an index probe and a memcmp against the arena copy.
  Row FindDer(BytesView der) const;

  // Row for a SHA-256 fingerprint, or kNoRow: a binary search over the
  // cached RowsByFingerprint order, which is re-sorted first if rows were
  // appended since (O(rows log rows)). A cold post-ingest query; an
  // ingest-time lookup uses FindDer. Like RowsByFingerprint, must not run
  // concurrently with ingest.
  Row Find(BytesView fingerprint) const;

  std::size_t size() const { return refs_.size(); }

  // Identity / bytes ---------------------------------------------------------
  BytesView fingerprint(Row r) const {
    return {fps_.data() + std::size_t{r} * 32, 32};
  }
  BytesView der(Row r) const {
    const DerRef& ref = refs_[r];
    return {ref.base, ref.der_len};
  }
  BytesView tbs_der(Row r) const {
    const DerRef& ref = refs_[r];
    return {ref.base + ref.tbs_off, ref.tbs_len};
  }
  BytesView signature(Row r) const {
    const DerRef& ref = refs_[r];
    return {ref.base + ref.sig_off, ref.sig_len};
  }
  BytesView serial(Row r) const {
    const DerRef& ref = refs_[r];
    return {ref.base + ref.serial_off, ref.serial_len};
  }
  crypto::KeyType sig_type(Row r) const {
    return static_cast<crypto::KeyType>(sig_type_[r]);
  }

  // Interned names / URLs ----------------------------------------------------
  std::uint32_t issuer_id(Row r) const { return issuer_id_[r]; }
  std::uint32_t subject_id(Row r) const { return subject_id_[r]; }
  BytesView name_der(std::uint32_t name_id) const {
    return names_.GetBytes(name_id);
  }
  // Id for a name DER if interned (i.e. referenced by any row), else
  // util::StringInterner::kInvalidId.
  std::uint32_t FindName(BytesView name_der) const {
    return names_.Find(name_der);
  }

  std::span<const std::uint32_t> crl_url_ids(Row r) const {
    const UrlRef& ref = url_ref_[r];
    return {url_pool_.data() + ref.offset, ref.num_crl};
  }
  std::span<const std::uint32_t> ocsp_url_ids(Row r) const {
    const UrlRef& ref = url_ref_[r];
    return {url_pool_.data() + ref.offset + ref.num_crl, ref.num_ocsp};
  }
  std::string_view url(std::uint32_t url_id) const { return urls_.Get(url_id); }
  std::size_t num_urls() const { return urls_.size(); }

  // Fixed-width columns ------------------------------------------------------
  util::Timestamp not_before(Row r) const { return not_before_[r]; }
  util::Timestamp not_after(Row r) const { return not_after_[r]; }
  bool is_ca(Row r) const { return (flags_[r] & kFlagCa) != 0; }
  bool is_ev(Row r) const { return (flags_[r] & kFlagEv) != 0; }

  bool valid(Row r) const { return valid_[r] != 0; }
  // Per-row byte column: safe for concurrent ParallelFor writers that each
  // own disjoint rows.
  void set_valid(Row r, bool v) { valid_[r] = v ? 1 : 0; }

  util::Timestamp first_seen(Row r) const { return first_seen_[r]; }
  util::Timestamp last_seen(Row r) const { return last_seen_[r]; }
  std::uint64_t observations(Row r) const { return observations_[r]; }
  bool in_latest_scan(Row r) const {
    return latest_epoch_[r] == current_epoch_;
  }

  // Ingest mutators (driven by Pipeline) -------------------------------------
  // Folds a sighting at `t` (> 0) into the lifetime columns.
  void FoldSeen(Row r, util::Timestamp t) {
    if (first_seen_[r] == 0 || t < first_seen_[r]) first_seen_[r] = t;
    if (t > last_seen_[r]) last_seen_[r] = t;
  }
  void AddLeafObservation(Row r) { ++observations_[r]; }
  void MarkInLatestScan(Row r) { latest_epoch_[r] = current_epoch_; }
  // O(1) clear of the latest-scan view (every row's membership lapses).
  void AdvanceLatestScan() { ++current_epoch_; }

  // Lazy materialization -----------------------------------------------------
  // Full Certificate for a row, re-parsed from arena DER and cached.
  // Thread-safe. Never null for a stored row: ParseCertificate is the
  // ParseCertView walk every row passed, plus materialization.
  x509::CertPtr cert(Row r) const;

  // All rows sorted by fingerprint bytes — the iteration order of the
  // std::map<Bytes, CertRecord> this store replaced. A cold path (tests,
  // Find): the study path sorts only the rows it needs with
  // SortByFingerprint. Cached between ingests; recomputed lazily when rows
  // have been appended since. Must not run concurrently with ingest.
  std::vector<Row> RowsByFingerprint() const;

  // Sorts `rows` into ascending fingerprint order, the order of
  // RowsByFingerprint restricted to them.
  void SortByFingerprint(std::span<Row> rows) const {
    SortByFingerprint(fps_, rows);
  }
  // The same sort over any flat array of 32-byte fingerprints, row r's at
  // offset 32 * r. It sorts (big-endian first 8 fingerprint bytes, row)
  // pairs, so almost every comparison is one integer compare; pairs with
  // equal prefixes are ordered by a 32-byte memcmp, so the order is exactly
  // that of a memcmp sort.
  static void SortByFingerprint(std::span<const std::uint8_t> fingerprints,
                                std::span<Row> rows);

  // Memory accounting --------------------------------------------------------
  std::size_t arena_bytes() const { return arena_.bytes_used(); }
  std::size_t column_bytes() const;
  std::size_t index_bytes() const { return index_.bytes(); }
  std::size_t interner_bytes() const {
    return names_.arena_bytes() + urls_.arena_bytes();
  }

  // Structural invariants (fingerprints match stored DER, offsets inside
  // the DER, FindDer and Find resolve every row to itself, every row's DER
  // passes ParseCertView, columns aligned). O(rows log rows); for tests.
  bool CheckInvariants() const;

 private:
  // Pipeline::ObserveDer, the only way into the corpus, hashes every chain
  // element once, probes with FindDer(der, hash), parses only the misses
  // and hands their views and hashes to Append.
  friend class Pipeline;

  static constexpr std::uint8_t kFlagCa = 1;
  static constexpr std::uint8_t kFlagEv = 2;

  // One arena block per row, just the DER; tbs/sig/serial alias ranges
  // inside it.
  struct DerRef {
    const std::uint8_t* base = nullptr;
    std::uint32_t der_len = 0;
    std::uint32_t tbs_off = 0;
    std::uint32_t tbs_len = 0;
    std::uint32_t sig_off = 0;
    std::uint32_t serial_off = 0;
    std::uint16_t sig_len = 0;
    std::uint16_t serial_len = 0;
  };
  struct UrlRef {
    std::uint32_t offset = 0;
    std::uint16_t num_crl = 0;
    std::uint16_t num_ocsp = 0;
  };

  // FindDer with `hash` = util::HashBytes(der) already computed.
  Row FindDer(BytesView der, std::uint64_t hash) const;
  // Appends a view-parsed row; `hash` is util::HashBytes(view.der) and the
  // bytes must be absent.
  Row Append(const x509::CertView& view, std::uint64_t hash);
  // RowsByFingerprint's cache, re-sorted first if stale.
  const std::vector<Row>& SortedRows() const;
  // The shared url_pool_ segment holding `ids` (a row's CRL url ids, then
  // its OCSP url ids; the first `num_crl` are CRL), appended on first sight.
  UrlRef InternUrlList(std::span<const std::uint32_t> ids,
                       std::size_t num_crl);

  util::Arena arena_;
  std::vector<std::uint8_t> fps_;  // 32 bytes per row, flat
  std::vector<DerRef> refs_;
  std::vector<std::uint32_t> issuer_id_;
  std::vector<std::uint32_t> subject_id_;
  std::vector<UrlRef> url_ref_;
  std::vector<std::uint32_t> url_pool_;
  std::vector<std::int64_t> not_before_;
  std::vector<std::int64_t> not_after_;
  std::vector<std::int64_t> first_seen_;
  std::vector<std::int64_t> last_seen_;
  std::vector<std::uint64_t> observations_;
  std::vector<std::uint32_t> latest_epoch_;
  std::vector<std::uint8_t> sig_type_;
  std::vector<std::uint8_t> flags_;
  std::vector<std::uint8_t> valid_;
  std::uint32_t current_epoch_ = 1;

  // util::HashBytes(der(row)) -> row; tag matches are confirmed by memcmp
  // against the arena DER.
  util::HashIndex index_;
  util::StringInterner names_;
  util::StringInterner urls_;
  // The distinct (crl ids, ocsp ids) lists, each a shared url_pool_
  // segment: most rows share a handful of them. `url_list_index_` maps
  // util::HashBytes of a list's ids to its position in `url_lists_`; a tag
  // hit is confirmed against the pool segment.
  std::vector<UrlRef> url_lists_;
  util::HashIndex url_list_index_;
  // Append's scratch for the row being appended: its CRL url ids, then its
  // OCSP url ids. Reused, so an append allocates no list.
  std::vector<std::uint32_t> url_ids_;

  mutable std::mutex cert_mu_;
  mutable std::map<Row, x509::CertPtr> cert_cache_;
  // Cache for RowsByFingerprint and Find; stale iff `sorted_size_` differs
  // from size() (rows are append-only, fingerprints immutable). The re-sort
  // runs under `sort_mu_`, so concurrent post-ingest readers are safe;
  // readers never run concurrently with ingest.
  mutable std::mutex sort_mu_;
  mutable std::atomic<std::size_t> sorted_size_{0};
  mutable std::vector<Row> sorted_rows_;
};

}  // namespace rev::core
