#include "core/pipeline.h"

#include <algorithm>
#include <chrono>
#include <map>

#include "crypto/hmac.h"
#include "obs/distrace.h"
#include "obs/metrics.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace rev::core {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Pipeline-wide instruments (docs/observability.md). Aggregates across
// pipeline instances; the per-instance wall-second accessors below remain
// the exact per-run numbers.
obs::Counter& ScansCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("pipeline.scans_ingested");
  return counter;
}

obs::Counter& LeavesCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("pipeline.leaves_verified");
  return counter;
}

}  // namespace

void Pipeline::BeginScan(util::Timestamp t) {
  ScansCounter().Increment();
  finalized_ = false;
  // Only a strictly newer snapshot starts a new latest-scan view; a second
  // snapshot at the same timestamp merges into the current view (clearing
  // here would silently drop the first snapshot's leaves), and an older one
  // must not disturb the view at all.
  const bool strictly_newer = t > latest_scan_time_;
  scan_in_latest_ = t >= latest_scan_time_;
  if (strictly_newer) {
    latest_scan_time_ = t;
    corpus_.AdvanceLatestScan();  // O(1): every row's membership lapses
  } else if (!scan_in_latest_) {
    ++out_of_order_scans_;
  }
  scan_time_ = t;
}

std::optional<CertCorpus::Row> Pipeline::ObserveDer(
    std::span<const BytesView> chain) {
  if (chain.empty()) return std::nullopt;
  // Validate every element before interning any: a rejected observation
  // must leave the corpus bit-identical (fuzz-tested), so no element may be
  // folded before the last one has passed. Each element's DER is hashed
  // once; the probe, the in-chain re-probe and the append share that hash.
  // Bytes the corpus already holds passed ParseCertView when they were
  // interned and need no parse. Only new DER is parsed, once; its view goes
  // straight to the append.
  chain_rows_.resize(chain.size());
  chain_hashes_.resize(chain.size());
  new_views_.clear();
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const std::uint64_t hash = util::HashBytes(chain[i]);
    const CertCorpus::Row row = corpus_.FindDer(chain[i], hash);
    if (row == CertCorpus::kNoRow) {
      std::optional<x509::CertView> view = x509::ParseCertView(chain[i]);
      if (!view) return std::nullopt;
      new_views_.push_back(*std::move(view));
    }
    chain_rows_[i] = row;
    chain_hashes_[i] = hash;
  }
  CertCorpus::Row leaf_row = CertCorpus::kNoRow;
  std::size_t next_view = 0;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    CertCorpus::Row row = chain_rows_[i];
    if (row == CertCorpus::kNoRow) {
      // Re-probed: an earlier element of the same chain may have appended
      // these bytes since the first probe missed.
      const x509::CertView& view = new_views_[next_view++];
      row = corpus_.FindDer(chain[i], chain_hashes_[i]);
      if (row == CertCorpus::kNoRow)
        row = corpus_.Append(view, chain_hashes_[i]);
    }
    corpus_.FoldSeen(row, scan_time_);
    if (i == 0) {
      leaf_row = row;
      corpus_.AddLeafObservation(row);
      if (scan_in_latest_) corpus_.MarkInLatestScan(row);
    }
  }
  return leaf_row;
}

void Pipeline::EndScan() {}

void Pipeline::Finalize() {
  if (finalized_) return;
  finalized_ = true;
  obs::Span finalize_span("pipeline.finalize");
  const auto start = std::chrono::steady_clock::now();

  // Only the CA rows and the Leaf Set need fingerprint order; the other
  // passes run in row order over contiguous columns.
  const CertCorpus::Row num_rows = static_cast<CertCorpus::Row>(corpus_.size());
  std::vector<CertCorpus::Row> ca_rows;
  for (CertCorpus::Row r = 0; r < num_rows; ++r)
    if (corpus_.is_ca(r)) ca_rows.push_back(r);
  corpus_.SortByFingerprint(ca_rows);

  // Candidate intermediates: every CA certificate observed, materialized in
  // fingerprint order (the old map's iteration order). CA rows are a tiny
  // fraction of the corpus, so this is the only place whole-certificate
  // objects are built in bulk.
  {
    obs::Span intermediates_span("pipeline.intermediates");
    std::vector<x509::CertPtr> candidates;
    candidates.reserve(ca_rows.size());
    for (const CertCorpus::Row r : ca_rows) candidates.push_back(corpus_.cert(r));
    intermediate_set_ = x509::BuildIntermediateSet(candidates, roots_);
  }
  intermediate_wall_seconds_ = SecondsSince(start);

  // The rows holding a root's or an Intermediate Set member's bytes, sorted
  // (a root never observed has none). Intermediate Set members are CA rows,
  // so a non-CA row here is a root observed as a leaf.
  std::vector<CertCorpus::Row> trusted_rows;
  const auto add_trusted = [&](const x509::CertPtr& cert) {
    const CertCorpus::Row row = corpus_.FindDer(cert->der);
    if (row != CertCorpus::kNoRow) trusted_rows.push_back(row);
  };
  for (const x509::CertPtr& root : roots_.all()) add_trusted(root);
  for (const x509::CertPtr& cert : intermediate_set_) add_trusted(cert);
  std::sort(trusted_rows.begin(), trusted_rows.end());
  const auto is_trusted = [&](CertCorpus::Row r) {
    return std::binary_search(trusted_rows.begin(), trusted_rows.end(), r);
  };

  // Validate every certificate, ignoring date errors (§3.1). A CA row is
  // valid iff it is trusted; leaves get the batched columnar verification
  // below.
  for (const CertCorpus::Row r : ca_rows) corpus_.set_valid(r, is_trusted(r));

  // Batched leaf verification. The DFS in x509::VerifyChain reduces, for a
  // non-CA leaf over this pool, to: valid ⟺ the leaf IS a root, or some
  // name-matched candidate (roots first, then Intermediate Set members)
  // whose key type matches verifies the signature — every pool candidate is
  // itself verifiable to a root by construction, and with ignore_dates all
  // date checks pass. So candidates are grouped per interned issuer-name id
  // once, sim-scheme keys get a PrecomputedHmacKey (two SHA-256 mid-state
  // copies per tag instead of two key-block compressions), and the
  // ParallelFor below walks the rows in order, each claimed range a
  // contiguous slice of every column it reads. Equivalence with the real
  // DFS is asserted by tests/corpus_test.cpp.
  struct Candidate {
    crypto::PrecomputedHmacKey sim_key;  // valid iff is_sim
    const crypto::PublicKey* key = nullptr;
    bool is_sim = false;
  };
  // issuer name id -> candidates, in root-store-then-pool order (the DFS
  // candidate order; order only affects which candidate matches first, not
  // whether one does).
  std::map<std::uint32_t, std::vector<Candidate>> candidates_by_name;
  auto add_candidate = [&](const x509::CertPtr& cert) {
    const std::uint32_t name_id = corpus_.FindName(cert->tbs.subject.Encode());
    // A subject no leaf names can never match: FindName misses only when no
    // corpus row interned that name as issuer or subject.
    if (name_id == util::StringInterner::kInvalidId) return;
    const crypto::PublicKey& key = cert->tbs.public_key;
    const bool is_sim = key.type == crypto::KeyType::kSimSha256;
    candidates_by_name[name_id].push_back(
        Candidate{crypto::PrecomputedHmacKey(is_sim ? BytesView(key.sim_id)
                                                    : BytesView{}),
                  &key, is_sim});
  };
  for (const x509::CertPtr& root : roots_.all()) add_candidate(root);
  for (const x509::CertPtr& cert : intermediate_set_) add_candidate(cert);

  const auto verify_start = std::chrono::steady_clock::now();
  {
    obs::Span verify_span("pipeline.verify");
    util::ThreadPool pool(threads_);
    pool.ParallelFor(num_rows, [&](std::size_t i) {
      const auto r = static_cast<CertCorpus::Row>(i);
      if (corpus_.is_ca(r)) return;
      bool valid = false;
      // A leaf that *is* a trusted root verifies trivially.
      if (is_trusted(r)) {
        valid = true;
      } else if (auto it = candidates_by_name.find(corpus_.issuer_id(r));
                 it != candidates_by_name.end()) {
        const BytesView tbs = corpus_.tbs_der(r);
        const BytesView sig = corpus_.signature(r);
        const crypto::KeyType sig_type = corpus_.sig_type(r);
        for (const Candidate& cand : it->second) {
          if (cand.key->type != sig_type) continue;
          if (cand.is_sim) {
            const crypto::Sha256Digest tag = cand.sim_key.Tag(tbs);
            if (sig.size() == tag.size() &&
                std::equal(tag.begin(), tag.end(), sig.begin())) {
              valid = true;
              break;
            }
          } else if (crypto::Verify(*cand.key, tbs, sig)) {
            valid = true;
            break;
          }
        }
      }
      corpus_.set_valid(r, valid);
    });
    LeavesCounter().Add(num_rows - ca_rows.size());
  }
  verify_wall_seconds_ = SecondsSince(verify_start);

  // The Leaf Set: the leaves that verified, in fingerprint order.
  leaf_set_.clear();
  for (CertCorpus::Row r = 0; r < num_rows; ++r)
    if (corpus_.valid(r) && !corpus_.is_ca(r)) leaf_set_.push_back(r);
  corpus_.SortByFingerprint(leaf_set_);
  finalize_wall_seconds_ = SecondsSince(start);
}

}  // namespace rev::core
