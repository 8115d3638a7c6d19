#include "core/pipeline.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>

#include "crypto/hmac.h"
#include "obs/distrace.h"
#include "obs/metrics.h"
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

obs::Histogram& VerifyHistogram() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram("pipeline.verify_ns");
  return histogram;
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
  // folded before the last one has passed. Bytes the corpus already holds
  // passed ParseCertView when they were interned and need no parse. Only
  // new DER is parsed, once; its view goes straight to the intern step.
  chain_rows_.resize(chain.size());
  new_views_.clear();
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const CertCorpus::Row row = corpus_.FindDer(chain[i]);
    if (row == CertCorpus::kNoRow) {
      std::optional<x509::CertView> view = x509::ParseCertView(chain[i]);
      if (!view) return std::nullopt;
      new_views_.push_back(*std::move(view));
    }
    chain_rows_[i] = row;
  }
  CertCorpus::Row leaf_row = CertCorpus::kNoRow;
  std::size_t next_view = 0;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const CertCorpus::Row row =
        chain_rows_[i] != CertCorpus::kNoRow
            ? chain_rows_[i]
            : corpus_.InternView(new_views_[next_view++]);
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

  const std::vector<CertCorpus::Row> rows = corpus_.RowsByFingerprint();

  // Candidate intermediates: every CA certificate observed, materialized in
  // fingerprint order (the old map's iteration order). CA rows are a tiny
  // fraction of the corpus, so this is the only place whole-certificate
  // objects are built in bulk.
  x509::CertPool intermediates;
  std::set<Bytes> intermediate_fps;
  {
    obs::Span intermediates_span("pipeline.intermediates");
    std::vector<x509::CertPtr> candidates;
    for (const CertCorpus::Row r : rows) {
      if (corpus_.is_ca(r)) candidates.push_back(corpus_.cert(r));
    }
    intermediate_set_ = x509::BuildIntermediateSet(candidates, roots_);

    for (const x509::CertPtr& cert : intermediate_set_) {
      intermediates.Add(cert);
      intermediate_fps.insert(cert->Fingerprint());
    }
  }
  intermediate_wall_seconds_ = SecondsSince(start);

  std::set<Bytes> root_fps;
  for (const x509::CertPtr& root : roots_.all())
    root_fps.insert(root->Fingerprint());
  // Allocation-free root check for the per-leaf hot loop: a 64-bit prefix
  // probe over the handful of roots, full compare only on a prefix hit.
  std::vector<std::uint64_t> root_prefixes;
  for (const Bytes& fp : root_fps)
    root_prefixes.push_back(FingerprintIndex::HashOf(fp));
  std::sort(root_prefixes.begin(), root_prefixes.end());
  const auto is_root_fp = [&](BytesView fp) {
    if (!std::binary_search(root_prefixes.begin(), root_prefixes.end(),
                            FingerprintIndex::HashOf(fp)))
      return false;
    for (const Bytes& root_fp : root_fps) {
      if (root_fp.size() == fp.size() &&
          std::equal(fp.begin(), fp.end(), root_fp.begin()))
        return true;
    }
    return false;
  };

  // Validate every certificate, ignoring date errors (§3.1). CA records are
  // membership checks against the precomputed fingerprint sets; leaves get
  // the batched columnar verification below.
  std::vector<CertCorpus::Row> leaves;
  leaves.reserve(rows.size());
  for (const CertCorpus::Row r : rows) {
    if (corpus_.is_ca(r)) {
      const Bytes fp(corpus_.fingerprint(r).begin(),
                     corpus_.fingerprint(r).end());
      corpus_.set_valid(r,
                        root_fps.contains(fp) || intermediate_fps.contains(fp));
    } else {
      leaves.push_back(r);
    }
  }

  // Batched leaf verification. The DFS in x509::VerifyChain reduces, for a
  // non-CA leaf over this pool, to: valid ⟺ the leaf IS a root, or some
  // name-matched candidate (roots first, then Intermediate Set members)
  // whose key type matches verifies the signature — every pool candidate is
  // itself verifiable to a root by construction, and with ignore_dates all
  // date checks pass. So candidates are grouped per interned issuer-name id
  // once, sim-scheme keys get a PrecomputedHmacKey (two SHA-256 mid-state
  // copies per tag instead of two key-block compressions), and the
  // ParallelFor below runs over contiguous columns. Equivalence with the
  // real DFS is asserted by tests/corpus_test.cpp.
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
    pool.ParallelFor(leaves.size(), [&](std::size_t i) {
      const CertCorpus::Row r = leaves[i];
      const auto chain_start = std::chrono::steady_clock::now();
      bool valid = false;
      // A leaf that *is* a trusted root verifies trivially.
      if (is_root_fp(corpus_.fingerprint(r))) {
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
      VerifyHistogram().RecordSeconds(SecondsSince(chain_start));
    });
    LeavesCounter().Add(leaves.size());
  }
  verify_wall_seconds_ = SecondsSince(verify_start);
  finalize_wall_seconds_ = SecondsSince(start);
}

std::vector<CertCorpus::Row> Pipeline::LeafSet() const {
  std::vector<CertCorpus::Row> out;
  for (const CertCorpus::Row r : corpus_.RowsByFingerprint()) {
    if (corpus_.valid(r) && !corpus_.is_ca(r)) out.push_back(r);
  }
  return out;
}

}  // namespace rev::core
