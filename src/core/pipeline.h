// The scan-processing pipeline (§3.1): deduplicates observed certificates,
// tracks per-certificate lifetimes (birth = first advertisement, death =
// last), builds the Intermediate Set by iterative verification against the
// root store, and validates leaves with date errors ignored.
//
// Storage is the columnar core::CertCorpus (ROADMAP item 2): ingest streams
// each observation's raw DER into arena/interned columns — a full scan
// snapshot never needs to be resident — deduplicating certificates by their
// bytes, so a re-sighting is a hash probe, not a parse. Finalize() batches leaf
// verification with ParallelFor over the rows in order (contiguous columns)
// plus precomputed per-issuer HMAC verifiers, so output is bit-identical at
// any thread count, and sorts only the CA rows and the Leaf Set by
// fingerprint (docs/parallelism.md, docs/corpus.md). Equivalence with the
// pre-columnar serial path is locked down by tests/corpus_test.cpp.
#pragma once

#include <span>
#include <vector>

#include "core/corpus.h"
#include "util/bytes.h"
#include "util/time.h"
#include "x509/verify.h"
#include "x509/view.h"

namespace rev::core {

class Pipeline {
 public:
  // `threads` sizes the Finalize() fan-out: 0 = hardware concurrency,
  // 1 = the exact serial path.
  explicit Pipeline(x509::CertPool roots, unsigned threads = 0)
      : roots_(std::move(roots)), threads_(threads) {}

  // Ingest is streaming, one scan at a time: BeginScan, one ObserveDer per
  // observation, EndScan. Scans should arrive in chronological order; a
  // scan with the same timestamp as the latest merges into the latest-scan
  // view (it does NOT clear previously set flags), and an older scan is
  // folded into lifetimes/observations but never touches the latest-scan
  // view — such regressions are counted in out_of_order_scans().
  void BeginScan(util::Timestamp t);
  // One observation: the advertised chain's DER, leaf first. Returns the
  // leaf's row. Every element must parse (borrowed-view parse); if the
  // chain is empty or any element is malformed the whole observation is
  // rejected (nullopt) and the corpus is left untouched. Elements are
  // deduplicated by their bytes first (CertCorpus::FindDer), so a
  // re-sighted certificate costs one word-wise hash and a memcmp; only DER
  // the corpus does not hold is parsed (once) and SHA-256 fingerprinted.
  // This is the one ingest path, fuzzed in tests/fuzz_test.cpp; a replay
  // of chains already in the corpus passes their corpus().der(row) views,
  // each a FindDer hit that neither parses nor interns.
  std::optional<CertCorpus::Row> ObserveDer(std::span<const BytesView> chain);
  void EndScan();

  // Builds the Intermediate Set and validates all leaves. Call after the
  // last scan; idempotent.
  void Finalize();

  // The columnar store of every unique certificate observed.
  const CertCorpus& corpus() const { return corpus_; }

  // The paper's Leaf Set as of the last Finalize(): non-CA certificates
  // that verified (dates ignored), as stable corpus row ids in fingerprint
  // order — the iteration order of the map-based store this replaced.
  // Built once by Finalize(); empty before the first. Row ids (unlike the
  // old record pointers) survive any amount of further ingest.
  const std::vector<CertCorpus::Row>& LeafSet() const { return leaf_set_; }

  // The paper's Intermediate Set.
  const std::vector<x509::CertPtr>& IntermediateSet() const {
    return intermediate_set_;
  }

  const x509::CertPool& roots() const { return roots_; }
  util::Timestamp latest_scan_time() const { return latest_scan_time_; }

  // Snapshots ingested with a timestamp older than one already seen.
  std::uint64_t out_of_order_scans() const { return out_of_order_scans_; }

  unsigned threads() const { return threads_; }
  void set_threads(unsigned threads) { threads_ = threads; }

  // Cost accounting: real wall time spent inside Finalize(), split into the
  // serial Intermediate-Set construction and the parallel leaf-verification
  // stage (bench_dataset_stats reports these for the speedup measurement).
  double finalize_wall_seconds() const { return finalize_wall_seconds_; }
  double intermediate_wall_seconds() const { return intermediate_wall_seconds_; }
  double verify_wall_seconds() const { return verify_wall_seconds_; }

 private:
  x509::CertPool roots_;
  CertCorpus corpus_;
  std::vector<x509::CertPtr> intermediate_set_;
  std::vector<CertCorpus::Row> leaf_set_;
  util::Timestamp latest_scan_time_ = 0;
  std::uint64_t out_of_order_scans_ = 0;
  bool finalized_ = false;
  unsigned threads_ = 0;
  util::Timestamp scan_time_ = 0;
  bool scan_in_latest_ = false;
  double finalize_wall_seconds_ = 0;
  double intermediate_wall_seconds_ = 0;
  double verify_wall_seconds_ = 0;
  // ObserveDer scratch, reused across calls: each element's known row (or
  // kNoRow) and util::HashBytes of its DER, and the views of the new
  // elements, in chain order.
  std::vector<CertCorpus::Row> chain_rows_;
  std::vector<std::uint64_t> chain_hashes_;
  std::vector<x509::CertView> new_views_;
};

}  // namespace rev::core
