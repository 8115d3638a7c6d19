// Serial-reference equivalence suite for the columnar CertCorpus pipeline
// (ROADMAP item 2): an embedded copy of the pre-columnar map-based pipeline
// runs side by side with core::Pipeline on the same seeded ecosystems, and
// every analysis-visible output — Leaf Set, Intermediate Set, per-record
// lifetime/verdict fields — must match byte for byte, at 1 thread and at 8.
// The pipeline ingests each observation's DER through ObserveDer, the
// reference the parsed certificates. Also locks down the ingest-ordering
// regressions, root identity by bytes, corpus view/row-id stability, and
// ObserveDer's dedup by bytes (re-sightings, in-chain duplicates).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>

#include "core/ecosystem.h"
#include "core/pipeline.h"
#include "crypto/signer.h"
#include "ingest_util.h"
#include "scan/scanner.h"
#include "util/rng.h"
#include "x509/verify.h"
#include "x509/view.h"

namespace rev::core {
namespace {

constexpr std::int64_t kDay = util::kSecondsPerDay;

// ---------------------------------------------------------------------------
// The reference: a verbatim copy of the pipeline as it was before the
// columnar store, down to the map iteration order and the full
// x509::VerifyChain DFS per leaf. Kept deliberately naive — it is the
// oracle, not the implementation.
struct ReferenceRecord {
  x509::CertPtr cert;
  util::Timestamp first_seen = 0;
  util::Timestamp last_seen = 0;
  std::uint64_t observations = 0;
  bool valid = false;
  bool in_latest_scan = false;
};

class ReferencePipeline {
 public:
  explicit ReferencePipeline(x509::CertPool roots)
      : roots_(std::move(roots)) {}

  void IngestScan(const scan::CertScanSnapshot& snapshot) {
    const bool strictly_newer = snapshot.time > latest_scan_time_;
    const bool in_latest = snapshot.time >= latest_scan_time_;
    if (strictly_newer) {
      latest_scan_time_ = snapshot.time;
      for (auto& [fp, record] : records_) record.in_latest_scan = false;
    } else if (!in_latest) {
      ++out_of_order_scans_;
    }
    for (const scan::CertObservation& obs : snapshot.observations) {
      for (std::size_t i = 0; i < obs.chain.size(); ++i) {
        const x509::CertPtr& cert = obs.chain[i];
        if (!cert) continue;
        auto [it, inserted] = records_.try_emplace(cert->Fingerprint());
        ReferenceRecord& record = it->second;
        if (inserted) {
          record.cert = cert;
          record.first_seen = snapshot.time;
          record.last_seen = snapshot.time;
        } else {
          record.first_seen = std::min(record.first_seen, snapshot.time);
          record.last_seen = std::max(record.last_seen, snapshot.time);
        }
        if (i == 0) {
          ++record.observations;
          if (in_latest) record.in_latest_scan = true;
        }
      }
    }
  }

  void Finalize() {
    x509::CertPool intermediates;
    std::set<Bytes, util::BytesLess> intermediate_fps;
    std::vector<x509::CertPtr> candidates;
    for (const auto& [fp, record] : records_) {
      if (record.cert->IsCa()) candidates.push_back(record.cert);
    }
    intermediate_set_ = x509::BuildIntermediateSet(candidates, roots_);
    for (const x509::CertPtr& cert : intermediate_set_) {
      intermediates.Add(cert);
      intermediate_fps.insert(cert->Fingerprint());
    }

    x509::VerifyOptions options;
    options.ignore_dates = true;
    for (auto& [fp, record] : records_) {
      if (record.cert->IsCa()) {
        record.valid = roots_.Contains(*record.cert) ||
                       intermediate_fps.contains(record.cert->Fingerprint());
      } else {
        record.valid =
            x509::VerifyChain(record.cert, intermediates, roots_, options)
                .ok();
      }
    }
  }

  std::vector<const ReferenceRecord*> LeafSet() const {
    std::vector<const ReferenceRecord*> out;
    for (const auto& [fp, record] : records_) {
      if (record.valid && !record.cert->IsCa()) out.push_back(&record);
    }
    return out;
  }

  const std::map<Bytes, ReferenceRecord, util::BytesLess>& records() const {
    return records_;
  }
  const std::vector<x509::CertPtr>& IntermediateSet() const {
    return intermediate_set_;
  }
  util::Timestamp latest_scan_time() const { return latest_scan_time_; }
  std::uint64_t out_of_order_scans() const { return out_of_order_scans_; }

 private:
  x509::CertPool roots_;
  std::map<Bytes, ReferenceRecord, util::BytesLess> records_;
  std::vector<x509::CertPtr> intermediate_set_;
  util::Timestamp latest_scan_time_ = 0;
  std::uint64_t out_of_order_scans_ = 0;
};

// Asserts that every analysis-visible output of `pipeline` is byte-identical
// to the reference run on the same scans.
void ExpectEquivalent(const ReferencePipeline& reference,
                      const Pipeline& pipeline) {
  const CertCorpus& corpus = pipeline.corpus();
  ASSERT_EQ(reference.records().size(), corpus.size());
  EXPECT_EQ(reference.latest_scan_time(), pipeline.latest_scan_time());
  EXPECT_EQ(reference.out_of_order_scans(), pipeline.out_of_order_scans());

  // Record fields, walked in the map's fingerprint order vs
  // RowsByFingerprint — the orders must coincide exactly.
  const std::vector<CertCorpus::Row> rows = corpus.RowsByFingerprint();
  std::size_t i = 0;
  for (const auto& [fp, record] : reference.records()) {
    const CertCorpus::Row row = rows[i++];
    const BytesView row_fp = corpus.fingerprint(row);
    ASSERT_EQ(fp, Bytes(row_fp.begin(), row_fp.end()));
    EXPECT_EQ(record.valid, corpus.valid(row)) << i;
    EXPECT_EQ(record.first_seen, corpus.first_seen(row));
    EXPECT_EQ(record.last_seen, corpus.last_seen(row));
    EXPECT_EQ(record.observations, corpus.observations(row));
    EXPECT_EQ(record.in_latest_scan, corpus.in_latest_scan(row));
    EXPECT_EQ(record.cert->IsCa(), corpus.is_ca(row));
    EXPECT_EQ(record.cert->IsEv(), corpus.is_ev(row));
    // Byte columns vs the certificate object they encode.
    const BytesView der = corpus.der(row);
    EXPECT_EQ(record.cert->der, Bytes(der.begin(), der.end()));
    const BytesView tbs = corpus.tbs_der(row);
    EXPECT_EQ(record.cert->tbs_der, Bytes(tbs.begin(), tbs.end()));
    const BytesView sig = corpus.signature(row);
    EXPECT_EQ(record.cert->signature, Bytes(sig.begin(), sig.end()));
    const BytesView serial = corpus.serial(row);
    EXPECT_EQ(record.cert->tbs.serial, Bytes(serial.begin(), serial.end()));
    EXPECT_EQ(record.cert->sig_type, corpus.sig_type(row));
    const BytesView issuer = corpus.name_der(corpus.issuer_id(row));
    EXPECT_EQ(record.cert->tbs.issuer.Encode(),
              Bytes(issuer.begin(), issuer.end()));
    const BytesView subject = corpus.name_der(corpus.subject_id(row));
    EXPECT_EQ(record.cert->tbs.subject.Encode(),
              Bytes(subject.begin(), subject.end()));
    EXPECT_EQ(record.cert->tbs.not_before, corpus.not_before(row));
    EXPECT_EQ(record.cert->tbs.not_after, corpus.not_after(row));
    // Interned URL lists, in declaration order.
    const auto crl_ids = corpus.crl_url_ids(row);
    ASSERT_EQ(record.cert->tbs.crl_urls.size(), crl_ids.size());
    for (std::size_t u = 0; u < crl_ids.size(); ++u)
      EXPECT_EQ(record.cert->tbs.crl_urls[u], corpus.url(crl_ids[u]));
    const auto ocsp_ids = corpus.ocsp_url_ids(row);
    ASSERT_EQ(record.cert->tbs.ocsp_urls.size(), ocsp_ids.size());
    for (std::size_t u = 0; u < ocsp_ids.size(); ++u)
      EXPECT_EQ(record.cert->tbs.ocsp_urls[u], corpus.url(ocsp_ids[u]));
  }

  // Leaf Set: same size, same fingerprints, same order.
  const auto ref_leaves = reference.LeafSet();
  const auto leaves = pipeline.LeafSet();
  ASSERT_EQ(ref_leaves.size(), leaves.size());
  for (std::size_t l = 0; l < leaves.size(); ++l) {
    const BytesView fp = corpus.fingerprint(leaves[l]);
    EXPECT_EQ(ref_leaves[l]->cert->Fingerprint(), Bytes(fp.begin(), fp.end()));
  }

  // Intermediate Set: same certificates in the same order.
  ASSERT_EQ(reference.IntermediateSet().size(),
            pipeline.IntermediateSet().size());
  for (std::size_t s = 0; s < pipeline.IntermediateSet().size(); ++s)
    EXPECT_EQ(reference.IntermediateSet()[s]->Fingerprint(),
              pipeline.IntermediateSet()[s]->Fingerprint());
}

// Runs a seeded ecosystem through both pipelines and asserts equivalence.
void RunEcosystemEquivalence(std::uint64_t seed, unsigned threads) {
  EcosystemConfig config;
  config.scale = 0.001;
  config.seed = seed;
  std::unique_ptr<Ecosystem> eco = Ecosystem::Build(config);
  const EcosystemConfig& c = eco->config();

  ReferencePipeline reference(eco->roots());
  Pipeline pipeline(eco->roots(), threads);
  for (util::Timestamp t = c.study_start; t <= c.study_end; t += 14 * kDay) {
    const scan::CertScanSnapshot snapshot =
        scan::RunCertScan(eco->internet(), t);
    reference.IngestScan(snapshot);
    IngestSnapshot(pipeline, snapshot);
  }
  reference.Finalize();
  pipeline.Finalize();
  ExpectEquivalent(reference, pipeline);
  EXPECT_TRUE(pipeline.corpus().CheckInvariants());
}

TEST(CorpusEquivalence, SeededEcosystemSerial) {
  RunEcosystemEquivalence(/*seed=*/11, /*threads=*/1);
}

TEST(CorpusEquivalence, SeededEcosystemEightThreads) {
  RunEcosystemEquivalence(/*seed=*/11, /*threads=*/8);
}

TEST(CorpusEquivalence, SecondSeed) {
  RunEcosystemEquivalence(/*seed=*/29, /*threads=*/8);
}

// ObserveDer re-sightings against the reference: every observation reaches
// ObserveDer as fresh copies of its DER, so dedup must go by the bytes, not
// by buffer identity; each scan also opens with one chain holding the same
// DER twice (both elements new on the first scan, so the second is
// deduplicated against the row the first just interned).
void RunDerResightingEquivalence(std::uint64_t seed, unsigned threads) {
  EcosystemConfig config;
  config.scale = 0.001;
  config.seed = seed;
  std::unique_ptr<Ecosystem> eco = Ecosystem::Build(config);
  const EcosystemConfig& c = eco->config();

  ReferencePipeline reference(eco->roots());
  Pipeline pipeline(eco->roots(), threads);
  std::size_t resightings = 0;
  for (util::Timestamp t = c.study_start; t <= c.study_end; t += 14 * kDay) {
    scan::CertScanSnapshot snapshot = scan::RunCertScan(eco->internet(), t);
    ASSERT_FALSE(snapshot.observations.empty());
    scan::CertObservation doubled;
    const x509::CertPtr twice = snapshot.observations.front().chain.front();
    doubled.chain = {twice, twice};
    snapshot.observations.insert(snapshot.observations.begin(), doubled);
    reference.IngestScan(snapshot);

    pipeline.BeginScan(snapshot.time);
    for (const scan::CertObservation& obs : snapshot.observations) {
      std::vector<Bytes> copies;
      for (const x509::CertPtr& cert : obs.chain) {
        ASSERT_NE(cert, nullptr);
        copies.push_back(cert->der);
      }
      const std::vector<BytesView> chain(copies.begin(), copies.end());
      const std::size_t size_before = pipeline.corpus().size();
      ASSERT_TRUE(pipeline.ObserveDer(chain).has_value());
      if (pipeline.corpus().size() == size_before) ++resightings;
    }
    pipeline.EndScan();
  }
  reference.Finalize();
  pipeline.Finalize();
  ExpectEquivalent(reference, pipeline);
  EXPECT_GT(resightings, 0u);
  EXPECT_TRUE(pipeline.corpus().CheckInvariants());
}

TEST(CorpusEquivalence, DerResightingsSerial) {
  RunDerResightingEquivalence(/*seed=*/11, /*threads=*/1);
}

TEST(CorpusEquivalence, DerResightingsEightThreads) {
  RunDerResightingEquivalence(/*seed=*/11, /*threads=*/8);
}

// ------------------------------------------------------- ingest ordering ----

x509::CertPtr MakeTestLeaf(const std::string& cn) {
  x509::TbsCertificate tbs;
  tbs.serial = x509::Serial(8, 0x21);
  tbs.issuer = x509::Name::Make("Ingest Test CA", "Ingest");
  tbs.subject = x509::Name::FromCommonName(cn);
  tbs.not_before = util::MakeDate(2013, 1, 1);
  tbs.not_after = util::MakeDate(2016, 1, 1);
  tbs.public_key = crypto::SimKeyFromLabel("ingest-" + cn).Public();
  tbs.dns_names = {cn};
  return std::make_shared<const x509::Certificate>(
      x509::SignCertificate(tbs, crypto::SimKeyFromLabel("ingest-ca")));
}

scan::CertScanSnapshot MakeSnapshot(util::Timestamp t,
                                    const std::vector<x509::CertPtr>& leaves) {
  scan::CertScanSnapshot snapshot;
  snapshot.time = t;
  for (const x509::CertPtr& leaf : leaves) {
    scan::CertObservation obs;
    obs.chain = {leaf};
    snapshot.observations.push_back(obs);
  }
  return snapshot;
}

// PR 1 regressions, replayed against the reference: same-timestamp
// snapshots merge, out-of-order snapshots fold lifetimes without touching
// the latest-scan view — in both pipelines, identically.
TEST(CorpusEquivalence, OutOfOrderAndSameTimestampIngest) {
  const util::Timestamp t1 = util::MakeDate(2014, 6, 1);
  const util::Timestamp t2 = util::MakeDate(2014, 6, 8);
  const x509::CertPtr a = MakeTestLeaf("a.eq.sim");
  const x509::CertPtr b = MakeTestLeaf("b.eq.sim");
  const x509::CertPtr c = MakeTestLeaf("c.eq.sim");

  const std::vector<scan::CertScanSnapshot> scans = {
      MakeSnapshot(t2, {a, b}),
      MakeSnapshot(t2, {c}),       // same timestamp: merges into the view
      MakeSnapshot(t1, {a, c}),    // older: folds lifetimes only
      MakeSnapshot(t2 + kDay, {b}),
  };

  ReferencePipeline reference{x509::CertPool{}};
  Pipeline pipeline{x509::CertPool{}};
  for (const scan::CertScanSnapshot& snapshot : scans) {
    reference.IngestScan(snapshot);
    IngestSnapshot(pipeline, snapshot);
  }
  reference.Finalize();
  pipeline.Finalize();
  ExpectEquivalent(reference, pipeline);
  EXPECT_EQ(pipeline.out_of_order_scans(), 1u);
  EXPECT_TRUE(pipeline.corpus().CheckInvariants());
}

// ------------------------------------------------------- root identity ----

x509::CertPtr MakeTestCa(const std::string& cn, const x509::Name& issuer,
                         const crypto::KeyPair& issuer_key) {
  x509::TbsCertificate tbs;
  tbs.serial = x509::Serial(8, 0x42);
  tbs.issuer = issuer;
  tbs.subject = x509::Name::Make(cn, "Root Identity");
  tbs.not_before = util::MakeDate(2012, 1, 1);
  tbs.not_after = util::MakeDate(2020, 1, 1);
  tbs.public_key = crypto::SimKeyFromLabel("root-id-" + cn).Public();
  tbs.basic_constraints = {true, -1};
  return std::make_shared<const x509::Certificate>(
      x509::SignCertificate(tbs, issuer_key));
}

// Roots are matched to corpus rows by their bytes, against the reference:
// a root observed inside a chain has a valid CA row; a non-CA certificate
// in the root pool, observed as a leaf whose issuer no pool certificate
// names, is in the Leaf Set; a root never observed adds no row and changes
// no verdict.
void RunRootIdentityEquivalence(unsigned threads) {
  const crypto::KeyPair root_key = crypto::SimKeyFromLabel("root-id-Root");
  const x509::Name root_name = x509::Name::Make("Root", "Root Identity");
  const x509::CertPtr root = MakeTestCa("Root", root_name, root_key);
  const x509::CertPtr intermediate = MakeTestCa("Intermediate", root_name,
                                                root_key);
  const x509::CertPtr unseen_root =
      MakeTestCa("Unseen", x509::Name::Make("Unseen", "Root Identity"),
                 crypto::SimKeyFromLabel("root-id-Unseen"));

  x509::TbsCertificate leaf_tbs;
  leaf_tbs.serial = x509::Serial(8, 0x43);
  leaf_tbs.issuer = intermediate->tbs.subject;
  leaf_tbs.subject = x509::Name::FromCommonName("chained.root-id.sim");
  leaf_tbs.not_before = util::MakeDate(2013, 1, 1);
  leaf_tbs.not_after = util::MakeDate(2016, 1, 1);
  leaf_tbs.public_key = crypto::SimKeyFromLabel("root-id-leaf").Public();
  const x509::CertPtr chained_leaf = std::make_shared<const x509::Certificate>(
      x509::SignCertificate(leaf_tbs,
                            crypto::SimKeyFromLabel("root-id-Intermediate")));
  const x509::CertPtr pinned_leaf = MakeTestLeaf("pinned.root-id.sim");
  const x509::CertPtr stray_leaf = MakeTestLeaf("stray.root-id.sim");

  x509::CertPool roots;
  roots.Add(root);
  roots.Add(pinned_leaf);
  roots.Add(unseen_root);

  scan::CertScanSnapshot snapshot =
      MakeSnapshot(util::MakeDate(2014, 3, 1), {pinned_leaf, stray_leaf});
  scan::CertObservation chained;
  chained.chain = {chained_leaf, intermediate, root};
  snapshot.observations.push_back(chained);

  ReferencePipeline reference(roots);
  Pipeline pipeline(roots, threads);
  reference.IngestScan(snapshot);
  IngestSnapshot(pipeline, snapshot);
  reference.Finalize();
  pipeline.Finalize();
  ExpectEquivalent(reference, pipeline);

  const CertCorpus& corpus = pipeline.corpus();
  EXPECT_EQ(corpus.size(), 5u);
  const CertCorpus::Row root_row = corpus.FindDer(root->der);
  ASSERT_NE(root_row, CertCorpus::kNoRow);
  EXPECT_TRUE(corpus.is_ca(root_row));
  EXPECT_TRUE(corpus.valid(root_row));
  const CertCorpus::Row intermediate_row = corpus.FindDer(intermediate->der);
  ASSERT_NE(intermediate_row, CertCorpus::kNoRow);
  EXPECT_TRUE(corpus.valid(intermediate_row));
  EXPECT_EQ(corpus.FindDer(unseen_root->der), CertCorpus::kNoRow);

  const std::vector<CertCorpus::Row> leaves = pipeline.LeafSet();
  const auto in_leaf_set = [&](const x509::CertPtr& cert) {
    return std::find(leaves.begin(), leaves.end(),
                     corpus.FindDer(cert->der)) != leaves.end();
  };
  EXPECT_EQ(leaves.size(), 2u);
  EXPECT_TRUE(in_leaf_set(pinned_leaf));
  EXPECT_TRUE(in_leaf_set(chained_leaf));
  EXPECT_FALSE(in_leaf_set(stray_leaf));
  EXPECT_TRUE(corpus.CheckInvariants());
}

TEST(CorpusEquivalence, RootIdentitySerial) {
  RunRootIdentityEquivalence(/*threads=*/1);
}

TEST(CorpusEquivalence, RootIdentityEightThreads) {
  RunRootIdentityEquivalence(/*threads=*/8);
}

// ------------------------------------------------------------ Leaf Set ----

// The Leaf Set Finalize builds, sorting only the valid leaves, is the valid
// non-CA rows of the full fingerprint order, in that order.
void ExpectLeafSetIsTheValidLeavesInFingerprintOrder(const Pipeline& pipeline) {
  const CertCorpus& corpus = pipeline.corpus();
  std::vector<CertCorpus::Row> want;
  for (const CertCorpus::Row r : corpus.RowsByFingerprint())
    if (corpus.valid(r) && !corpus.is_ca(r)) want.push_back(r);
  EXPECT_EQ(pipeline.LeafSet(), want);
}

TEST(LeafSet, IsTheValidLeavesInFingerprintOrder) {
  EcosystemConfig config;
  config.scale = 0.001;
  config.seed = 17;
  std::unique_ptr<Ecosystem> eco = Ecosystem::Build(config);
  const EcosystemConfig& c = eco->config();
  std::vector<scan::CertScanSnapshot> snapshots;
  for (util::Timestamp t = c.study_start; t <= c.study_end; t += 28 * kDay)
    snapshots.push_back(scan::RunCertScan(eco->internet(), t));
  const std::size_t half = snapshots.size() / 2;

  std::vector<CertCorpus::Row> serial_leaf_set;
  for (const unsigned threads : {1u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    Pipeline pipeline(eco->roots(), threads);
    for (std::size_t s = 0; s < half; ++s) IngestSnapshot(pipeline, snapshots[s]);
    pipeline.Finalize();
    ASSERT_FALSE(pipeline.LeafSet().empty());
    ExpectLeafSetIsTheValidLeavesInFingerprintOrder(pipeline);
    const std::vector<CertCorpus::Row> first = pipeline.LeafSet();

    // A second round of scans after Finalize: the new rows stay unverified
    // until the next Finalize, so the Leaf Set stands until then.
    const std::size_t rows_before = pipeline.corpus().size();
    for (std::size_t s = half; s < snapshots.size(); ++s)
      IngestSnapshot(pipeline, snapshots[s]);
    ASSERT_GT(pipeline.corpus().size(), rows_before);
    ExpectLeafSetIsTheValidLeavesInFingerprintOrder(pipeline);
    EXPECT_EQ(pipeline.LeafSet(), first);

    pipeline.Finalize();
    ExpectLeafSetIsTheValidLeavesInFingerprintOrder(pipeline);
    EXPECT_GT(pipeline.LeafSet().size(), first.size());

    // The same as one Finalize over every scan, at every thread count.
    Pipeline at_once(eco->roots(), threads);
    for (const scan::CertScanSnapshot& snapshot : snapshots)
      IngestSnapshot(at_once, snapshot);
    at_once.Finalize();
    EXPECT_EQ(at_once.LeafSet(), pipeline.LeafSet());
    if (threads == 1) serial_leaf_set = pipeline.LeafSet();
    EXPECT_EQ(pipeline.LeafSet(), serial_leaf_set);
  }
}

// SortByFingerprint compares 8-byte big-endian prefixes first; fed
// fingerprints that share prefixes (and longer runs), it must still give a
// plain memcmp sort's order.
TEST(Corpus, SortByFingerprintMatchesAMemcmpSort) {
  util::Rng rng(0x5017);
  constexpr std::size_t kRows = 4'000;
  std::vector<std::uint8_t> fps(kRows * 32);
  for (std::size_t r = 0; r < kRows; ++r) {
    std::uint8_t* fp = fps.data() + r * 32;
    rng.Fill(fp, 32);
    if (r > 0 && r % 4 != 0) {
      // Share the first 8 bytes with an earlier row, sometimes the first 28.
      const std::size_t from = rng.NextBelow(r);
      std::copy_n(fps.data() + from * 32, r % 4 == 3 ? 28 : 8, fp);
    }
    // Distinct fingerprints: the last 4 bytes are the row number.
    for (int b = 0; b < 4; ++b)
      fp[28 + b] = static_cast<std::uint8_t>(r >> (24 - 8 * b));
  }
  std::vector<CertCorpus::Row> rows(kRows);
  for (std::size_t i = 0; i < kRows; ++i)
    rows[i] = static_cast<CertCorpus::Row>(i);
  for (std::size_t i = kRows - 1; i > 0; --i)
    std::swap(rows[i], rows[rng.NextBelow(i + 1)]);

  std::vector<CertCorpus::Row> want = rows;
  std::sort(want.begin(), want.end(),
            [&fps](CertCorpus::Row a, CertCorpus::Row b) {
              return std::memcmp(fps.data() + std::size_t{a} * 32,
                                 fps.data() + std::size_t{b} * 32, 32) < 0;
            });
  CertCorpus::SortByFingerprint(fps, rows);
  EXPECT_EQ(rows, want);

  std::vector<CertCorpus::Row> none;
  CertCorpus::SortByFingerprint(fps, none);
  EXPECT_TRUE(none.empty());
}

// --------------------------------------------------------- row stability ----

// Row ids and borrowed views must survive arbitrary further ingest — the
// replacement for the old LeafSet()'s record pointers, which dangled if the
// map rehashed its nodes away (and invited iterator-invalidation bugs).
TEST(Corpus, RowIdsAndViewsStableAcrossIngest) {
  Pipeline pipeline{x509::CertPool{}};
  const util::Timestamp t = util::MakeDate(2014, 1, 1);
  const x509::CertPtr first = MakeTestLeaf("stable.sim");
  const BytesView first_der(first->der);
  pipeline.BeginScan(t);
  const std::optional<CertCorpus::Row> observed =
      pipeline.ObserveDer({&first_der, 1});
  pipeline.EndScan();
  ASSERT_TRUE(observed.has_value());
  const CertCorpus::Row row = *observed;

  const CertCorpus& corpus = pipeline.corpus();
  const BytesView der_before = corpus.der(row);
  const std::uint8_t* data_before = der_before.data();
  const Bytes fp_before(corpus.fingerprint(row).begin(),
                        corpus.fingerprint(row).end());

  // Intern enough certificates to force arena chunk growth and several
  // index rehashes.
  for (int i = 0; i < 3000; ++i) {
    const x509::CertPtr leaf = MakeTestLeaf("churn-" + std::to_string(i));
    const BytesView der(leaf->der);
    pipeline.BeginScan(t + i);
    ASSERT_TRUE(pipeline.ObserveDer({&der, 1}).has_value());
    pipeline.EndScan();
  }

  // Same row id, same bytes, same arena address (views never move).
  EXPECT_EQ(corpus.der(row).data(), data_before);
  EXPECT_EQ(fp_before, Bytes(corpus.fingerprint(row).begin(),
                             corpus.fingerprint(row).end()));
  EXPECT_EQ(corpus.Find(fp_before), row);
  EXPECT_EQ(first->der, Bytes(corpus.der(row).begin(), corpus.der(row).end()));
  EXPECT_TRUE(corpus.CheckInvariants());
}

// A chain that names the same new DER twice interns one row, counted as
// one leaf observation.
TEST(Corpus, ChainHoldingTheSameDerTwiceInternsOneRow) {
  Pipeline pipeline{x509::CertPool{}};
  const x509::CertPtr leaf = MakeTestLeaf("twice.sim");
  const Bytes first_copy = leaf->der;
  const Bytes second_copy = leaf->der;
  const BytesView chain[2] = {BytesView(first_copy), BytesView(second_copy)};
  pipeline.BeginScan(util::MakeDate(2014, 2, 1));
  const auto row = pipeline.ObserveDer(chain);
  pipeline.EndScan();

  const CertCorpus& corpus = pipeline.corpus();
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(corpus.size(), 1u);
  EXPECT_EQ(corpus.observations(*row), 1u);
  EXPECT_EQ(corpus.FindDer(leaf->der), *row);
  EXPECT_EQ(corpus.Find(leaf->Fingerprint()), *row);
  EXPECT_TRUE(corpus.CheckInvariants());
}

// Rows with equal (CRL, OCSP) URL lists share one url-pool segment; lists
// whose ids concatenate alike but split differently between CRL and OCSP
// (the same hash tag) stay apart, and every row reads back its own lists.
TEST(Corpus, UrlListsAreSharedAndKeepTheirCrlOcspSplit) {
  const std::string a = "http://a.url.sim/";
  const std::string b = "http://b.url.sim/";
  const std::vector<std::pair<std::vector<std::string>,
                              std::vector<std::string>>>
      lists = {{{a}, {}},  {{}, {a}},     {{a}, {b}}, {{a}, {b}},
               {{a, b}, {}}, {{b, a}, {}}, {{}, {}},   {{a}, {}}};
  Pipeline pipeline{x509::CertPool{}};
  pipeline.BeginScan(util::MakeDate(2014, 3, 1));
  std::vector<CertCorpus::Row> rows;
  for (std::size_t i = 0; i < lists.size(); ++i) {
    x509::TbsCertificate tbs = MakeTestLeaf("urls.sim")->tbs;
    tbs.serial = x509::Serial{0x31, static_cast<std::uint8_t>(i)};
    tbs.crl_urls = lists[i].first;
    tbs.ocsp_urls = lists[i].second;
    const Bytes der =
        x509::SignCertificate(tbs, crypto::SimKeyFromLabel("ingest-ca")).der;
    const BytesView view(der);
    const auto row = pipeline.ObserveDer({&view, 1});
    ASSERT_TRUE(row.has_value());
    rows.push_back(*row);
  }
  pipeline.EndScan();

  const CertCorpus& corpus = pipeline.corpus();
  const auto urls = [&](std::span<const std::uint32_t> ids) {
    std::vector<std::string> out;
    for (std::uint32_t id : ids) out.emplace_back(corpus.url(id));
    return out;
  };
  for (std::size_t i = 0; i < lists.size(); ++i) {
    EXPECT_EQ(urls(corpus.crl_url_ids(rows[i])), lists[i].first) << i;
    EXPECT_EQ(urls(corpus.ocsp_url_ids(rows[i])), lists[i].second) << i;
  }
  EXPECT_EQ(corpus.num_urls(), 2u);
  // Equal lists share a segment; a split that differs does not.
  EXPECT_EQ(corpus.ocsp_url_ids(rows[2]).data(),
            corpus.ocsp_url_ids(rows[3]).data());
  EXPECT_EQ(corpus.crl_url_ids(rows[0]).data(),
            corpus.crl_url_ids(rows[7]).data());
  EXPECT_NE(corpus.crl_url_ids(rows[0]).data(),
            corpus.ocsp_url_ids(rows[1]).data());
  EXPECT_TRUE(corpus.CheckInvariants());
}

// Lazy materialization re-parses the arena DER into the same certificate.
TEST(Corpus, LazyCertMatchesSource) {
  Pipeline pipeline{x509::CertPool{}};
  const x509::CertPtr leaf = MakeTestLeaf("lazy.sim");
  const BytesView der(leaf->der);
  pipeline.BeginScan(util::MakeDate(2014, 1, 1));
  const std::optional<CertCorpus::Row> row = pipeline.ObserveDer({&der, 1});
  pipeline.EndScan();
  ASSERT_TRUE(row.has_value());

  const x509::CertPtr parsed = pipeline.corpus().cert(*row);
  ASSERT_NE(parsed, nullptr);
  EXPECT_EQ(parsed->der, leaf->der);
  EXPECT_EQ(parsed->tbs_der, leaf->tbs_der);
  EXPECT_EQ(parsed->Fingerprint(), leaf->Fingerprint());
  EXPECT_TRUE(parsed->tbs.subject == leaf->tbs.subject);
  // Cached: the same shared object comes back.
  EXPECT_EQ(parsed.get(), pipeline.corpus().cert(*row).get());
}

}  // namespace
}  // namespace rev::core
