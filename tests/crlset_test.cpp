// CRLSet structure/generator tests plus Bloom filter and Golomb Compressed
// Set property tests (no false negatives, FPR within tolerance, size math).
#include <gtest/gtest.h>

#include "crl/crl.h"
#include "crlset/bloom.h"
#include "crlset/crlset.h"
#include "crlset/gcs.h"
#include "crlset/generator.h"
#include "crypto/sha256.h"
#include "util/hex.h"
#include "util/rng.h"

namespace rev::crlset {
namespace {

constexpr util::Timestamp kNow = 1'412'208'000;

x509::Serial RandomSerial(util::Rng& rng, int len = 16) {
  x509::Serial s(static_cast<std::size_t>(len));
  rng.Fill(s.data(), s.size());
  if (s[0] == 0) s[0] = 1;
  return s;
}

Bytes RandomParent(util::Rng& rng) {
  Bytes p(32);
  rng.Fill(p.data(), p.size());
  return p;
}

// -------------------------------------------------------------- crlset ----

TEST(CrlSet, AddAndLookup) {
  util::Rng rng(1);
  CrlSet set;
  const Bytes parent = RandomParent(rng);
  const x509::Serial serial = RandomSerial(rng);
  EXPECT_FALSE(set.CoversParent(parent));
  set.AddEntry(parent, serial);
  EXPECT_TRUE(set.CoversParent(parent));
  EXPECT_TRUE(set.IsRevoked(parent, serial));
  EXPECT_FALSE(set.IsRevoked(parent, RandomSerial(rng)));
  EXPECT_FALSE(set.IsRevoked(RandomParent(rng), serial));
  EXPECT_EQ(set.NumParents(), 1u);
  EXPECT_EQ(set.NumEntries(), 1u);
}

TEST(CrlSet, DuplicatesCollapse) {
  util::Rng rng(2);
  CrlSet set;
  const Bytes parent = RandomParent(rng);
  const x509::Serial serial = RandomSerial(rng);
  set.AddEntry(parent, serial);
  set.AddEntry(parent, serial);
  EXPECT_EQ(set.NumEntries(), 1u);
}

TEST(CrlSet, BlockedSpkis) {
  util::Rng rng(3);
  CrlSet set;
  const Bytes spki = RandomParent(rng);
  EXPECT_FALSE(set.IsBlockedSpki(spki));
  set.AddBlockedSpki(spki);
  EXPECT_TRUE(set.IsBlockedSpki(spki));
}

TEST(CrlSet, SerializeRoundTrip) {
  util::Rng rng(4);
  CrlSet set;
  set.sequence = 77;
  for (int p = 0; p < 5; ++p) {
    const Bytes parent = RandomParent(rng);
    for (int s = 0; s < 20; ++s) set.AddEntry(parent, RandomSerial(rng));
  }
  set.AddBlockedSpki(RandomParent(rng));

  const Bytes blob = set.Serialize();
  auto decoded = CrlSet::Deserialize(blob);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->sequence, 77);
  EXPECT_EQ(decoded->NumParents(), 5u);
  EXPECT_EQ(decoded->NumEntries(), 100u);
  EXPECT_EQ(decoded->parents(), set.parents());
  EXPECT_EQ(decoded->blocked_spkis(), set.blocked_spkis());
}

TEST(CrlSet, DeserializeRejectsGarbage) {
  EXPECT_FALSE(CrlSet::Deserialize(Bytes{}));
  EXPECT_FALSE(CrlSet::Deserialize(Bytes{1, 2, 3}));
  util::Rng rng(5);
  CrlSet set;
  set.AddEntry(RandomParent(rng), RandomSerial(rng));
  Bytes blob = set.Serialize();
  blob.pop_back();
  EXPECT_FALSE(CrlSet::Deserialize(blob));
  blob.push_back(0);
  blob.push_back(0);  // trailing junk
  EXPECT_FALSE(CrlSet::Deserialize(blob));
}

TEST(CrlSet, SerializedSizeMatchesSerialize) {
  // SerializedSize() is computed arithmetically (no serialization pass);
  // it must track Serialize().size() exactly through every kind of growth.
  util::Rng rng(40);
  CrlSet set;
  EXPECT_EQ(set.SerializedSize(), set.Serialize().size());  // empty
  set.sequence = 12;
  for (int p = 0; p < 7; ++p) {
    const Bytes parent = RandomParent(rng);
    for (int s = 0; s < p + 1; ++s) {
      // Variable-length serials so the size math can't pass by accident.
      set.AddEntry(parent, RandomSerial(rng, 4 + 3 * s));
      EXPECT_EQ(set.SerializedSize(), set.Serialize().size());
    }
  }
  for (int b = 0; b < 3; ++b) {
    set.AddBlockedSpki(RandomParent(rng));
    EXPECT_EQ(set.SerializedSize(), set.Serialize().size());
  }
}

TEST(CrlSet, WireBytesPinned) {
  // The serialized bytes of a fixed seeded set, recorded before Serialize
  // moved onto util::wire: the big-endian counts and the length-prefixed
  // parent, serial and SPKI blobs must stay bit-for-bit.
  util::Rng rng(4);
  CrlSet set;
  set.sequence = 77;
  for (int p = 0; p < 5; ++p) {
    const Bytes parent = RandomParent(rng);
    for (int s = 0; s < 20; ++s) set.AddEntry(parent, RandomSerial(rng, 1 + s));
  }
  set.AddBlockedSpki(RandomParent(rng));
  const Bytes blob = set.Serialize();
  EXPECT_EQ(blob.size(), 1698u);
  const crypto::Sha256Digest digest = crypto::Sha256::Hash(blob);
  EXPECT_EQ(util::HexEncode(BytesView(digest.data(), digest.size())),
            "f972a78839cefac33eb196aeb0898130c7eae83bad4956032320c013da6fab66");
}

// ----------------------------------------------------------- generator ----

crl::Crl MakeCrl(util::Rng& rng, std::size_t entries,
                 x509::ReasonCode reason = x509::ReasonCode::kNoReasonCode) {
  crl::TbsCrl tbs;
  tbs.issuer = x509::Name::FromCommonName("GenCA");
  tbs.this_update = kNow;
  tbs.next_update = kNow + util::kSecondsPerDay;
  for (std::size_t i = 0; i < entries; ++i) {
    tbs.entries.push_back(crl::CrlEntry{RandomSerial(rng), kNow - 1000, reason});
  }
  return crl::SignCrl(tbs, crypto::SimKeyFromLabel("genca"));
}

TEST(Generator, ReasonCodeEligibility) {
  EXPECT_TRUE(IsCrlSetReasonCode(x509::ReasonCode::kNoReasonCode));
  EXPECT_TRUE(IsCrlSetReasonCode(x509::ReasonCode::kUnspecified));
  EXPECT_TRUE(IsCrlSetReasonCode(x509::ReasonCode::kKeyCompromise));
  EXPECT_TRUE(IsCrlSetReasonCode(x509::ReasonCode::kCaCompromise));
  EXPECT_TRUE(IsCrlSetReasonCode(x509::ReasonCode::kAaCompromise));
  EXPECT_FALSE(IsCrlSetReasonCode(x509::ReasonCode::kSuperseded));
  EXPECT_FALSE(IsCrlSetReasonCode(x509::ReasonCode::kCessationOfOperation));
  EXPECT_FALSE(IsCrlSetReasonCode(x509::ReasonCode::kCertificateHold));
  EXPECT_FALSE(IsCrlSetReasonCode(x509::ReasonCode::kAffiliationChanged));
}

TEST(Generator, IncludesEligibleEntries) {
  util::Rng rng(6);
  const crl::Crl crl = MakeCrl(rng, 50);
  const Bytes parent = RandomParent(rng);
  GeneratorConfig config;
  const CrlSet set = GenerateCrlSet({{parent, &crl, true}}, config, 1);
  EXPECT_EQ(set.sequence, 1);
  EXPECT_EQ(set.NumEntries(), 50u);
  for (const crl::CrlEntry& entry : crl.tbs.entries)
    EXPECT_TRUE(set.IsRevoked(parent, entry.serial));
}

TEST(Generator, FiltersIneligibleReasons) {
  util::Rng rng(7);
  const crl::Crl good = MakeCrl(rng, 30, x509::ReasonCode::kKeyCompromise);
  const crl::Crl bad = MakeCrl(rng, 30, x509::ReasonCode::kSuperseded);
  const Bytes p1 = RandomParent(rng), p2 = RandomParent(rng);
  GeneratorConfig config;
  const CrlSet set =
      GenerateCrlSet({{p1, &good, true}, {p2, &bad, true}}, config, 1);
  EXPECT_EQ(set.NumEntries(), 30u);
  EXPECT_TRUE(set.CoversParent(p1));
  EXPECT_FALSE(set.CoversParent(p2));
}

TEST(Generator, DropsOversizedCrls) {
  util::Rng rng(8);
  const crl::Crl small = MakeCrl(rng, 10);
  const crl::Crl huge = MakeCrl(rng, 500);
  const Bytes p1 = RandomParent(rng), p2 = RandomParent(rng);
  GeneratorConfig config;
  config.max_entries_per_crl = 100;
  const CrlSet set =
      GenerateCrlSet({{p1, &small, true}, {p2, &huge, true}}, config, 1);
  EXPECT_TRUE(set.CoversParent(p1));
  EXPECT_FALSE(set.CoversParent(p2));  // dropped: too many entries
}

TEST(Generator, SkipsUncrawledSources) {
  util::Rng rng(9);
  const crl::Crl crl = MakeCrl(rng, 10);
  const Bytes parent = RandomParent(rng);
  GeneratorConfig config;
  const CrlSet set = GenerateCrlSet({{parent, &crl, false}}, config, 1);
  EXPECT_EQ(set.NumEntries(), 0u);
}

TEST(Generator, RespectsSizeCap) {
  util::Rng rng(10);
  // Many mid-size CRLs; cap forces some to be dropped whole.
  std::vector<crl::Crl> crls;
  std::vector<CrlSource> sources;
  std::vector<Bytes> parents;
  for (int i = 0; i < 40; ++i) {
    crls.push_back(MakeCrl(rng, 100));
    parents.push_back(RandomParent(rng));
  }
  for (int i = 0; i < 40; ++i)
    sources.push_back({parents[static_cast<std::size_t>(i)],
                       &crls[static_cast<std::size_t>(i)], true});
  GeneratorConfig config;
  config.max_bytes = 20'000;
  const CrlSet set = GenerateCrlSet(sources, config, 1);
  EXPECT_LT(set.SerializedSize(), 2 * config.max_bytes);
  EXPECT_GT(set.NumEntries(), 0u);
  EXPECT_LT(set.NumParents(), 40u);  // some CRLs dropped entirely
  // Whole-CRL granularity: a covered parent covers all its eligible serials.
  for (std::size_t i = 0; i < 40; ++i) {
    if (!set.CoversParent(parents[i])) continue;
    for (const crl::CrlEntry& entry : crls[i].tbs.entries)
      EXPECT_TRUE(set.IsRevoked(parents[i], entry.serial));
  }
}

// --------------------------------------------------------------- bloom ----

TEST(Bloom, NoFalseNegatives) {
  util::Rng rng(11);
  BloomFilter filter = BloomFilter::ForCapacity(5'000, 0.01);
  std::vector<Bytes> keys;
  for (int i = 0; i < 5'000; ++i)
    keys.push_back(RevocationKey(RandomParent(rng), RandomSerial(rng)));
  for (const Bytes& key : keys) filter.Insert(key);
  for (const Bytes& key : keys) EXPECT_TRUE(filter.MayContain(key));
}

TEST(Bloom, FalsePositiveRateNearTarget) {
  util::Rng rng(12);
  for (double target : {0.01, 0.001}) {
    BloomFilter filter = BloomFilter::ForCapacity(10'000, target);
    for (int i = 0; i < 10'000; ++i)
      filter.Insert(RevocationKey(RandomParent(rng), RandomSerial(rng)));
    const double measured = filter.MeasureFpr(50'000, 999);
    EXPECT_LT(measured, target * 3) << target;
    // Not absurdly overbuilt either.
    EXPECT_GT(measured, target / 20) << target;
  }
}

TEST(Bloom, SizeMatchesTheory) {
  // 1% FPR needs ~9.59 bits/element.
  BloomFilter filter = BloomFilter::ForCapacity(100'000, 0.01);
  const double bits_per_key =
      static_cast<double>(filter.SizeBits()) / 100'000.0;
  EXPECT_NEAR(bits_per_key, 9.59, 0.1);
  EXPECT_EQ(filter.hash_count(), 7);
}

TEST(Bloom, ExpectedFprFormula) {
  // With optimal parameters the expected FPR equals the target.
  BloomFilter filter = BloomFilter::ForCapacity(10'000, 0.01);
  EXPECT_NEAR(
      BloomFilter::ExpectedFpr(filter.SizeBits(), filter.hash_count(), 10'000),
      0.01, 0.002);
  // Overfilling degrades it.
  EXPECT_GT(
      BloomFilter::ExpectedFpr(filter.SizeBits(), filter.hash_count(), 40'000),
      0.1);
}

TEST(Bloom, Paper256KbHoldsTenTimesCrlset) {
  // Fig. 11's headline: 256 KB at 1% FPR holds ~10x the CRLSet's ~25k
  // entries. m = 256KB = 2,097,152 bits / 9.59 bits/key ≈ 218k keys.
  const std::size_t m_bits = 256 * 1024 * 8;
  const double fpr = BloomFilter::ExpectedFpr(m_bits, 7, 218'000);
  EXPECT_LT(fpr, 0.012);
  EXPECT_GE(218'000.0 / 25'000.0, 8.5);
}

TEST(Bloom, EmptyFilterContainsNothing) {
  BloomFilter filter(1024, 3);
  util::Rng rng(13);
  for (int i = 0; i < 100; ++i)
    EXPECT_FALSE(filter.MayContain(RandomSerial(rng)));
}

TEST(Bloom, RevocationKeyDistinct) {
  const Bytes p1(32, 1), p2(32, 2);
  const x509::Serial s1{0xAA}, s2{0xBB};
  EXPECT_NE(RevocationKey(p1, s1), RevocationKey(p2, s1));
  EXPECT_NE(RevocationKey(p1, s1), RevocationKey(p1, s2));
  EXPECT_EQ(RevocationKey(p1, s1), RevocationKey(p1, s1));
}

// ----------------------------------------------------------------- gcs ----

TEST(Gcs, NoFalseNegatives) {
  util::Rng rng(14);
  std::vector<Bytes> keys;
  for (int i = 0; i < 2'000; ++i)
    keys.push_back(RevocationKey(RandomParent(rng), RandomSerial(rng)));
  const GolombCompressedSet set = GolombCompressedSet::Build(keys, 10);
  for (const Bytes& key : keys) EXPECT_TRUE(set.MayContain(key));
}

TEST(Gcs, FalsePositivesRare) {
  util::Rng rng(15);
  std::vector<Bytes> keys;
  for (int i = 0; i < 2'000; ++i)
    keys.push_back(RevocationKey(RandomParent(rng), RandomSerial(rng)));
  const GolombCompressedSet set = GolombCompressedSet::Build(keys, 8);  // 1/256
  std::size_t hits = 0;
  for (int i = 0; i < 10'000; ++i)
    if (set.MayContain(RandomSerial(rng, 24))) ++hits;
  // Expect ~39; allow generous slack.
  EXPECT_LT(hits, 120u);
}

TEST(Gcs, SmallerThanBloomAtSameFpr) {
  // Langley's point (§7.4): GCS approaches the information-theoretic bound,
  // beating the Bloom filter's 1.44x overhead.
  util::Rng rng(16);
  std::vector<Bytes> keys;
  for (int i = 0; i < 20'000; ++i)
    keys.push_back(RevocationKey(RandomParent(rng), RandomSerial(rng)));
  const GolombCompressedSet gcs = GolombCompressedSet::Build(keys, 10);
  BloomFilter bloom = BloomFilter::ForCapacity(20'000, 1.0 / 1024);
  for (const Bytes& key : keys) bloom.Insert(key);
  EXPECT_LT(gcs.SizeBytes(), bloom.SizeBytes());
  // And within ~30% of the n*(log2(1/p)+1.6)/8 information bound estimate.
  const double bound_bytes = 20'000 * (10 + 1.6) / 8.0;
  EXPECT_LT(static_cast<double>(gcs.SizeBytes()), bound_bytes * 1.3);
}

TEST(Gcs, EmptySet) {
  const GolombCompressedSet set = GolombCompressedSet::Build({}, 10);
  EXPECT_FALSE(set.MayContain(Bytes{1, 2, 3}));
  EXPECT_EQ(set.NumKeys(), 0u);
}

TEST(Gcs, SingleKey) {
  util::Rng rng(17);
  const Bytes key = RevocationKey(RandomParent(rng), RandomSerial(rng));
  const GolombCompressedSet set = GolombCompressedSet::Build({key}, 10);
  EXPECT_EQ(set.NumKeys(), 1u);
  EXPECT_TRUE(set.MayContain(key));
  std::size_t hits = 0;
  for (int i = 0; i < 1'000; ++i)
    if (set.MayContain(RandomSerial(rng, 24))) ++hits;
  EXPECT_LT(hits, 20u);
}

TEST(Gcs, DuplicateKeysCollapse) {
  // Duplicates at build must not inflate the encoded set or break lookups
  // (delta-0 entries would waste bits and desync the decode count).
  util::Rng rng(18);
  std::vector<Bytes> keys;
  for (int i = 0; i < 500; ++i)
    keys.push_back(RevocationKey(RandomParent(rng), RandomSerial(rng)));
  std::vector<Bytes> duplicated = keys;
  duplicated.insert(duplicated.end(), keys.begin(), keys.end());
  duplicated.insert(duplicated.end(), keys.begin(), keys.end());
  const GolombCompressedSet dedup = GolombCompressedSet::Build(duplicated, 10);
  for (const Bytes& key : keys) EXPECT_TRUE(dedup.MayContain(key));
  // Tripling the input must not triple the encoding.
  const GolombCompressedSet plain = GolombCompressedSet::Build(keys, 10);
  EXPECT_LT(dedup.SizeBytes(), 2 * plain.SizeBytes());
}

TEST(Gcs, ZeroRangeAndDegenerateParams) {
  // range_ == 0 (empty set) must not divide by zero in HashToRange, and
  // out-of-range Rice parameters must not shift by >= 64 bits (UB).
  const GolombCompressedSet empty = GolombCompressedSet::Build({}, 0);
  EXPECT_FALSE(empty.MayContain(Bytes{}));
  EXPECT_FALSE(empty.MayContain(Bytes{0xFF}));

  util::Rng rng(19);
  std::vector<Bytes> keys;
  for (int i = 0; i < 50; ++i)
    keys.push_back(RevocationKey(RandomParent(rng), RandomSerial(rng)));
  for (int p : {0, -5, 64, 1000}) {
    const GolombCompressedSet set = GolombCompressedSet::Build(keys, p);
    for (const Bytes& key : keys) EXPECT_TRUE(set.MayContain(key)) << p;
  }
}

}  // namespace
}  // namespace rev::crlset
