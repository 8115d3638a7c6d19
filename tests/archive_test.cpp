// ScanArchive tests: round-trips, deduplication, file I/O, replay
// equivalence against live ingestion, and corruption rejection.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/archive.h"
#include "core/ecosystem.h"
#include "core/pipeline.h"
#include "crypto/sha256.h"
#include "ingest_util.h"
#include "scan/scanner.h"
#include "util/hex.h"

namespace rev::core {
namespace {

constexpr std::int64_t kDay = util::kSecondsPerDay;

class ArchiveWorld : public ::testing::Test {
 protected:
  static Ecosystem& Eco() {
    static std::unique_ptr<Ecosystem> eco = [] {
      EcosystemConfig config;
      config.scale = 0.0006;
      config.seed = 21;
      return Ecosystem::Build(config);
    }();
    return *eco;
  }

  static ScanArchive BuildArchive(int scans) {
    ScanArchive archive;
    const EcosystemConfig& c = Eco().config();
    for (int i = 0; i < scans; ++i) {
      archive.AddSnapshot(scan::RunCertScan(
          Eco().internet(), c.study_start + i * 30 * kDay));
    }
    return archive;
  }
};

TEST_F(ArchiveWorld, DeduplicatesCertificates) {
  const ScanArchive archive = BuildArchive(5);
  ASSERT_EQ(archive.snapshot_count(), 5u);
  // Many observations, far fewer unique certificates.
  std::size_t observations = 0;
  for (const auto& snapshot : archive.Snapshots())
    observations += snapshot.observations.size();
  EXPECT_GT(observations, archive.cert_count());
  EXPECT_GT(archive.cert_count(), 100u);
}

TEST_F(ArchiveWorld, SerializeRoundTrip) {
  const ScanArchive archive = BuildArchive(3);
  const Bytes blob = archive.Serialize();
  auto restored = ScanArchive::Deserialize(blob);
  ASSERT_TRUE(restored);
  EXPECT_EQ(restored->snapshot_count(), archive.snapshot_count());
  EXPECT_EQ(restored->cert_count(), archive.cert_count());

  const auto original = archive.Snapshots();
  const auto loaded = restored->Snapshots();
  ASSERT_EQ(original.size(), loaded.size());
  for (std::size_t s = 0; s < original.size(); ++s) {
    EXPECT_EQ(loaded[s].time, original[s].time);
    ASSERT_EQ(loaded[s].observations.size(), original[s].observations.size());
    for (std::size_t i = 0; i < original[s].observations.size(); ++i) {
      EXPECT_EQ(loaded[s].observations[i].ip, original[s].observations[i].ip);
      ASSERT_EQ(loaded[s].observations[i].chain.size(),
                original[s].observations[i].chain.size());
      for (std::size_t c = 0; c < original[s].observations[i].chain.size(); ++c) {
        EXPECT_EQ(loaded[s].observations[i].chain[c]->Fingerprint(),
                  original[s].observations[i].chain[c]->Fingerprint());
      }
    }
  }
}

TEST_F(ArchiveWorld, ReplayMatchesLiveIngestion) {
  // A pipeline fed from the archive produces the same Leaf Set as one fed
  // from live scans.
  const EcosystemConfig& c = Eco().config();
  Pipeline live(Eco().roots());
  ScanArchive archive;
  for (int i = 0; i < 6; ++i) {
    const scan::CertScanSnapshot snapshot = scan::RunCertScan(
        Eco().internet(), c.study_start + i * 60 * kDay);
    IngestSnapshot(live, snapshot);
    archive.AddSnapshot(snapshot);
  }
  live.Finalize();

  auto restored = ScanArchive::Deserialize(archive.Serialize());
  ASSERT_TRUE(restored);
  Pipeline replayed(Eco().roots());
  for (const scan::CertScanSnapshot& snapshot : restored->Snapshots())
    IngestSnapshot(replayed, snapshot);
  replayed.Finalize();

  EXPECT_EQ(replayed.LeafSet().size(), live.LeafSet().size());
  EXPECT_EQ(replayed.IntermediateSet().size(), live.IntermediateSet().size());
  EXPECT_EQ(replayed.latest_scan_time(), live.latest_scan_time());
}

TEST_F(ArchiveWorld, FileRoundTrip) {
  const ScanArchive archive = BuildArchive(2);
  const std::string path = "/tmp/rev_archive_test.rvka";
  ASSERT_TRUE(archive.SaveToFile(path));
  auto loaded = ScanArchive::LoadFromFile(path);
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->snapshot_count(), archive.snapshot_count());
  EXPECT_EQ(loaded->cert_count(), archive.cert_count());
  std::remove(path.c_str());
}

TEST_F(ArchiveWorld, LoadMissingFileFails) {
  EXPECT_FALSE(ScanArchive::LoadFromFile("/tmp/does-not-exist.rvka"));
}

TEST_F(ArchiveWorld, CorruptionRejected) {
  const ScanArchive archive = BuildArchive(1);
  Bytes blob = archive.Serialize();
  // Bad magic.
  Bytes bad_magic = blob;
  bad_magic[0] = 'X';
  EXPECT_FALSE(ScanArchive::Deserialize(bad_magic));
  // Truncation.
  Bytes truncated(blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(blob.size() / 2));
  EXPECT_FALSE(ScanArchive::Deserialize(truncated));
  // Trailing junk.
  Bytes extended = blob;
  extended.push_back(0x00);
  EXPECT_FALSE(ScanArchive::Deserialize(extended));
  // Out-of-range certificate index: flip a late index byte to 0xFF. The
  // deserializer must reject rather than read out of bounds.
  Bytes tampered = blob;
  tampered[tampered.size() - 1] = 0xFF;
  tampered[tampered.size() - 2] = 0xFF;
  EXPECT_FALSE(ScanArchive::Deserialize(tampered));
}

TEST_F(ArchiveWorld, WireBytesPinned) {
  // The serialized bytes of a fixed seeded archive, recorded before
  // Serialize moved onto util::wire. A snapshot before the epoch pins the
  // i64 time's two's-complement encoding.
  ScanArchive archive = BuildArchive(2);
  scan::CertScanSnapshot pre_epoch;
  pre_epoch.time = -kDay;
  archive.AddSnapshot(pre_epoch);
  const Bytes blob = archive.Serialize();
  EXPECT_EQ(archive.cert_count(), 843u);
  EXPECT_EQ(blob.size(), 413374u);
  const crypto::Sha256Digest digest = crypto::Sha256::Hash(blob);
  EXPECT_EQ(util::HexEncode(BytesView(digest.data(), digest.size())),
            "1942bfa060750168c59561100cce921b7e096464c8db8a8349b428206249d01c");
  auto restored = ScanArchive::Deserialize(blob);
  ASSERT_TRUE(restored);
  EXPECT_EQ(restored->Snapshots().back().time, -kDay);
}

TEST(ScanArchiveEmpty, RoundTrips) {
  ScanArchive archive;
  auto restored = ScanArchive::Deserialize(archive.Serialize());
  ASSERT_TRUE(restored);
  EXPECT_EQ(restored->snapshot_count(), 0u);
  EXPECT_EQ(restored->cert_count(), 0u);
}

}  // namespace
}  // namespace rev::core
