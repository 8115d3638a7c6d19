// Fleet tests: replication wire format (round-trip + fail-closed on
// corruption), consistent-hash ring (determinism, balance, minimal
// disruption), snapshot push/import over SimNet, health hysteresis and
// warm-up gating, client failover/hedging/Retry-After, and a fixed-seed
// mini-soak whose per-client results are bit-identical at 1 and 8 threads
// with zero wrong revocation answers. See docs/fleet.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "fleet/client.h"
#include "fleet/health.h"
#include "fleet/metricsview.h"
#include "fleet/publisher.h"
#include "fleet/replica.h"
#include "fleet/ring.h"
#include "fleet/snapshot.h"
#include "net/fault.h"
#include "net/simnet.h"
#include "obs/distrace.h"
#include "obs/metrics.h"
#include "ocsp/ocsp.h"
#include "ocsp/responder.h"
#include "serve/frontend.h"
#include "util/rng.h"
#include "x509/name.h"

namespace rev::fleet {
namespace {

constexpr util::Timestamp kNow = 1'420'000'000;  // 2014-12-31
constexpr util::Timestamp kDay = util::kSecondsPerDay;
constexpr std::string_view kKeyLabel = "fleet-issuer";

crypto::KeyPair TestKey() { return crypto::SimKeyFromLabel(kKeyLabel); }

x509::Certificate MakeIssuerCert() {
  x509::TbsCertificate tbs;
  tbs.serial = x509::Serial{0x42};
  tbs.issuer = tbs.subject = x509::Name::Make("Fleet Test CA", "Test");
  tbs.not_before = 0;
  tbs.not_after = kNow + 1000 * kDay;
  tbs.public_key = TestKey().Public();
  tbs.basic_constraints = {true, -1};
  return x509::SignCertificate(tbs, TestKey());
}

x509::Serial SerialOf(std::uint64_t n) {
  // Fixed nonzero leading byte < 0x80 so the serial survives DER INTEGER
  // round-trips unchanged (same trick as bench_serve).
  x509::Serial serial(8);
  serial[0] = 0x4D;
  for (int b = 1; b < 8; ++b)
    serial[static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>(n >> (8 * (7 - b)));
  return serial;
}

serve::StatusKey KeyFor(BytesView issuer_key_hash, std::uint64_t n) {
  return serve::MakeStatusKey(issuer_key_hash, SerialOf(n));
}

StatusSnapshot SampleSnapshot(std::size_t count) {
  StatusSnapshot snapshot;
  snapshot.epoch = 7;
  snapshot.published_at = kNow;
  const Bytes hash(32, 0xAB);
  for (std::size_t i = 0; i < count; ++i) {
    serve::StatusIndex::Record record;
    if (i % 3 == 0) {
      record.status = ocsp::CertStatus::kRevoked;
      record.revocation_time = kNow - static_cast<util::Timestamp>(i);
      record.reason = x509::ReasonCode::kKeyCompromise;
    } else {
      record.status = ocsp::CertStatus::kGood;
    }
    snapshot.records.emplace_back(KeyFor(hash, i + 1), record);
  }
  std::sort(snapshot.records.begin(), snapshot.records.end(),
            [](const auto& a, const auto& b) {
              return util::BytesLess{}(a.first, b.first);
            });
  return snapshot;
}

// ------------------------------------------------------------ wire blobs ---

TEST(FleetWire, StatusSnapshotRoundTrip) {
  const StatusSnapshot snapshot = SampleSnapshot(20);
  const Bytes blob = snapshot.Serialize();
  const auto parsed = StatusSnapshot::Deserialize(blob);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->epoch, 7u);
  EXPECT_EQ(parsed->published_at, kNow);
  ASSERT_EQ(parsed->records.size(), snapshot.records.size());
  for (std::size_t i = 0; i < snapshot.records.size(); ++i) {
    EXPECT_EQ(parsed->records[i].first, snapshot.records[i].first);
    EXPECT_TRUE(parsed->records[i].second == snapshot.records[i].second);
  }
  // Serialization is deterministic: same state, same bytes.
  EXPECT_EQ(parsed->Serialize(), blob);
}

TEST(FleetWire, ResponseBatchRoundTrip) {
  ResponseBatch batch;
  batch.epoch = 3;
  batch.published_at = kNow;
  const Bytes hash(32, 0xCD);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    serve::ResponseCache::Entry entry;
    entry.der = std::make_shared<const Bytes>(Bytes(i, static_cast<std::uint8_t>(i)));
    entry.signed_at = kNow;
    entry.serve_until = kNow + static_cast<util::Timestamp>(i) * 100;
    batch.entries.emplace_back(KeyFor(hash, i), entry);
  }
  std::sort(batch.entries.begin(), batch.entries.end(),
            [](const auto& a, const auto& b) {
              return util::BytesLess{}(a.first, b.first);
            });
  const Bytes blob = batch.Serialize();
  const auto parsed = ResponseBatch::Deserialize(blob);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->epoch, 3u);
  ASSERT_EQ(parsed->entries.size(), batch.entries.size());
  for (std::size_t i = 0; i < batch.entries.size(); ++i) {
    EXPECT_EQ(parsed->entries[i].first, batch.entries[i].first);
    EXPECT_EQ(*parsed->entries[i].second.der, *batch.entries[i].second.der);
    EXPECT_EQ(parsed->entries[i].second.serve_until,
              batch.entries[i].second.serve_until);
  }
}

TEST(FleetWire, EveryTruncationFailsClosed) {
  const Bytes blob = SampleSnapshot(8).Serialize();
  for (std::size_t len = 0; len < blob.size(); ++len)
    EXPECT_FALSE(StatusSnapshot::Deserialize(BytesView(blob.data(), len)))
        << "truncation at " << len << " parsed";
}

TEST(FleetWire, EveryBitFlipFailsClosed) {
  const Bytes blob = SampleSnapshot(4).Serialize();
  for (std::size_t i = 0; i < blob.size(); ++i) {
    Bytes corrupt = blob;
    corrupt[i] ^= 0x01;
    EXPECT_FALSE(StatusSnapshot::Deserialize(corrupt))
        << "bit flip at byte " << i << " parsed";
  }
  const Bytes batch_blob = [] {
    ResponseBatch batch;
    batch.epoch = 1;
    serve::ResponseCache::Entry entry;
    entry.der = std::make_shared<const Bytes>(Bytes{1, 2, 3});
    entry.serve_until = kNow + 100;
    batch.entries.emplace_back(KeyFor(Bytes(32, 1), 5), entry);
    return batch.Serialize();
  }();
  for (std::size_t i = 0; i < batch_blob.size(); ++i) {
    Bytes corrupt = batch_blob;
    corrupt[i] ^= 0x80;
    EXPECT_FALSE(ResponseBatch::Deserialize(corrupt));
  }
}

TEST(FleetWire, RejectsWrongKindUnsortedAndTrailingGarbage) {
  // A response batch posted where a snapshot is expected (and vice versa)
  // is rejected by the format tag even though its checksum is valid.
  const Bytes snapshot_blob = SampleSnapshot(2).Serialize();
  EXPECT_FALSE(ResponseBatch::Deserialize(snapshot_blob));

  StatusSnapshot unsorted = SampleSnapshot(3);
  std::swap(unsorted.records[0], unsorted.records[2]);
  EXPECT_FALSE(StatusSnapshot::Deserialize(unsorted.Serialize()));

  StatusSnapshot dup = SampleSnapshot(2);
  dup.records[1] = dup.records[0];
  EXPECT_FALSE(StatusSnapshot::Deserialize(dup.Serialize()));
}

// ------------------------------------------------------------------ ring ---

TEST(FleetRing, DeterministicAcrossInstancesAndInsertionOrder) {
  HashRing a, b;
  a.AddNode("r1");
  a.AddNode("r2");
  a.AddNode("r3");
  b.AddNode("r3");
  b.AddNode("r1");
  b.AddNode("r2");
  const Bytes hash(32, 0x11);
  for (std::uint64_t i = 0; i < 500; ++i) {
    const serve::StatusKey key = KeyFor(hash, i);
    ASSERT_EQ(*a.PrimaryFor(key), *b.PrimaryFor(key)) << i;
    const auto pa = a.PreferenceList(key, 3);
    const auto pb = b.PreferenceList(key, 3);
    ASSERT_EQ(pa.size(), 3u);
    for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(*pa[j], *pb[j]);
    // Preference list holds distinct replicas.
    EXPECT_NE(*pa[0], *pa[1]);
    EXPECT_NE(*pa[1], *pa[2]);
    EXPECT_NE(*pa[0], *pa[2]);
  }
}

TEST(FleetRing, BalanceWithinThreefold) {
  HashRing ring;
  const std::vector<std::string> nodes = {"r1", "r2", "r3", "r4", "r5"};
  for (const auto& node : nodes) ring.AddNode(node);
  std::map<std::string, std::size_t> owned;
  const Bytes hash(32, 0x22);
  for (std::uint64_t i = 0; i < 10'000; ++i)
    ++owned[*ring.PrimaryFor(KeyFor(hash, i))];
  std::size_t lo = 10'000, hi = 0;
  for (const auto& node : nodes) {
    lo = std::min(lo, owned[node]);
    hi = std::max(hi, owned[node]);
  }
  EXPECT_GT(lo, 0u);
  EXPECT_LT(static_cast<double>(hi) / static_cast<double>(lo), 3.0)
      << "vnode balance degenerated: " << lo << " .. " << hi;
}

TEST(FleetRing, DisableMovesOnlyTheDisabledNodesKeys) {
  HashRing ring;
  ring.AddNode("r1");
  ring.AddNode("r2");
  ring.AddNode("r3");
  const Bytes hash(32, 0x33);
  std::map<std::uint64_t, std::string> before;
  for (std::uint64_t i = 0; i < 2'000; ++i)
    before[i] = *ring.PrimaryFor(KeyFor(hash, i));
  ring.SetEnabled("r2", false);
  std::size_t moved = 0;
  for (std::uint64_t i = 0; i < 2'000; ++i) {
    const std::string now_owner = *ring.PrimaryFor(KeyFor(hash, i));
    EXPECT_NE(now_owner, "r2");
    if (before[i] == "r2") {
      ++moved;
    } else {
      // Minimal disruption: keys not owned by r2 keep their primary.
      EXPECT_EQ(now_owner, before[i]) << i;
    }
  }
  EXPECT_GT(moved, 0u);
  // Re-admission restores the exact original assignment.
  ring.SetEnabled("r2", true);
  for (std::uint64_t i = 0; i < 2'000; ++i)
    EXPECT_EQ(*ring.PrimaryFor(KeyFor(hash, i)), before[i]);
}

TEST(FleetRing, DisabledNodesDoNotConsumePreferenceSlots) {
  HashRing ring;
  ring.AddNode("r1");
  ring.AddNode("r2");
  ring.AddNode("r3");
  ring.SetEnabled("r1", false);
  const serve::StatusKey key = KeyFor(Bytes(32, 0x44), 9);
  const auto prefs = ring.PreferenceList(key, 2);
  ASSERT_EQ(prefs.size(), 2u);  // still two candidates from {r2, r3}
  EXPECT_NE(*prefs[0], "r1");
  EXPECT_NE(*prefs[1], "r1");
  ring.SetEnabled("r2", false);
  ring.SetEnabled("r3", false);
  EXPECT_TRUE(ring.PreferenceList(key, 2).empty());
  EXPECT_EQ(ring.PrimaryFor(key), nullptr);
}

// ------------------------------------------------------------ test fleet ---

// A small authority + N replicas wired onto one SimNet.
struct TestFleet {
  explicit TestFleet(std::size_t n, bool ring_enabled = true)
      : issuer(MakeIssuerCert()),
        authority(issuer, TestKey(), 4 * kDay) {
    authority_frontend.AttachResponder(&authority);
    for (std::size_t i = 0; i < n; ++i) {
      auto replica = std::make_unique<Replica>(
          "replica-" + std::to_string(i) + ".fleet.sim", issuer, TestKey());
      replica->Install(net);
      ring.AddNode(replica->name(), ring_enabled);
      publisher.AddReplica(replica->name());
      replicas.push_back(std::move(replica));
    }
  }

  void AddGood(std::uint64_t first, std::uint64_t last) {
    for (std::uint64_t s = first; s <= last; ++s)
      authority.AddCertificate(SerialOf(s));
  }

  void Revoke(std::uint64_t serial, util::Timestamp when) {
    authority.Revoke(SerialOf(serial), when,
                     x509::ReasonCode::kKeyCompromise);
    truth[serial] = when;
  }

  serve::StatusKey Key(std::uint64_t serial) const {
    return serve::MakeStatusKey(authority.issuer_key_hash(), SerialOf(serial));
  }

  Bytes Request(std::uint64_t serial) const {
    ocsp::OcspRequest request;
    request.cert_ids = {ocsp::MakeCertId(issuer, SerialOf(serial))};
    return ocsp::EncodeOcspRequest(request);
  }

  FleetClientOptions ClientOptions() const {
    FleetClientOptions options;
    options.responder_key = TestKey().Public();
    return options;
  }

  x509::Certificate issuer;
  ocsp::Responder authority;
  serve::Frontend authority_frontend;
  net::SimNet net;
  HashRing ring;
  Publisher publisher{&authority_frontend};
  std::vector<std::unique_ptr<Replica>> replicas;
  std::map<std::uint64_t, util::Timestamp> truth;  // serial -> revoked_at
};

// ----------------------------------------------------------- replication ---

TEST(FleetReplication, PushWarmsReplicasAndAnswersMatchAuthority) {
  TestFleet fleet(3);
  fleet.AddGood(1, 50);
  fleet.Revoke(7, kNow - kDay);
  fleet.Revoke(23, kNow - 2 * kDay);
  fleet.authority_frontend.RebuildAll(kNow);

  for (const auto& replica : fleet.replicas) {
    EXPECT_FALSE(replica->warmed());
    EXPECT_EQ(replica->applied_epoch(), 0u);
  }

  const Publisher::PushStats stats = fleet.publisher.Publish(fleet.net, kNow);
  EXPECT_EQ(stats.epoch, 1u);
  EXPECT_EQ(stats.replicas_ok, 3u);
  EXPECT_EQ(stats.replicas_failed, 0u);
  EXPECT_GT(stats.snapshot_bytes, 0u);
  EXPECT_GT(stats.response_bytes, 0u);
  EXPECT_EQ(fleet.publisher.MaxLagEpochs(), 0u);
  EXPECT_EQ(fleet.publisher.PublishTimeOf(1), kNow);

  for (const auto& replica : fleet.replicas) {
    EXPECT_TRUE(replica->warmed());
    EXPECT_EQ(replica->applied_epoch(), 1u);
    EXPECT_EQ(replica->applied_published_at(), kNow);
    EXPECT_EQ(replica->frontend().index().size(), 50u);
    EXPECT_EQ(replica->counters().snapshots_applied, 1u);
    EXPECT_EQ(replica->counters().batches_applied, 1u);

    // The replica answers byte-identically to the authority, served from
    // the pushed (pre-signed) cache — no local signing needed.
    const auto direct =
        fleet.authority_frontend.Serve(fleet.Request(7), kNow + 10);
    const auto replicated =
        replica->frontend().Serve(fleet.Request(7), kNow + 10);
    EXPECT_TRUE(replicated.cache_hit);
    ASSERT_TRUE(direct.body && replicated.body);
    EXPECT_EQ(*direct.body, *replicated.body);
  }
}

TEST(FleetReplication, CorruptPushFailsClosedAndStaleReplayAcks) {
  TestFleet fleet(1);
  fleet.AddGood(1, 10);
  fleet.Revoke(3, kNow - kDay);
  fleet.authority_frontend.RebuildAll(kNow);
  ASSERT_EQ(fleet.publisher.Publish(fleet.net, kNow).replicas_ok, 1u);
  Replica& replica = *fleet.replicas[0];
  const std::size_t size_before = replica.frontend().index().size();

  // Corrupt blob: rejected with 400, state untouched.
  StatusSnapshot evil;
  evil.epoch = 99;
  evil.published_at = kNow;
  Bytes blob = evil.Serialize();
  blob[blob.size() / 2] ^= 0x40;
  auto result = fleet.net.Post("http://" + replica.name() +
                                   Replica::kSnapshotPath,
                               blob, kNow + 60);
  EXPECT_EQ(result.response.status, 400);
  EXPECT_EQ(replica.applied_epoch(), 1u);
  EXPECT_EQ(replica.frontend().index().size(), size_before);
  EXPECT_EQ(replica.counters().snapshots_rejected, 1u);

  // Replay of an applied epoch: idempotent 200 ack, no re-import.
  StatusSnapshot replay;
  replay.epoch = 1;
  replay.published_at = kNow;
  result = fleet.net.Post("http://" + replica.name() + Replica::kSnapshotPath,
                          replay.Serialize(), kNow + 61);
  EXPECT_EQ(result.response.status, 200);
  EXPECT_EQ(replica.frontend().index().size(), size_before);
  EXPECT_EQ(replica.counters().snapshots_stale, 1u);

  // Response batch for a different epoch: refused with 409.
  ResponseBatch wrong_epoch;
  wrong_epoch.epoch = 5;
  serve::ResponseCache::Entry entry;
  entry.der = std::make_shared<const Bytes>(Bytes{1});
  entry.serve_until = kNow + kDay;
  wrong_epoch.entries.emplace_back(fleet.Key(3), entry);
  result = fleet.net.Post("http://" + replica.name() +
                              Replica::kResponsesPath,
                          wrong_epoch.Serialize(), kNow + 62);
  EXPECT_EQ(result.response.status, 409);
  EXPECT_EQ(replica.counters().batches_rejected, 1u);
}

TEST(FleetReplication, ImportDiffAppliesUpsertsAndErases) {
  TestFleet fleet(1);
  fleet.AddGood(1, 5);
  fleet.authority_frontend.RebuildAll(kNow);
  fleet.publisher.Publish(fleet.net, kNow);
  Replica& replica = *fleet.replicas[0];
  EXPECT_EQ(replica.frontend().index().size(), 5u);

  // Epoch 2: serial 2 revoked, serial 5 dropped, serial 6 added.
  fleet.Revoke(2, kNow + 100);
  fleet.authority.Remove(SerialOf(5));
  fleet.authority.AddCertificate(SerialOf(6));
  fleet.authority_frontend.RebuildAll(kNow + 200);
  fleet.publisher.Publish(fleet.net, kNow + 200);

  EXPECT_EQ(replica.applied_epoch(), 2u);
  EXPECT_EQ(replica.frontend().index().size(), 5u);  // -5, +6
  const auto revoked = replica.frontend().index().Lookup(fleet.Key(2));
  ASSERT_TRUE(revoked);
  EXPECT_EQ(revoked->status, ocsp::CertStatus::kRevoked);
  EXPECT_FALSE(replica.frontend().index().Lookup(fleet.Key(5)));
  EXPECT_TRUE(replica.frontend().index().Lookup(fleet.Key(6)));

  // A replica that missed the epoch lags — visible in the acked table.
  EXPECT_EQ(fleet.publisher.AckedEpoch(replica.name()), 2u);
  EXPECT_EQ(fleet.publisher.MaxLagEpochs(), 0u);
}

TEST(FleetReplication, OutageLeavesReplicaLaggingThenCatchesUp) {
  TestFleet fleet(2);
  fleet.AddGood(1, 10);
  fleet.authority_frontend.RebuildAll(kNow);
  ASSERT_EQ(fleet.publisher.Publish(fleet.net, kNow).replicas_ok, 2u);

  // Replica 1 goes dark for epoch 2.
  net::FaultPlan plan(0xDEAD);
  net::FaultRule outage;
  outage.target = fleet.replicas[1]->name();
  outage.kind = net::FaultKind::kOutage;
  outage.start = kNow + 50;
  outage.end = kNow + 1000;
  plan.AddRule(outage);
  fleet.net.SetFaultPlan(&plan);

  fleet.Revoke(4, kNow + 60);
  fleet.authority_frontend.RebuildAll(kNow + 100);
  const auto stats = fleet.publisher.Publish(fleet.net, kNow + 100);
  EXPECT_EQ(stats.replicas_ok, 1u);
  EXPECT_EQ(stats.replicas_failed, 1u);
  EXPECT_EQ(fleet.publisher.AckedEpoch(fleet.replicas[0]->name()), 2u);
  EXPECT_EQ(fleet.publisher.AckedEpoch(fleet.replicas[1]->name()), 1u);
  EXPECT_EQ(fleet.publisher.MaxLagEpochs(), 1u);
  EXPECT_EQ(fleet.replicas[1]->applied_epoch(), 1u);

  // Lagging replica still serves its old epoch: "good" for serial 4 is
  // STALENESS (its applied epoch predates the revocation's publish epoch),
  // not a wrong answer.
  const auto stale = fleet.replicas[1]->frontend().Serve(fleet.Request(4),
                                                         kNow + 200);
  const auto parsed = ocsp::ParseOcspResponse(*stale.body);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->single.status, ocsp::CertStatus::kGood);
  EXPECT_LT(fleet.replicas[1]->applied_epoch(), 2u);

  // Storm over: the next push catches it up.
  fleet.net.SetFaultPlan(nullptr);
  fleet.publisher.Publish(fleet.net, kNow + 2000);
  EXPECT_EQ(fleet.publisher.MaxLagEpochs(), 0u);
  EXPECT_EQ(fleet.replicas[1]->applied_epoch(), 3u);
  const auto fresh = fleet.replicas[1]->frontend().Serve(fleet.Request(4),
                                                         kNow + 2100);
  const auto reparsed = ocsp::ParseOcspResponse(*fresh.body);
  ASSERT_TRUE(reparsed);
  EXPECT_EQ(reparsed->single.status, ocsp::CertStatus::kRevoked);
}

// ---------------------------------------------------------------- health ---

TEST(FleetHealth, WarmupGatesAdmissionAndHysteresisDamps) {
  TestFleet fleet(2, /*ring_enabled=*/false);
  fleet.AddGood(1, 5);
  fleet.authority_frontend.RebuildAll(kNow);

  HealthMonitor monitor(&fleet.ring);
  for (const auto& replica : fleet.replicas) monitor.AddTarget(replica->name());

  // Not warmed yet: probes succeed at the HTTP level but report warmed=0,
  // so nothing is admitted no matter how many rounds pass.
  monitor.ProbeAll(fleet.net, kNow);
  monitor.ProbeAll(fleet.net, kNow + 10);
  EXPECT_EQ(fleet.ring.enabled_count(), 0u);

  // Warm them; admission still needs two consecutive good probes.
  fleet.publisher.Publish(fleet.net, kNow + 20);
  EXPECT_EQ(monitor.ProbeAll(fleet.net, kNow + 30), 0u);
  EXPECT_EQ(fleet.ring.enabled_count(), 0u);  // 1 good probe < 2
  EXPECT_EQ(monitor.ProbeAll(fleet.net, kNow + 40), 2u);
  EXPECT_EQ(fleet.ring.enabled_count(), 2u);
  EXPECT_TRUE(monitor.IsUp(fleet.replicas[0]->name()));

  // One bad probe does NOT evict (hysteresis)...
  fleet.net.SetUnresponsive(fleet.replicas[0]->name(), true);
  EXPECT_EQ(monitor.ProbeAll(fleet.net, kNow + 50), 0u);
  EXPECT_EQ(fleet.ring.enabled_count(), 2u);
  // ...two consecutive do.
  EXPECT_EQ(monitor.ProbeAll(fleet.net, kNow + 60), 1u);
  EXPECT_EQ(fleet.ring.enabled_count(), 1u);
  EXPECT_FALSE(monitor.IsUp(fleet.replicas[0]->name()));
  EXPECT_FALSE(fleet.ring.IsEnabled(fleet.replicas[0]->name()));

  // Recovery: one good probe is not enough to readmit either.
  fleet.net.SetUnresponsive(fleet.replicas[0]->name(), false);
  EXPECT_EQ(monitor.ProbeAll(fleet.net, kNow + 70), 0u);
  EXPECT_EQ(fleet.ring.enabled_count(), 1u);
  EXPECT_EQ(monitor.ProbeAll(fleet.net, kNow + 80), 1u);
  EXPECT_EQ(fleet.ring.enabled_count(), 2u);

  const auto counters = monitor.counters();
  EXPECT_EQ(counters.marked_down, 1u);
  EXPECT_EQ(counters.marked_up, 3u);  // two initial admissions + readmission
  EXPECT_GT(counters.probe_failures, 0u);
}

// ---------------------------------------------------------------- client ---

TEST(FleetClient, FailsOverAcrossRegionalOutage) {
  TestFleet fleet(3);
  fleet.AddGood(1, 30);
  fleet.Revoke(11, kNow - kDay);
  fleet.authority_frontend.RebuildAll(kNow);
  fleet.publisher.Publish(fleet.net, kNow);

  // Find a serial whose primary is replica 0, then kill replica 0.
  std::uint64_t victim_serial = 0;
  for (std::uint64_t s = 1; s <= 30; ++s) {
    if (*fleet.ring.PrimaryFor(fleet.Key(s)) == fleet.replicas[0]->name()) {
      victim_serial = s;
      break;
    }
  }
  ASSERT_NE(victim_serial, 0u);

  net::FaultPlan plan(0xBEEF);
  net::FaultRule outage;
  outage.target = fleet.replicas[0]->name();
  outage.kind = net::FaultKind::kOutage;
  plan.AddRule(outage);
  fleet.net.SetFaultPlan(&plan);

  FleetClient client(&fleet.net, &fleet.ring, fleet.ClientOptions());
  const auto result =
      client.Query(fleet.Request(victim_serial), fleet.Key(victim_serial),
                   kNow + 100);
  ASSERT_TRUE(result.ok);
  EXPECT_TRUE(result.failed_over);
  EXPECT_NE(result.served_by, fleet.replicas[0]->name());
  EXPECT_EQ(result.replicas_tried, 2);
  EXPECT_EQ(client.counters().failovers, 1u);
  const ocsp::CertStatus expected = fleet.truth.count(victim_serial)
                                        ? ocsp::CertStatus::kRevoked
                                        : ocsp::CertStatus::kGood;
  EXPECT_EQ(result.status, expected);
}

TEST(FleetClient, CorruptBodyRejectedAndFailedOver) {
  TestFleet fleet(2);
  fleet.AddGood(1, 20);
  fleet.Revoke(5, kNow - kDay);
  fleet.authority_frontend.RebuildAll(kNow);
  fleet.publisher.Publish(fleet.net, kNow);

  // Every response from the primary-for-serial-5 replica is bit-flipped.
  const std::string primary = *fleet.ring.PrimaryFor(fleet.Key(5));
  net::FaultPlan plan(0x5EED);
  net::FaultRule corrupt;
  corrupt.target = primary;
  corrupt.kind = net::FaultKind::kCorrupt;
  corrupt.corrupt_bytes = 6;
  plan.AddRule(corrupt);
  fleet.net.SetFaultPlan(&plan);

  FleetClient client(&fleet.net, &fleet.ring, fleet.ClientOptions());
  const auto result = client.Query(fleet.Request(5), fleet.Key(5), kNow + 10);
  // The corrupted answer must never be believed: either rejected by parse
  // or by signature check, then the other replica answers correctly.
  ASSERT_TRUE(result.ok);
  EXPECT_NE(result.served_by, primary);
  EXPECT_EQ(result.status, ocsp::CertStatus::kRevoked);
  EXPECT_GE(client.counters().invalid_bodies, 1u);
}

TEST(FleetClient, Honors503RetryAfterWithClientSideMarkdown) {
  TestFleet fleet(2);
  fleet.AddGood(1, 20);
  fleet.authority_frontend.RebuildAll(kNow);
  fleet.publisher.Publish(fleet.net, kNow);

  const std::string primary = *fleet.ring.PrimaryFor(fleet.Key(1));
  net::FaultPlan plan(0x503);
  net::FaultRule shed;
  shed.target = primary;
  shed.kind = net::FaultKind::kHttpError;
  shed.http_status = 503;
  shed.retry_after = 30;
  plan.AddRule(shed);
  fleet.net.SetFaultPlan(&plan);

  FleetClient client(&fleet.net, &fleet.ring, fleet.ClientOptions());
  const auto first = client.Query(fleet.Request(1), fleet.Key(1), kNow);
  ASSERT_TRUE(first.ok);
  EXPECT_TRUE(first.failed_over);
  EXPECT_EQ(client.counters().shed_503, 1u);

  // Within the Retry-After window the shedding replica is skipped without
  // even trying it; after the window it is probed again.
  const auto second = client.Query(fleet.Request(1), fleet.Key(1), kNow + 10);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(second.replicas_tried, 1);
  EXPECT_EQ(client.counters().markdown_skips, 1u);
  EXPECT_EQ(client.counters().shed_503, 1u);  // primary never contacted

  fleet.net.SetFaultPlan(nullptr);
  const auto third = client.Query(fleet.Request(1), fleet.Key(1), kNow + 31);
  ASSERT_TRUE(third.ok);
  EXPECT_FALSE(third.failed_over);
  EXPECT_EQ(third.served_by, primary);
}

TEST(FleetClient, HedgesSlowPrimaryWithinLatencyBudget) {
  TestFleet fleet(2);
  fleet.AddGood(1, 20);
  fleet.authority_frontend.RebuildAll(kNow);
  fleet.publisher.Publish(fleet.net, kNow);

  // Latency storm on the primary: 100x elapsed pushes it past both the
  // hedge budget and the attempt timeout.
  const std::string primary = *fleet.ring.PrimaryFor(fleet.Key(2));
  net::FaultPlan plan(0x1A7);
  net::FaultRule slow;
  slow.target = primary;
  slow.kind = net::FaultKind::kLatency;
  slow.latency_factor = 100.0;
  plan.AddRule(slow);
  fleet.net.SetFaultPlan(&plan);

  FleetClient client(&fleet.net, &fleet.ring, fleet.ClientOptions());
  const auto result = client.Query(fleet.Request(2), fleet.Key(2), kNow);
  ASSERT_TRUE(result.ok);
  EXPECT_TRUE(result.hedged);
  EXPECT_NE(result.served_by, primary);
  EXPECT_EQ(client.counters().hedges, 1u);
  EXPECT_EQ(client.counters().hedge_wins, 1u);
  // Client-observed latency is budget + healthy-replica latency — nowhere
  // near the slow primary's inflated elapsed (let alone the 2s timeout).
  EXPECT_LT(result.elapsed_seconds, 1.0);
  EXPECT_GE(result.elapsed_seconds, FleetClient::kHedgeBudgetSeconds);
}

TEST(FleetClient, SingleReplicaFleetStillAnswersWithoutHedging) {
  TestFleet fleet(1);
  fleet.AddGood(1, 5);
  fleet.authority_frontend.RebuildAll(kNow);
  fleet.publisher.Publish(fleet.net, kNow);

  FleetClient client(&fleet.net, &fleet.ring, fleet.ClientOptions());
  const auto result = client.Query(fleet.Request(3), fleet.Key(3), kNow);
  ASSERT_TRUE(result.ok);
  EXPECT_FALSE(result.hedged);
  EXPECT_FALSE(result.failed_over);
  EXPECT_EQ(result.replicas_tried, 1);
}

TEST(FleetClient, LastResortServesFromHealthEvictedReplica) {
  TestFleet fleet(2);
  fleet.AddGood(1, 20);
  fleet.Revoke(9, kNow - kDay);
  fleet.authority_frontend.RebuildAll(kNow);
  fleet.publisher.Publish(fleet.net, kNow);

  // The worst minute of a storm: the health monitor evicted replica 1
  // (hysteresis lagging a latency burst, say) just as a regional outage
  // kills replica 0 — the "healthy" ring view is exactly the dead node.
  fleet.ring.SetEnabled(fleet.replicas[1]->name(), false);
  net::FaultPlan plan(0xDEAD);
  net::FaultRule outage;
  outage.target = fleet.replicas[0]->name();
  outage.kind = net::FaultKind::kOutage;
  plan.AddRule(outage);
  fleet.net.SetFaultPlan(&plan);

  FleetClient client(&fleet.net, &fleet.ring, fleet.ClientOptions());
  const auto result = client.Query(fleet.Request(9), fleet.Key(9), kNow + 5);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.served_by, fleet.replicas[1]->name());
  EXPECT_EQ(result.status, ocsp::CertStatus::kRevoked);
  EXPECT_GE(client.counters().last_resort, 1u);
  EXPECT_EQ(client.counters().exhausted, 0u);

  // Even with the whole ring marked down the panic walk starts from an
  // empty preference list and still finds the live replica.
  fleet.ring.SetEnabled(fleet.replicas[0]->name(), false);
  const auto desperate =
      client.Query(fleet.Request(9), fleet.Key(9), kNow + 6);
  ASSERT_TRUE(desperate.ok);
  EXPECT_EQ(desperate.served_by, fleet.replicas[1]->name());
  EXPECT_EQ(desperate.status, ocsp::CertStatus::kRevoked);
}

// ------------------------------------------------------------- mini soak ---

struct SoakOutcome {
  std::vector<std::uint8_t> statuses;  // per query: 0 good 1 revoked 2 unknown 3 fail
  FleetClient::Counters counters;
  std::uint64_t wrong_answers = 0;
  std::uint64_t stale_answers = 0;
};

// Runs `clients` clients x `queries_per_tick` over `ticks`, partitioned
// across `threads`. Per-client outcomes depend only on (seed, client id,
// tick), so the merged result must be bit-identical for any thread count.
std::vector<SoakOutcome> RunSoak(TestFleet& fleet, std::uint64_t seed,
                                 unsigned threads, std::size_t clients,
                                 std::size_t ticks,
                                 std::size_t queries_per_tick,
                                 std::uint64_t num_serials,
                                 const std::map<std::uint64_t,
                                                std::uint64_t>& publish_epoch) {
  std::vector<SoakOutcome> outcomes(clients);
  std::vector<std::unique_ptr<FleetClient>> fleet_clients;
  for (std::size_t c = 0; c < clients; ++c)
    fleet_clients.push_back(std::make_unique<FleetClient>(
        &fleet.net, &fleet.ring, fleet.ClientOptions()));

  std::map<std::string, const Replica*> by_name;
  for (const auto& replica : fleet.replicas)
    by_name[replica->name()] = replica.get();

  for (std::size_t tick = 0; tick < ticks; ++tick) {
    const util::Timestamp now = kNow + static_cast<util::Timestamp>(tick) * 60;
    auto run_client = [&](std::size_t c) {
      util::Rng rng(seed ^ (0x9E37 * (c + 1)) ^ (tick * 0x79B9));
      for (std::size_t q = 0; q < queries_per_tick; ++q) {
        const std::uint64_t serial = 1 + rng.NextBelow(num_serials);
        const auto result = fleet_clients[c]->Query(
            fleet.Request(serial), fleet.Key(serial), now);
        SoakOutcome& outcome = outcomes[c];
        if (!result.ok) {
          outcome.statuses.push_back(3);
          continue;
        }
        outcome.statuses.push_back(
            static_cast<std::uint8_t>(result.status));
        // Wrong-answer accounting (the chaos invariant): "revoked" must
        // match truth; "good" for a revoked serial is wrong only if the
        // serving replica had already applied the revocation's epoch —
        // otherwise it is staleness, measured separately.
        const bool truly_revoked = fleet.truth.count(serial) != 0;
        if (result.status == ocsp::CertStatus::kRevoked) {
          if (!truly_revoked) ++outcome.wrong_answers;
        } else if (truly_revoked) {
          const auto it = publish_epoch.find(serial);
          const std::uint64_t needed =
              it == publish_epoch.end() ? 1 : it->second;
          if (by_name[result.served_by]->applied_epoch() >= needed)
            ++outcome.wrong_answers;
          else
            ++outcome.stale_answers;
        }
      }
    };
    if (threads <= 1) {
      for (std::size_t c = 0; c < clients; ++c) run_client(c);
    } else {
      std::vector<std::thread> workers;
      for (unsigned t = 0; t < threads; ++t)
        workers.emplace_back([&, t] {
          for (std::size_t c = t; c < clients; c += threads) run_client(c);
        });
      for (auto& worker : workers) worker.join();
    }
  }
  for (std::size_t c = 0; c < clients; ++c)
    outcomes[c].counters = fleet_clients[c]->counters();
  return outcomes;
}

// Storm layout (tick = 60 virtual seconds): the fault windows are arranged
// so that, for ANY seed, at least one replica is deterministically clean at
// every tick — replica 2 while replica 0's region is out, replica 0 while
// replica 2's responses are corrupted. Everything the probabilistic rules
// hit has a clean failover target, so availability is an invariant, not a
// die roll.
net::FaultPlan* MakeStorm(std::uint64_t seed, const TestFleet& fleet,
                          std::vector<std::unique_ptr<net::FaultPlan>>& hold) {
  auto plan = std::make_unique<net::FaultPlan>(seed);
  // Regional outage: replica 0 hard down for ticks 2-5.
  net::FaultRule outage;
  outage.target = fleet.replicas[0]->name();
  outage.kind = net::FaultKind::kOutage;
  outage.start = kNow + 2 * 60;
  outage.end = kNow + 6 * 60;
  plan->AddRule(outage);
  // Latency storm on replica 1 for ticks 0-1: slow, not dead — exercises
  // hedging, not failover.
  net::FaultRule slow;
  slow.target = fleet.replicas[1]->name();
  slow.kind = net::FaultKind::kLatency;
  slow.latency_factor = 20.0;
  slow.start = kNow;
  slow.end = kNow + 2 * 60;
  plan->AddRule(slow);
  // Flapping on replica 1 throughout (phase-locked square wave).
  net::FaultRule flap;
  flap.target = fleet.replicas[1]->name();
  flap.kind = net::FaultKind::kFlap;
  flap.up_seconds = 300;
  flap.down_seconds = 60;
  plan->AddRule(flap);
  // 503 shedding bursts on replica 1, with Retry-After (client mark-down).
  net::FaultRule shed;
  shed.target = fleet.replicas[1]->name();
  shed.kind = net::FaultKind::kHttpError;
  shed.http_status = 503;
  shed.retry_after = 45;
  shed.probability = 0.2;
  plan->AddRule(shed);
  // Corruption storm on replica 2's responses for ticks 6-9 (replica 0 is
  // back up by then).
  net::FaultRule corrupt;
  corrupt.target = fleet.replicas[2]->name();
  corrupt.kind = net::FaultKind::kCorrupt;
  corrupt.corrupt_bytes = 4;
  corrupt.start = kNow + 6 * 60;
  corrupt.end = kNow + 10 * 60;
  plan->AddRule(corrupt);
  hold.push_back(std::move(plan));
  return hold.back().get();
}

TEST(FleetSoak, ZeroWrongAnswersAndBitIdenticalAcrossThreadCounts) {
  const char* env_seed = std::getenv("REV_CHAOS_SEED");
  const std::uint64_t seed =
      env_seed ? std::strtoull(env_seed, nullptr, 0) : 0xC0FFEE;
  constexpr std::uint64_t kSerials = 200;
  constexpr std::size_t kClients = 8, kTicks = 10, kPerTick = 12;

  std::map<std::uint64_t, std::uint64_t> publish_epoch;  // serial -> epoch
  auto build = [&](unsigned threads) {
    auto fleet = std::make_unique<TestFleet>(3);
    fleet->AddGood(1, kSerials);
    for (std::uint64_t s = 10; s <= kSerials; s += 10) {
      fleet->Revoke(s, kNow - kDay);
      publish_epoch[s] = 1;
    }
    fleet->authority_frontend.RebuildAll(kNow);
    fleet->publisher.Publish(fleet->net, kNow - 60);  // all replicas warm

    std::vector<std::unique_ptr<net::FaultPlan>> hold;
    fleet->net.SetFaultPlan(MakeStorm(seed, *fleet, hold));
    auto outcomes =
        RunSoak(*fleet, seed, threads, kClients, kTicks, kPerTick, kSerials,
                publish_epoch);
    fleet->net.SetFaultPlan(nullptr);
    hold.clear();
    return outcomes;
  };

  const auto serial_run = build(1);
  const auto threaded_run = build(8);

  std::uint64_t wrong = 0, answered = 0, failovers = 0, hedges = 0;
  for (std::size_t c = 0; c < serial_run.size(); ++c) {
    // Bit-identity: every client's per-query status sequence and counter
    // block match between the 1-thread and 8-thread runs.
    EXPECT_EQ(serial_run[c].statuses, threaded_run[c].statuses) << c;
    EXPECT_EQ(serial_run[c].counters.queries,
              threaded_run[c].counters.queries);
    EXPECT_EQ(serial_run[c].counters.failovers,
              threaded_run[c].counters.failovers);
    EXPECT_EQ(serial_run[c].counters.hedges, threaded_run[c].counters.hedges);
    EXPECT_EQ(serial_run[c].counters.shed_503,
              threaded_run[c].counters.shed_503);
    EXPECT_EQ(serial_run[c].counters.last_resort,
              threaded_run[c].counters.last_resort);
    EXPECT_EQ(serial_run[c].wrong_answers, threaded_run[c].wrong_answers);
    wrong += serial_run[c].wrong_answers;
    answered += serial_run[c].counters.answered;
    failovers += serial_run[c].counters.failovers;
    hedges += serial_run[c].counters.hedges;
  }
  // The chaos invariant, extended to the fleet: NO wrong revocation answer,
  // ever, and the storm actually exercised the failover machinery.
  EXPECT_EQ(wrong, 0u);
  EXPECT_GT(answered, 0u);
  EXPECT_GT(failovers, 0u);
  EXPECT_GT(hedges, 0u);
  // With replication factor 3 and one replica hard down, availability
  // stays near-perfect.
  const std::uint64_t total =
      static_cast<std::uint64_t>(kClients) * kTicks * kPerTick;
  EXPECT_GE(static_cast<double>(answered) / static_cast<double>(total), 0.999);
}

// ----------------------------------------------------- distributed traces --

TEST(FleetTrace, FailoverQueryStitchesOneCausalTree) {
  auto& collector = obs::DistTraceCollector::Global();
  collector.Clear();
  collector.Enable();

  TestFleet fleet(3);
  fleet.AddGood(1, 30);
  fleet.authority_frontend.RebuildAll(kNow);
  fleet.publisher.Publish(fleet.net, kNow);

  std::uint64_t victim_serial = 0;
  for (std::uint64_t s = 1; s <= 30; ++s) {
    if (*fleet.ring.PrimaryFor(fleet.Key(s)) == fleet.replicas[0]->name()) {
      victim_serial = s;
      break;
    }
  }
  ASSERT_NE(victim_serial, 0u);
  net::FaultPlan plan(0xBEEF);
  net::FaultRule outage;
  outage.target = fleet.replicas[0]->name();
  outage.kind = net::FaultKind::kOutage;
  plan.AddRule(outage);
  fleet.net.SetFaultPlan(&plan);

  auto options = fleet.ClientOptions();
  options.trace_seed = 0x7A11;
  FleetClient client(&fleet.net, &fleet.ring, options);
  collector.Clear();  // drop the publish-path spans; keep just the query
  const auto result =
      client.Query(fleet.Request(victim_serial), fleet.Key(victim_serial),
                   kNow + 100);
  collector.Disable();
  ASSERT_TRUE(result.ok);
  ASSERT_TRUE(result.failed_over);
  ASSERT_TRUE(result.trace_id.valid());

  // One trace holds the whole query: the root, one leg per replica tried,
  // an exchange under each leg, and the surviving replica's server marker.
  const auto spans = collector.SnapshotTrace(result.trace_id);
  std::size_t roots = 0, legs = 0, exchanges = 0;
  std::set<std::string> nodes;
  std::uint64_t root_span = 0, root_dur = 0;
  for (const auto& span : spans) {
    nodes.insert(span.node);
    const std::string_view name(span.name);
    if (name == "fleet.query") {
      ++roots;
      root_span = span.span;
      root_dur = span.dur_ns();
    } else if (name == "fleet.attempt" || name == "fleet.hedge") {
      ++legs;
    } else if (name == "net.exchange") {
      ++exchanges;
    }
  }
  EXPECT_EQ(roots, 1u);
  EXPECT_EQ(legs, static_cast<std::size_t>(result.replicas_tried));
  EXPECT_GE(legs, 2u);  // the outage forced a second leg
  EXPECT_EQ(exchanges, legs);
  EXPECT_GE(nodes.size(), 3u);  // client + dead replica + surviving replica
  for (const auto& span : spans) {
    if (std::string_view(span.name) != "fleet.query") {
      EXPECT_EQ(span.trace.lo, result.trace_id.lo);
    }
  }

  // The critical path tiles the root span exactly, and the root's width is
  // the client-observed latency (same 1% gate the fleet bench enforces).
  const auto path = obs::CriticalPath(spans);
  ASSERT_FALSE(path.empty());
  std::uint64_t path_ns = 0;
  for (const auto& segment : path) path_ns += segment.dur_ns();
  EXPECT_EQ(path_ns, root_dur);
  const double measured_ns = result.elapsed_seconds * 1e9;
  EXPECT_NEAR(static_cast<double>(path_ns), measured_ns,
              0.01 * measured_ns + 1.0);
  EXPECT_NE(root_span, 0u);
  collector.Clear();
}

TEST(FleetMetrics, ScrapeMergesPerFrontendExpositions) {
  TestFleet fleet(3);
  fleet.AddGood(1, 20);
  fleet.authority_frontend.RebuildAll(kNow);
  fleet.publisher.Publish(fleet.net, kNow);

  FleetClient client(&fleet.net, &fleet.ring, fleet.ClientOptions());
  constexpr std::uint64_t kQueries = 10;
  for (std::uint64_t s = 1; s <= kQueries; ++s)
    ASSERT_TRUE(client.Query(fleet.Request(s), fleet.Key(s), kNow + 10).ok);

  std::vector<std::string> hosts;
  for (const auto& replica : fleet.replicas) hosts.push_back(replica->name());
  hosts.push_back("no-such-replica.fleet.sim");  // scrape failures are counted
  const FleetMetricsView view =
      ScrapeFleetMetrics(fleet.net, hosts, kNow + 20);
  EXPECT_EQ(view.hosts_ok, fleet.replicas.size());
  EXPECT_EQ(view.hosts_failed, 1u);
  EXPECT_GT(view.scrape_bytes, 0u);

  // Per-instance labels were stripped and merged: the fleet-wide request
  // count is the sum over replicas, which answered every query exactly
  // once each (no failovers in a healthy fleet).
  std::uint64_t fleet_requests = 0;
  bool found = false;
  for (const auto& counter : view.merged.counters) {
    if (counter.name == "serve.requests") {
      found = true;
      fleet_requests = counter.value;
    }
  }
  ASSERT_TRUE(found);
  EXPECT_GE(fleet_requests, kQueries);
  std::uint64_t per_replica_sum = 0;
  for (const auto& replica : fleet.replicas)
    per_replica_sum += replica->frontend().counters().requests;
  EXPECT_EQ(fleet_requests, per_replica_sum);
}

}  // namespace
}  // namespace rev::fleet
