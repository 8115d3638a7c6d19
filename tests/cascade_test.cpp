// Filter-cascade subsystem tests: exactness over the build universe,
// bit-identical parallel builds, wire-format integrity, the delta channel's
// snapshot-equivalence property, the publisher's HTTP policy, and a
// fleet-under-storm smoke with ground-truth verification.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "cascade/cascade.h"
#include "cascade/delta.h"
#include "cascade/fleet.h"
#include "cascade/publisher.h"
#include "crypto/sha256.h"
#include "net/fault.h"
#include "net/simnet.h"
#include "serve/frontend.h"
#include "util/hex.h"
#include "util/rng.h"
#include "util/wire.h"

namespace rev::cascade {
namespace {

std::vector<Bytes> MakeKeys(util::Rng& rng, std::size_t n) {
  std::vector<Bytes> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Bytes issuer(24), serial(16);
    rng.Fill(issuer.data(), issuer.size());
    rng.Fill(serial.data(), serial.size());
    keys.push_back(CertKey(issuer, serial));
  }
  return keys;
}

// Splits `universe` into (revoked, not_revoked) with the first `r` keys
// revoked.
void Split(const std::vector<Bytes>& universe, std::size_t r,
           std::vector<Bytes>* revoked, std::vector<Bytes>* not_revoked) {
  revoked->assign(universe.begin(),
                  universe.begin() + static_cast<std::ptrdiff_t>(r));
  not_revoked->assign(universe.begin() + static_cast<std::ptrdiff_t>(r),
                      universe.end());
}

// Writes `value` as the `width`-byte (4 or 8) big-endian field at `offset`,
// encoded as the wire format encodes it.
void SetField(Bytes& out, std::size_t offset, std::size_t width,
              std::uint64_t value) {
  Bytes field;
  if (width == 8) {
    util::wire::PutU64(field, value);
  } else {
    util::wire::PutU32(field, static_cast<std::uint32_t>(value));
  }
  ASSERT_LE(offset + field.size(), out.size());
  std::copy(field.begin(), field.end(),
            out.begin() + static_cast<std::ptrdiff_t>(offset));
}

// Edits one field of a sealed cascade blob and re-seals it, so only
// Deserialize's structural checks stand between the edit and a decoded
// cascade.
Bytes EditSealed(const Bytes& blob, std::size_t offset, std::size_t width,
                 std::uint64_t value) {
  Bytes out(blob.begin(), blob.end() - 8);
  SetField(out, offset, width, value);
  util::wire::SealChecksum(out);
  return out;
}

// Wire offsets: magic u32, version u16, sequence u64, num_revoked u64,
// num_levels u32, then per level salt u64, m_bits u64, k u32, inserted u64
// and the bit array.
constexpr std::size_t kNumLevelsAt = 22;
constexpr std::size_t kLevelsAt = 26;
constexpr std::size_t kMBitsAt = kLevelsAt + 8;
constexpr std::size_t kHashesAt = kLevelsAt + 16;
constexpr std::size_t kBitsAt = kLevelsAt + 28;

// ------------------------------------------------------------- cascade ----

TEST(CertKey, BoundaryUnambiguous) {
  // (issuer="AB", serial="C") must differ from (issuer="A", serial="BC"):
  // the length prefix prevents concatenation ambiguity.
  EXPECT_NE(CertKey(Bytes{'A', 'B'}, Bytes{'C'}),
            CertKey(Bytes{'A'}, Bytes{'B', 'C'}));
  EXPECT_EQ(CertKey(Bytes{'A'}, Bytes{'B'}), CertKey(Bytes{'A'}, Bytes{'B'}));
  EXPECT_EQ(CertKey(Bytes{'A'}, Bytes{'B'}).size(), 32u);
}

TEST(Cascade, ExactOverUniverse) {
  util::Rng rng(1);
  const std::vector<Bytes> universe = MakeKeys(rng, 20'000);
  std::vector<Bytes> revoked, not_revoked;
  Split(universe, 200, &revoked, &not_revoked);

  const FilterCascade cascade = FilterCascade::Build(revoked, not_revoked);
  EXPECT_EQ(cascade.NumRevoked(), 200u);
  EXPECT_GE(cascade.NumLevels(), 1u);
  // Zero false negatives on the revoked side, zero false positives across
  // the entire rest of the universe — per key, not sampled.
  for (const Bytes& key : revoked) EXPECT_TRUE(cascade.IsRevoked(key));
  for (const Bytes& key : not_revoked) EXPECT_FALSE(cascade.IsRevoked(key));
  // Far below the trivial 32-bytes-per-revocation explicit list.
  EXPECT_LT(cascade.FilterBytes(), 32u * 200u);
}

TEST(Cascade, DegenerateShapes) {
  util::Rng rng(2);
  const std::vector<Bytes> keys = MakeKeys(rng, 500);

  // Nothing revoked: everything answers false.
  const FilterCascade none = FilterCascade::Build({}, keys);
  for (const Bytes& key : keys) EXPECT_FALSE(none.IsRevoked(key));

  // Everything revoked: everything answers true.
  const FilterCascade all = FilterCascade::Build(keys, {});
  for (const Bytes& key : keys) EXPECT_TRUE(all.IsRevoked(key));

  // Both sides empty.
  const FilterCascade empty = FilterCascade::Build({}, {});
  EXPECT_FALSE(empty.IsRevoked(keys[0]));

  // Single revoked key among many.
  std::vector<Bytes> revoked, not_revoked;
  Split(keys, 1, &revoked, &not_revoked);
  const FilterCascade one = FilterCascade::Build(revoked, not_revoked);
  EXPECT_TRUE(one.IsRevoked(revoked[0]));
  for (const Bytes& key : not_revoked) EXPECT_FALSE(one.IsRevoked(key));
}

TEST(Cascade, DuplicateKeysHarmless) {
  util::Rng rng(3);
  const std::vector<Bytes> universe = MakeKeys(rng, 2'000);
  std::vector<Bytes> revoked, not_revoked;
  Split(universe, 50, &revoked, &not_revoked);
  std::vector<Bytes> doubled = revoked;
  doubled.insert(doubled.end(), revoked.begin(), revoked.end());

  const FilterCascade cascade = FilterCascade::Build(doubled, not_revoked);
  for (const Bytes& key : revoked) EXPECT_TRUE(cascade.IsRevoked(key));
  for (const Bytes& key : not_revoked) EXPECT_FALSE(cascade.IsRevoked(key));
}

TEST(Cascade, BitIdenticalAcrossThreadCounts) {
  util::Rng rng(4);
  const std::vector<Bytes> universe = MakeKeys(rng, 30'000);
  std::vector<Bytes> revoked, not_revoked;
  Split(universe, 300, &revoked, &not_revoked);

  CascadeOptions serial_opts;
  serial_opts.threads = 1;
  CascadeOptions parallel_opts;
  parallel_opts.threads = 8;
  const FilterCascade a = FilterCascade::Build(revoked, not_revoked, serial_opts);
  const FilterCascade b =
      FilterCascade::Build(revoked, not_revoked, parallel_opts);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.Serialize(), b.Serialize());
}

TEST(Cascade, SerializeRoundTrip) {
  util::Rng rng(5);
  const std::vector<Bytes> universe = MakeKeys(rng, 5'000);
  std::vector<Bytes> revoked, not_revoked;
  Split(universe, 100, &revoked, &not_revoked);
  FilterCascade cascade = FilterCascade::Build(revoked, not_revoked);
  cascade.sequence = 42;

  const Bytes blob = cascade.Serialize();
  auto decoded = FilterCascade::Deserialize(blob);
  ASSERT_TRUE(decoded);
  EXPECT_TRUE(*decoded == cascade);
  EXPECT_EQ(decoded->sequence, 42u);
  EXPECT_EQ(decoded->Serialize(), blob);
  for (const Bytes& key : revoked) EXPECT_TRUE(decoded->IsRevoked(key));
  for (const Bytes& key : not_revoked) EXPECT_FALSE(decoded->IsRevoked(key));
}

TEST(Cascade, DeserializeRejectsDamage) {
  util::Rng rng(6);
  const std::vector<Bytes> universe = MakeKeys(rng, 1'000);
  std::vector<Bytes> revoked, not_revoked;
  Split(universe, 30, &revoked, &not_revoked);
  const Bytes blob = FilterCascade::Build(revoked, not_revoked).Serialize();

  EXPECT_FALSE(FilterCascade::Deserialize(Bytes{}));
  EXPECT_FALSE(FilterCascade::Deserialize(Bytes{1, 2, 3}));
  // Every truncation fails closed (checksum trailer).
  for (std::size_t cut : {1ul, 7ul, 8ul, blob.size() / 2, blob.size() - 1}) {
    Bytes t(blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(FilterCascade::Deserialize(t)) << cut;
  }
  // Any single bit flip fails closed.
  for (std::size_t i = 0; i < blob.size(); i += 13) {
    Bytes flipped = blob;
    flipped[i] ^= 0x40;
    EXPECT_FALSE(FilterCascade::Deserialize(flipped)) << i;
  }
  // Trailing junk fails closed.
  Bytes extended = blob;
  extended.push_back(0);
  EXPECT_FALSE(FilterCascade::Deserialize(extended));

  // Structural damage behind a valid trailer. With no non-revoked keys the
  // build stops after one level, so the level's fields sit at fixed offsets.
  const Bytes one = FilterCascade::Build(revoked, {}).Serialize();
  ASSERT_TRUE(FilterCascade::Deserialize(one));
  std::size_t pos = kMBitsAt;
  std::uint64_t m_bits = 0;
  ASSERT_TRUE(util::wire::GetU64(one, pos, &m_bits));
  // The re-seal alone changes nothing, and k = 64 is still in range.
  EXPECT_TRUE(FilterCascade::Deserialize(EditSealed(one, kMBitsAt, 8, m_bits)));
  EXPECT_TRUE(FilterCascade::Deserialize(EditSealed(one, kHashesAt, 4, 64)));
  EXPECT_FALSE(FilterCascade::Deserialize(EditSealed(one, kHashesAt, 4, 0)));
  EXPECT_FALSE(FilterCascade::Deserialize(EditSealed(one, kHashesAt, 4, 65)));
  EXPECT_FALSE(FilterCascade::Deserialize(EditSealed(one, kMBitsAt, 8, 0)));
  // m_bits = 0 with the bit array dropped too, so that no size check but
  // the m_bits one can object.
  Bytes no_bits(one.begin(), one.begin() + kBitsAt);
  util::wire::SealChecksum(no_bits);
  EXPECT_FALSE(
      FilterCascade::Deserialize(EditSealed(no_bits, kMBitsAt, 8, 0)));
  // m_bits claiming one byte more than the bit array present.
  EXPECT_FALSE(
      FilterCascade::Deserialize(EditSealed(one, kMBitsAt, 8, m_bits + 8)));

  // Level count: kMaxLevels well-formed copies of the level decode, one
  // more is rejected by the cap alone.
  const auto repeated = [&](std::size_t levels) {
    Bytes out(one.begin(), one.begin() + kLevelsAt);
    for (std::size_t i = 0; i < levels; ++i)
      out.insert(out.end(), one.begin() + kLevelsAt, one.end() - 8);
    SetField(out, kNumLevelsAt, 4, levels);
    util::wire::SealChecksum(out);
    return out;
  };
  EXPECT_TRUE(FilterCascade::Deserialize(repeated(FilterCascade::kMaxLevels)));
  EXPECT_FALSE(
      FilterCascade::Deserialize(repeated(FilterCascade::kMaxLevels + 1)));
}

TEST(Cascade, WireBytesPinned) {
  // The serialized bytes of a fixed seeded build, recorded before the
  // cascade levels moved onto crlset::BloomFilter: the wire format, the
  // salted level hash, the level sizing and the CRLite p0 rule must all
  // stay bit-for-bit.
  util::Rng rng(11);
  const std::vector<Bytes> universe = MakeKeys(rng, 5'000);
  std::vector<Bytes> revoked, not_revoked;
  Split(universe, 100, &revoked, &not_revoked);
  FilterCascade cascade = FilterCascade::Build(revoked, not_revoked);
  cascade.sequence = 7;
  const Bytes blob = cascade.Serialize();
  EXPECT_EQ(cascade.NumLevels(), 6u);
  EXPECT_EQ(cascade.FilterBytes(), 158u);
  EXPECT_EQ(blob.size(), 360u);
  const crypto::Sha256Digest digest = crypto::Sha256::Hash(blob);
  EXPECT_EQ(util::HexEncode(BytesView(digest.data(), digest.size())),
            "0a00d0a955829523681149b61a501132aae8e92eabc4353449fafa0d6b8d8e42");
}

// --------------------------------------------------------------- delta ----

TEST(Delta, SerializeRoundTrip) {
  CascadeDelta delta;
  delta.from_sequence = 3;
  delta.to_sequence = 4;
  delta.added = {Bytes{1, 2}, Bytes{3}};
  delta.removed = {Bytes{9, 9, 9}};
  const Bytes blob = delta.Serialize();
  auto decoded = CascadeDelta::Deserialize(blob);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(*decoded, delta);

  Bytes damaged = blob;
  damaged[damaged.size() / 2] ^= 1;
  EXPECT_FALSE(CascadeDelta::Deserialize(damaged));
  damaged = blob;
  damaged.pop_back();
  EXPECT_FALSE(CascadeDelta::Deserialize(damaged));
}

TEST(Delta, ResponseRejectsNonContiguousChain) {
  CascadeDelta a, b;
  a.from_sequence = 1;
  a.to_sequence = 2;
  b.from_sequence = 3;  // gap: 2 -> 3 missing
  b.to_sequence = 4;
  UpdateResponse response;
  response.kind = UpdateResponse::Kind::kDeltas;
  response.deltas = {a, b};
  EXPECT_FALSE(UpdateResponse::Deserialize(response.Serialize()));
  // Contiguous chain round-trips.
  b.from_sequence = 2;
  b.to_sequence = 3;
  response.deltas = {a, b};
  auto decoded = UpdateResponse::Deserialize(response.Serialize());
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->deltas.size(), 2u);
}

TEST(Delta, ClientEquivalentToFreshSnapshot) {
  // The tentpole property: a client that applies deltas N→M answers every
  // universe key identically to a client that downloaded the snapshot at M.
  util::Rng rng(7);
  const auto universe =
      std::make_shared<const std::vector<Bytes>>(MakeKeys(rng, 4'000));
  // At toy scale the cascade snapshot is tiny relative to explicit-key
  // deltas, so loosen the fallback bound to actually exercise the delta
  // path (at paper scale — millions of certs — deltas win under the
  // default fraction).
  PublisherOptions publisher_options;
  publisher_options.snapshot_fallback_fraction = 1e6;
  Publisher publisher(publisher_options);

  std::set<std::size_t> revoked_indices;
  std::vector<std::vector<Bytes>> revoked_by_seq;
  for (int day = 0; day < 6; ++day) {
    // Churn: add some, drop some.
    for (int i = 0; i < 40; ++i)
      revoked_indices.insert(rng.NextBelow(universe->size()));
    for (int i = 0; i < 10 && !revoked_indices.empty(); ++i)
      revoked_indices.erase(revoked_indices.begin());
    std::vector<Bytes> revoked;
    for (std::size_t index : revoked_indices)
      revoked.push_back((*universe)[index]);
    revoked_by_seq.push_back(revoked);
    publisher.Publish(universe, revoked,
                      1'000 + day * util::kSecondsPerDay);
  }

  // Client synced at sequence 2, then deltas 2→6.
  auto old_blob = Bytes();
  {
    // Rebuild the sequence-2 snapshot from retained ground truth.
    std::vector<Bytes> not_revoked;
    std::set<Bytes, util::BytesLess> revoked_set(revoked_by_seq[1].begin(),
                                revoked_by_seq[1].end());
    for (const Bytes& key : *universe)
      if (!revoked_set.contains(key)) not_revoked.push_back(key);
    FilterCascade at2 = FilterCascade::Build(revoked_by_seq[1], not_revoked);
    at2.sequence = 2;
    old_blob = at2.Serialize();
  }
  ClientCascade via_deltas;
  via_deltas.ResetTo(std::make_shared<const FilterCascade>(
      *FilterCascade::Deserialize(old_blob)));
  ASSERT_EQ(via_deltas.sequence(), 2u);

  net::HttpRequest request;
  request.host = "pub";
  request.path = std::string(Publisher::kDeltaPathPrefix) + "2";
  const net::HttpResponse http = publisher.HandleHttp(request, 0);
  ASSERT_EQ(http.status, 200);
  auto update = UpdateResponse::Deserialize(http.body);
  ASSERT_TRUE(update);
  ASSERT_EQ(update->kind, UpdateResponse::Kind::kDeltas);
  ASSERT_EQ(update->deltas.size(), 4u);
  for (const CascadeDelta& delta : update->deltas)
    ASSERT_TRUE(via_deltas.ApplyDelta(delta));
  EXPECT_EQ(via_deltas.sequence(), 6u);

  ClientCascade via_snapshot;
  via_snapshot.ResetTo(publisher.Current());
  ASSERT_EQ(via_snapshot.sequence(), 6u);

  for (const Bytes& key : *universe)
    ASSERT_EQ(via_deltas.IsRevoked(key), via_snapshot.IsRevoked(key));
}

TEST(Delta, ClientRejectsMismatchedDelta) {
  ClientCascade client;
  CascadeDelta delta;
  delta.from_sequence = 0;
  delta.to_sequence = 1;
  EXPECT_FALSE(client.ApplyDelta(delta));  // never synced
  EXPECT_FALSE(client.IsRevoked(Bytes{1}));

  FilterCascade snapshot = FilterCascade::Build({}, {});
  snapshot.sequence = 5;
  client.ResetTo(std::make_shared<const FilterCascade>(std::move(snapshot)));
  EXPECT_FALSE(client.ApplyDelta(delta));  // from 0, client at 5
  delta.from_sequence = 5;
  delta.to_sequence = 6;
  EXPECT_TRUE(client.ApplyDelta(delta));
  EXPECT_EQ(client.sequence(), 6u);
}

// ----------------------------------------------------------- publisher ----

TEST(Publisher, HttpPolicy) {
  util::Rng rng(8);
  const auto universe =
      std::make_shared<const std::vector<Bytes>>(MakeKeys(rng, 2'000));
  PublisherOptions options;
  options.max_delta_history = 3;
  options.snapshot_fallback_fraction = 1e6;  // see ClientEquivalent note
  Publisher publisher(options);

  net::HttpRequest request;
  request.host = "pub";
  request.path = std::string(Publisher::kDeltaPathPrefix) + "0";
  EXPECT_EQ(publisher.HandleHttp(request, 0).status, 503);  // nothing yet

  for (int day = 0; day < 6; ++day) {
    std::vector<Bytes> revoked(universe->begin(),
                               universe->begin() + 10 * (day + 1));
    publisher.Publish(universe, revoked, day * util::kSecondsPerDay);
  }

  // Up to date.
  request.path = std::string(Publisher::kDeltaPathPrefix) + "6";
  auto update = UpdateResponse::Deserialize(publisher.HandleHttp(request, 0).body);
  ASSERT_TRUE(update);
  EXPECT_EQ(update->kind, UpdateResponse::Kind::kUpToDate);

  // Recent client: deltas.
  request.path = std::string(Publisher::kDeltaPathPrefix) + "4";
  update = UpdateResponse::Deserialize(publisher.HandleHttp(request, 0).body);
  ASSERT_TRUE(update);
  EXPECT_EQ(update->kind, UpdateResponse::Kind::kDeltas);
  EXPECT_EQ(update->deltas.size(), 2u);

  // Too stale (history holds 3: sequences 4..6; a from=2 client needs the
  // evicted delta 2→3): snapshot fallback.
  request.path = std::string(Publisher::kDeltaPathPrefix) + "2";
  update = UpdateResponse::Deserialize(publisher.HandleHttp(request, 0).body);
  ASSERT_TRUE(update);
  EXPECT_EQ(update->kind, UpdateResponse::Kind::kSnapshot);
  auto cascade = FilterCascade::Deserialize(update->snapshot);
  ASSERT_TRUE(cascade);
  EXPECT_EQ(cascade->sequence, 6u);

  // Unparseable `from`: snapshot (the channel always converges).
  request.path = std::string(Publisher::kDeltaPathPrefix) + "bogus";
  update = UpdateResponse::Deserialize(publisher.HandleHttp(request, 0).body);
  ASSERT_TRUE(update);
  EXPECT_EQ(update->kind, UpdateResponse::Kind::kSnapshot);

  // Explicit snapshot path.
  request.path = Publisher::kSnapshotPath;
  update = UpdateResponse::Deserialize(publisher.HandleHttp(request, 0).body);
  ASSERT_TRUE(update);
  EXPECT_EQ(update->kind, UpdateResponse::Kind::kSnapshot);

  // Unknown path.
  request.path = "/cascade/unknown";
  EXPECT_EQ(publisher.HandleHttp(request, 0).status, 404);
}

TEST(Publisher, SnapshotFallbackWhenDeltasTooBig) {
  util::Rng rng(9);
  const auto universe =
      std::make_shared<const std::vector<Bytes>>(MakeKeys(rng, 300));
  PublisherOptions options;
  options.snapshot_fallback_fraction = 0.0;  // deltas never pay
  Publisher publisher(options);
  publisher.Publish(universe, {(*universe)[0]}, 100);
  publisher.Publish(universe, {(*universe)[0], (*universe)[1]}, 200);

  net::HttpRequest request;
  request.host = "pub";
  request.path = std::string(Publisher::kDeltaPathPrefix) + "1";
  auto update = UpdateResponse::Deserialize(publisher.HandleHttp(request, 0).body);
  ASSERT_TRUE(update);
  EXPECT_EQ(update->kind, UpdateResponse::Kind::kSnapshot);
}

// ------------------------------------------------- frontend route table ----

TEST(FrontendRoutes, PrefixDispatchAndLateAddThrows) {
  serve::Frontend frontend;
  bool handled = false;
  frontend.AddRoute("/cascade/",
                    [&handled](const net::HttpRequest&, util::Timestamp) {
                      handled = true;
                      net::HttpResponse response;
                      response.status = 200;
                      response.body = Bytes{'o', 'k'};
                      return response;
                    });

  net::HttpRequest request;
  request.method = "GET";
  request.host = "frontend";
  request.path = "/cascade/delta?from=3";
  const net::HttpResponse response = frontend.HandleHttp(request, 0);
  EXPECT_TRUE(handled);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, (Bytes{'o', 'k'}));

  // /metrics still wins over routes; non-matching paths fall to OCSP.
  request.path = "/metrics";
  EXPECT_EQ(frontend.HandleHttp(request, 0).status, 200);

  // Serving has started: late registration must throw, not race readers.
  EXPECT_THROW(frontend.AddRoute("/late/", [](const net::HttpRequest&,
                                              util::Timestamp) {
    return net::HttpResponse{};
  }),
               std::logic_error);
}

// ---------------------------------------------------------------- fleet ----

struct FleetOutcome {
  Fleet::Totals totals;
  std::size_t staleness_count = 0;
  double staleness_mean = 0;
  bool staleness_empty = true;
  bool windows_empty = true;
};

TEST(Fleet, StormSmokeExactAndDeterministic) {
  auto run = [](std::uint64_t seed) {
    util::Rng rng(100);
    const auto universe =
        std::make_shared<const std::vector<Bytes>>(MakeKeys(rng, 3'000));

    net::SimNet net;
    net::FaultPlan storm(seed);
    net::FaultRule rule;
    rule.target = "cascade.dist.sim";
    rule.kind = net::FaultKind::kCorrupt;
    rule.probability = 0.2;
    storm.AddRule(rule);
    rule.kind = net::FaultKind::kTimeout;
    rule.probability = 0.1;
    storm.AddRule(rule);
    rule.kind = net::FaultKind::kHttpError;
    rule.http_status = 503;
    rule.retry_after = 30;
    rule.probability = 0.1;
    storm.AddRule(rule);
    net.SetFaultPlan(&storm);

    PublisherOptions publisher_options;
    publisher_options.max_delta_history = 10;
    publisher_options.snapshot_fallback_fraction = 1e6;  // toy scale
    Publisher publisher(publisher_options);
    net.AddHost("cascade.dist.sim",
                [&publisher](const net::HttpRequest& request,
                             util::Timestamp now) {
                  return publisher.HandleHttp(request, now);
                });

    FleetOptions fleet_options;
    fleet_options.num_clients = 400;
    fleet_options.seed = 7;
    Fleet fleet(&net, &publisher, fleet_options);

    std::set<std::size_t> revoked_indices;
    const util::Timestamp t0 = 1'000'000;
    fleet.StepTo(t0);  // primes poll phases
    for (int day = 0; day < 8; ++day) {
      const util::Timestamp at = t0 + day * util::kSecondsPerDay;
      for (int i = 0; i < 25; ++i)
        revoked_indices.insert(rng.NextBelow(universe->size()));
      std::vector<Bytes> revoked;
      for (std::size_t index : revoked_indices)
        revoked.push_back((*universe)[index]);
      publisher.Publish(universe, revoked, at);
      fleet.StepTo(at + util::kSecondsPerDay);
    }
    FleetOutcome outcome;
    outcome.totals = fleet.totals();
    outcome.staleness_count = fleet.staleness().Count();
    outcome.staleness_mean = fleet.staleness().Mean();
    outcome.staleness_empty = fleet.staleness().Empty();
    outcome.windows_empty = fleet.vulnerability_windows().Empty();
    return outcome;
  };

  const FleetOutcome a = run(55);
  EXPECT_GT(a.totals.polls, 1'000u);
  EXPECT_GT(a.totals.retries, 0u);          // the storm bit
  EXPECT_GT(a.totals.delta_updates, 0u);
  EXPECT_GT(a.totals.snapshot_updates, 0u); // first syncs
  EXPECT_GT(a.totals.verified_lookups, 0u);
  EXPECT_EQ(a.totals.wrong_answers, 0u);    // exactness through the storm
  EXPECT_FALSE(a.staleness_empty);
  EXPECT_FALSE(a.windows_empty);

  // Same seeds → bit-identical aggregate behaviour.
  const FleetOutcome b = run(55);
  EXPECT_EQ(a.totals.polls, b.totals.polls);
  EXPECT_EQ(a.totals.failed_polls, b.totals.failed_polls);
  EXPECT_EQ(a.totals.retries, b.totals.retries);
  EXPECT_EQ(a.totals.bytes_downloaded, b.totals.bytes_downloaded);
  EXPECT_EQ(a.totals.delta_updates, b.totals.delta_updates);
  EXPECT_EQ(a.staleness_count, b.staleness_count);
  EXPECT_EQ(a.staleness_mean, b.staleness_mean);

  // A different storm seed changes the trajectory (the plan is live).
  const FleetOutcome c = run(56);
  EXPECT_NE(a.totals.bytes_downloaded, c.totals.bytes_downloaded);
}

}  // namespace
}  // namespace rev::cascade
