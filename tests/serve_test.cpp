// Serving-frontend tests: epoch-swap index semantics, precomputed-response
// cache expiry, GET/POST handling, admission control (503, never a wrong
// status), determinism across thread counts, and a TSan stress loop
// (`ServeStress.*` is the target scripts/ci.sh runs under ThreadSanitizer).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <latch>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "net/simnet.h"
#include "ocsp/ocsp.h"
#include "ocsp/responder.h"
#include "serve/frontend.h"
#include "serve/response_cache.h"
#include "serve/status_index.h"
#include "x509/name.h"

namespace rev::serve {
namespace {

constexpr util::Timestamp kNow = 1'412'208'000;  // 2014-10-02

crypto::KeyPair TestKey(std::string_view label) {
  return crypto::SimKeyFromLabel(label);
}

x509::Certificate MakeIssuerCert(std::string_view key_label = "serve-issuer") {
  x509::TbsCertificate tbs;
  tbs.serial = x509::Serial{0x21};
  tbs.issuer = tbs.subject = x509::Name::Make("Serve Test CA", "Test");
  tbs.not_before = 0;
  tbs.not_after = kNow + 100'000'000;
  tbs.public_key = TestKey(key_label).Public();
  tbs.basic_constraints = {true, -1};
  return x509::SignCertificate(tbs, TestKey(key_label));
}

// ---------------------------------------------------------- StatusIndex ----

TEST(StatusIndex, ApplyLookupEraseBumpEpoch) {
  StatusIndex index(4);
  const Bytes hash(32, 0xAB);
  const StatusKey a = MakeStatusKey(hash, x509::Serial{0x01});
  const StatusKey b = MakeStatusKey(hash, x509::Serial{0x02});
  EXPECT_EQ(index.epoch(), 0u);

  index.Apply({{a, StatusIndex::Record{ocsp::CertStatus::kGood, 0,
                                       x509::ReasonCode::kNoReasonCode}},
               {b, StatusIndex::Record{ocsp::CertStatus::kRevoked, kNow - 5,
                                       x509::ReasonCode::kKeyCompromise}}});
  EXPECT_EQ(index.epoch(), 1u);  // one batch = one epoch, not one per record
  EXPECT_EQ(index.size(), 2u);
  const auto got = index.Lookup(b);
  ASSERT_TRUE(got);
  EXPECT_EQ(got->status, ocsp::CertStatus::kRevoked);
  EXPECT_EQ(got->revocation_time, kNow - 5);

  index.Apply({{a, std::nullopt}});  // erase -> serve `unknown`
  EXPECT_EQ(index.epoch(), 2u);
  EXPECT_FALSE(index.Lookup(a));
  EXPECT_EQ(index.size(), 1u);

  const auto keys = index.SortedKeys();
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0], b);
  EXPECT_EQ(SerialOfKey(b), (x509::Serial{0x02}));
  EXPECT_EQ(Bytes(IssuerHashOfKey(b).begin(), IssuerHashOfKey(b).end()), hash);
}

// -------------------------------------------------------- ResponseCache ----

TEST(ResponseCache, ServeUntilIsExclusive) {
  ResponseCache cache(2);
  const Bytes hash(32, 0x01);
  const StatusKey key = MakeStatusKey(hash, x509::Serial{0x09});
  ResponseCache::Entry entry;
  entry.der = std::make_shared<const Bytes>(Bytes{1, 2, 3});
  entry.signed_at = kNow;
  entry.serve_until = kNow + 100;
  cache.PutBatch({{key, entry}});

  EXPECT_EQ(cache.Get(key, kNow).outcome, ResponseCache::Outcome::kHit);
  EXPECT_EQ(cache.Get(key, kNow + 99).outcome, ResponseCache::Outcome::kHit);
  EXPECT_EQ(cache.Get(key, kNow + 100).outcome,
            ResponseCache::Outcome::kExpired);

  EXPECT_TRUE(cache.KeysStaleBy(kNow + 99).empty());
  EXPECT_EQ(cache.KeysStaleBy(kNow + 100).size(), 1u);

  cache.Invalidate(key);
  EXPECT_EQ(cache.Get(key, kNow).outcome, ResponseCache::Outcome::kMiss);
  EXPECT_EQ(cache.size(), 0u);
}

// The miss path's install race, forced deterministically: an entry signed
// from a snapshot pinned at epoch e0 must not land after a flush (index
// swap to e0+1, then invalidation of the key) has run — it would undo the
// invalidation and serve the pre-revocation "good".
TEST(ResponseCache, InstallFromBeforeAnInvalidationIsRefused) {
  StatusIndex index(4);
  ResponseCache cache(4);
  const StatusKey key = MakeStatusKey(Bytes(32, 0x0A), x509::Serial{0x0B});
  const StatusKey other = MakeStatusKey(Bytes(32, 0x0A), x509::Serial{0x0C});
  auto stale_entries = [&] {
    ResponseCache::Entry entry;
    entry.der = std::make_shared<const Bytes>(Bytes{0x0D});
    entry.signed_at = kNow;
    entry.serve_until = kNow + 100;
    std::vector<std::pair<StatusKey, ResponseCache::Entry>> entries;
    entries.emplace_back(key, entry);
    entries.emplace_back(other, entry);
    return entries;
  };

  const std::uint64_t pinned = index.epoch();
  // The flush lands between the miss path's signing and its install.
  index.Apply({{key, StatusIndex::Record{ocsp::CertStatus::kRevoked, kNow - 10,
                                         x509::ReasonCode::kKeyCompromise}}});
  cache.Invalidate(key);

  EXPECT_EQ(cache.PutBatchIfEpoch(stale_entries(), index, pinned), 0u);
  EXPECT_EQ(cache.Get(key, kNow).outcome, ResponseCache::Outcome::kMiss);
  EXPECT_EQ(cache.size(), 0u);

  // An install pinned at the current epoch goes through.
  EXPECT_EQ(cache.PutBatchIfEpoch(stale_entries(), index, index.epoch()), 2u);
  EXPECT_EQ(cache.Get(key, kNow).outcome, ResponseCache::Outcome::kHit);
  EXPECT_EQ(cache.Get(other, kNow).outcome, ResponseCache::Outcome::kHit);
}

// ------------------------------------------------------------- Frontend ----

class FrontendTest : public ::testing::Test {
 protected:
  FrontendTest()
      : issuer_(MakeIssuerCert()),
        responder_(issuer_, TestKey("serve-issuer"), 4 * util::kSecondsPerDay) {
    frontend_.AttachResponder(&responder_);
  }

  ocsp::OcspRequest RequestFor(const x509::Serial& serial) {
    ocsp::OcspRequest request;
    request.cert_ids = {ocsp::MakeCertId(issuer_, serial)};
    return request;
  }

  Frontend::ServeResult Post(const x509::Serial& serial,
                             util::Timestamp now = kNow) {
    return frontend_.Serve(ocsp::EncodeOcspRequest(RequestFor(serial)), now);
  }

  ocsp::CertStatus StatusOf(const Frontend::ServeResult& result) {
    EXPECT_TRUE(result.body);
    auto parsed = ocsp::ParseOcspResponse(*result.body);
    EXPECT_TRUE(parsed);
    return parsed ? parsed->single.status : ocsp::CertStatus::kUnknown;
  }

  x509::Certificate issuer_;
  ocsp::Responder responder_;
  // Declared after responder_ so the frontend detaches its observer first.
  Frontend frontend_;
};

TEST_F(FrontendTest, MissThenHitServesIdenticalBytes) {
  responder_.AddCertificate(x509::Serial{0x42});
  const auto first = Post(x509::Serial{0x42});
  EXPECT_EQ(first.http_status, 200);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(StatusOf(first), ocsp::CertStatus::kGood);

  const auto second = Post(x509::Serial{0x42});
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(*first.body, *second.body);

  const Frontend::Counters counters = frontend_.counters();
  EXPECT_EQ(counters.requests, 2u);
  EXPECT_EQ(counters.cache_misses, 1u);
  EXPECT_EQ(counters.cache_hits, 1u);
  EXPECT_EQ(counters.signed_on_demand, 1u);
}

TEST_F(FrontendTest, RemoveYieldsUnknownAndIsNeverCached) {
  responder_.AddCertificate(x509::Serial{0x50});
  EXPECT_EQ(StatusOf(Post(x509::Serial{0x50})), ocsp::CertStatus::kGood);

  responder_.Remove(x509::Serial{0x50});
  const auto after = Post(x509::Serial{0x50});
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(StatusOf(after), ocsp::CertStatus::kUnknown);

  // Unknowns never enter the cache (unbounded-growth guard): a repeat query
  // is still a miss, not a hit.
  const auto repeat = Post(x509::Serial{0x50});
  EXPECT_FALSE(repeat.cache_hit);
  EXPECT_EQ(StatusOf(repeat), ocsp::CertStatus::kUnknown);
  EXPECT_EQ(frontend_.cache().size(), 0u);
}

TEST_F(FrontendTest, RevokedWithReasonCode) {
  responder_.AddCertificate(x509::Serial{0x51});
  responder_.Revoke(x509::Serial{0x51}, kNow - 3600,
                    x509::ReasonCode::kAffiliationChanged);
  const auto result = Post(x509::Serial{0x51});
  auto parsed = ocsp::ParseOcspResponse(*result.body);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->single.status, ocsp::CertStatus::kRevoked);
  EXPECT_EQ(parsed->single.revocation_time, kNow - 3600);
  EXPECT_EQ(parsed->single.reason, x509::ReasonCode::kAffiliationChanged);
  EXPECT_TRUE(
      ocsp::VerifyOcspSignature(*parsed, TestKey("serve-issuer").Public()));
}

TEST_F(FrontendTest, GetFormRoundTripThroughHttp) {
  // RFC 6960 Appendix A: base64(request DER) in the GET path — the form
  // browsers favor (§6.2).
  responder_.AddCertificate(x509::Serial{0x52});
  net::HttpRequest http;
  http.method = "GET";
  http.host = "ocsp.serve.test";
  http.path = ocsp::OcspGetPath(RequestFor(x509::Serial{0x52}));
  const net::HttpResponse response = frontend_.HandleHttp(http, kNow);
  EXPECT_EQ(response.status, 200);
  auto parsed = ocsp::ParseOcspResponse(response.body);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->single.status, ocsp::CertStatus::kGood);

  // The GET takes the POST's path: the same cache entry, and one request
  // counted for each.
  const auto post = Post(x509::Serial{0x52});
  EXPECT_TRUE(post.cache_hit);
  EXPECT_EQ(*post.body, response.body);
  const auto get = frontend_.ServeGetPath(http.path, kNow);
  EXPECT_TRUE(get.cache_hit);
  const Frontend::Counters counters = frontend_.counters();
  EXPECT_EQ(counters.requests, 3u);
  EXPECT_EQ(counters.cache_misses, 1u);
  EXPECT_EQ(counters.cache_hits, 2u);

  // A garbage path is malformed, still HTTP 200 per OCSP-over-HTTP.
  http.path = "/not-base64!!";
  const net::HttpResponse bad = frontend_.HandleHttp(http, kNow);
  EXPECT_EQ(bad.status, 200);
  auto bad_parsed = ocsp::ParseOcspResponse(bad.body);
  ASSERT_TRUE(bad_parsed);
  EXPECT_EQ(bad_parsed->status, ocsp::ResponseStatus::kMalformedRequest);
}

TEST_F(FrontendTest, MalformedPostsAndGetsAreCountedOnce) {
  const std::vector<Bytes> posts = {Bytes{}, Bytes{0x00, 0x01},
                                    Bytes{0x30, 0x00}};
  // No leading slash, not base64, and valid base64 of a non-request.
  const std::vector<std::string> gets = {"", "no-leading-slash",
                                         "/not-base64!!", "/QUJD"};
  std::vector<Frontend::ServeResult> results;
  for (const Bytes& der : posts) results.push_back(frontend_.Serve(der, kNow));
  for (const std::string& path : gets)
    results.push_back(frontend_.ServeGetPath(path, kNow));
  for (const Frontend::ServeResult& result : results) {
    EXPECT_EQ(result.http_status, 200);
    auto parsed = ocsp::ParseOcspResponse(*result.body);
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->status, ocsp::ResponseStatus::kMalformedRequest);
  }
  const Frontend::Counters counters = frontend_.counters();
  EXPECT_EQ(counters.requests, posts.size() + gets.size());
  EXPECT_EQ(counters.malformed, posts.size() + gets.size());
}

TEST_F(FrontendTest, NoncedRequestBypassesCacheAndEchoesNonce) {
  responder_.AddCertificate(x509::Serial{0x53});
  ocsp::OcspRequest request = RequestFor(x509::Serial{0x53});
  request.nonce = Bytes{0xDE, 0xAD, 0xBE, 0xEF};
  const Bytes der = ocsp::EncodeOcspRequest(request);

  for (int i = 0; i < 2; ++i) {
    const auto result = frontend_.Serve(der, kNow);
    EXPECT_FALSE(result.cache_hit);  // a nonce makes the response unique
    auto parsed = ocsp::ParseOcspResponse(*result.body);
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->nonce, request.nonce);
    EXPECT_EQ(parsed->single.status, ocsp::CertStatus::kGood);
    EXPECT_TRUE(
        ocsp::VerifyOcspSignature(*parsed, TestKey("serve-issuer").Public()));
  }
  EXPECT_EQ(frontend_.counters().cache_hits, 0u);
}

TEST_F(FrontendTest, MultiCertRequestAnswersAllInOrder) {
  // RFC 6960: a request listing N certificates yields N SingleResponses in
  // request order.
  responder_.AddCertificate(x509::Serial{0x54});
  responder_.Revoke(x509::Serial{0x54}, kNow - 10,
                    x509::ReasonCode::kKeyCompromise);
  responder_.AddCertificate(x509::Serial{0x55});
  // 0x5F was never registered -> unknown.
  ocsp::OcspRequest request;
  request.cert_ids = {ocsp::MakeCertId(issuer_, x509::Serial{0x54}),
                      ocsp::MakeCertId(issuer_, x509::Serial{0x5F}),
                      ocsp::MakeCertId(issuer_, x509::Serial{0x55})};
  const auto result = frontend_.Serve(ocsp::EncodeOcspRequest(request), kNow);
  EXPECT_FALSE(result.cache_hit);
  auto parsed = ocsp::ParseOcspResponse(*result.body);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->single.cert_id, request.cert_ids[0]);
  EXPECT_EQ(parsed->single.status, ocsp::CertStatus::kRevoked);
  EXPECT_EQ(parsed->single.reason, x509::ReasonCode::kKeyCompromise);
  ASSERT_EQ(parsed->more_singles.size(), 2u);
  EXPECT_EQ(parsed->more_singles[0].cert_id, request.cert_ids[1]);
  EXPECT_EQ(parsed->more_singles[0].status, ocsp::CertStatus::kUnknown);
  EXPECT_EQ(parsed->more_singles[1].cert_id, request.cert_ids[2]);
  EXPECT_EQ(parsed->more_singles[1].status, ocsp::CertStatus::kGood);
  EXPECT_TRUE(
      ocsp::VerifyOcspSignature(*parsed, TestKey("serve-issuer").Public()));

  // One foreign CertID anywhere in the list makes the request unauthorized.
  request.cert_ids.push_back(
      ocsp::MakeCertId(MakeIssuerCert("other-issuer"), x509::Serial{0x55}));
  const auto mixed = frontend_.Serve(ocsp::EncodeOcspRequest(request), kNow);
  auto mixed_parsed = ocsp::ParseOcspResponse(*mixed.body);
  ASSERT_TRUE(mixed_parsed);
  EXPECT_EQ(mixed_parsed->status, ocsp::ResponseStatus::kUnauthorized);
}

TEST_F(FrontendTest, ForeignIssuerIsUnauthorized) {
  const x509::Certificate other = MakeIssuerCert("other-issuer");
  ocsp::OcspRequest request;
  request.cert_ids = {ocsp::MakeCertId(other, x509::Serial{0x01})};
  const auto result = frontend_.Serve(ocsp::EncodeOcspRequest(request), kNow);
  EXPECT_EQ(result.http_status, 200);
  auto parsed = ocsp::ParseOcspResponse(*result.body);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->status, ocsp::ResponseStatus::kUnauthorized);
  EXPECT_EQ(frontend_.counters().unauthorized, 1u);
}

TEST_F(FrontendTest, CachedGoodNeverOutlivesScheduledRevocation) {
  // A revocation scheduled for the future must cap the serving window of
  // the pre-signed "good" response (the SignEntry serve_until clamp).
  responder_.AddCertificate(x509::Serial{0x56});
  EXPECT_EQ(StatusOf(Post(x509::Serial{0x56})), ocsp::CertStatus::kGood);

  const util::Timestamp effect = kNow + 500;
  responder_.Revoke(x509::Serial{0x56}, effect, x509::ReasonCode::kSuperseded);

  // Before the revocation takes effect the status still reads good...
  EXPECT_EQ(StatusOf(Post(x509::Serial{0x56}, kNow + 1)),
            ocsp::CertStatus::kGood);
  const auto still_good = Post(x509::Serial{0x56}, effect - 1);
  EXPECT_TRUE(still_good.cache_hit);
  EXPECT_EQ(StatusOf(still_good), ocsp::CertStatus::kGood);

  // ...and at the effect instant the cached entry has expired: the serve
  // path re-signs and answers revoked. Never a stale good.
  const auto revoked = Post(x509::Serial{0x56}, effect);
  EXPECT_FALSE(revoked.cache_hit);
  EXPECT_EQ(StatusOf(revoked), ocsp::CertStatus::kRevoked);
}

TEST_F(FrontendTest, StapleServesFromCacheAndRejectsForeignIssuer) {
  responder_.AddCertificate(x509::Serial{0x57});
  frontend_.RebuildAll(kNow);
  const auto der =
      frontend_.Staple(responder_.issuer_key_hash(), x509::Serial{0x57}, kNow);
  ASSERT_TRUE(der);
  auto parsed = ocsp::ParseOcspResponse(*der);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->single.status, ocsp::CertStatus::kGood);
  EXPECT_GE(frontend_.counters().cache_hits, 1u);

  const Bytes foreign(32, 0x77);
  EXPECT_EQ(frontend_.Staple(foreign, x509::Serial{0x57}, kNow), nullptr);
}

TEST_F(FrontendTest, RefreshStaleResignsAndDropsRemoved) {
  responder_.AddCertificate(x509::Serial{0x58});
  responder_.AddCertificate(x509::Serial{0x59});
  Post(x509::Serial{0x58});
  Post(x509::Serial{0x59});
  // Fresh entries (4-day validity) are outside the 1-day refresh headroom.
  EXPECT_EQ(frontend_.RefreshStale(kNow), 0u);

  responder_.Remove(x509::Serial{0x59});
  const util::Timestamp later = kNow + 3 * util::kSecondsPerDay + 1;
  // 0x58 is re-signed; 0x59 left the index and must not be refreshed.
  EXPECT_EQ(frontend_.RefreshStale(later), 1u);
  EXPECT_EQ(frontend_.counters().refreshed, 1u);

  const auto hit = Post(x509::Serial{0x58}, later);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(StatusOf(hit), ocsp::CertStatus::kGood);
  const auto unknown = Post(x509::Serial{0x59}, later);
  EXPECT_FALSE(unknown.cache_hit);
  EXPECT_EQ(StatusOf(unknown), ocsp::CertStatus::kUnknown);
}

// ------------------------------------------------- admission / shedding ----

TEST(FrontendAdmission, ShedsWith503AndNeverAWrongStatus) {
  x509::Certificate issuer = MakeIssuerCert("shed-issuer");
  ocsp::Responder responder(issuer, TestKey("shed-issuer"));
  FrontendOptions options;
  options.num_shards = 1;
  options.per_shard_queue = 1;
  options.retry_after_seconds = 7;
  Frontend frontend(options);
  frontend.AttachResponder(&responder);
  responder.AddCertificate(x509::Serial{0x01});

  ocsp::OcspRequest request;
  request.cert_ids = {ocsp::MakeCertId(issuer, x509::Serial{0x01})};
  const Bytes der = ocsp::EncodeOcspRequest(request);

  ASSERT_TRUE(frontend.TryEnterShard(0));   // saturate the only slot
  EXPECT_FALSE(frontend.TryEnterShard(0));  // budget of 1 is exhausted

  const auto shed = frontend.Serve(der, kNow);
  EXPECT_EQ(shed.http_status, 503);
  EXPECT_EQ(shed.retry_after, 7);
  auto parsed = ocsp::ParseOcspResponse(*shed.body);
  ASSERT_TRUE(parsed);
  // Overload answers tryLater — never a definitive (possibly wrong) status.
  EXPECT_EQ(parsed->status, ocsp::ResponseStatus::kTryLater);
  EXPECT_EQ(frontend.counters().shed, 1u);

  // The 503 carries Retry-After through the HTTP adapter too.
  net::HttpRequest http;
  http.method = "POST";
  http.body = der;
  const net::HttpResponse http_response = frontend.HandleHttp(http, kNow);
  EXPECT_EQ(http_response.status, 503);
  EXPECT_EQ(http_response.retry_after, 7);

  frontend.ExitShard(0);
  const auto ok = frontend.Serve(der, kNow);
  EXPECT_EQ(ok.http_status, 200);
  auto ok_parsed = ocsp::ParseOcspResponse(*ok.body);
  ASSERT_TRUE(ok_parsed);
  EXPECT_EQ(ok_parsed->single.status, ocsp::CertStatus::kGood);
}

// ---------------------------------------------------------- determinism ----

TEST(FrontendDeterminism, RebuildByteIdenticalAcrossThreadCounts) {
  const x509::Certificate issuer = MakeIssuerCert("det-issuer");
  ocsp::Responder r_serial(issuer, TestKey("det-issuer"));
  ocsp::Responder r_parallel(issuer, TestKey("det-issuer"));
  const auto seed = [&](ocsp::Responder& r) {
    for (int i = 1; i <= 64; ++i) {
      const x509::Serial serial{static_cast<std::uint8_t>(i), 0x5A};
      r.AddCertificate(serial);
      if (i % 3 == 0)
        r.Revoke(serial, kNow - i, x509::ReasonCode::kSuperseded);
      if (i % 7 == 0) r.Remove(serial);
    }
  };
  seed(r_serial);
  seed(r_parallel);

  FrontendOptions serial_options;
  serial_options.threads = 1;
  FrontendOptions parallel_options;
  parallel_options.threads = 4;
  Frontend f_serial(serial_options);
  Frontend f_parallel(parallel_options);
  f_serial.AttachResponder(&r_serial);
  f_parallel.AttachResponder(&r_parallel);

  const std::size_t n_serial = f_serial.RebuildAll(kNow);
  const std::size_t n_parallel = f_parallel.RebuildAll(kNow);
  EXPECT_EQ(n_serial, n_parallel);
  EXPECT_GT(n_serial, 0u);

  for (int i = 1; i <= 64; ++i) {
    const x509::Serial serial{static_cast<std::uint8_t>(i), 0x5A};
    const auto a = f_serial.Staple(r_serial.issuer_key_hash(), serial, kNow);
    const auto b =
        f_parallel.Staple(r_parallel.issuer_key_hash(), serial, kNow);
    ASSERT_TRUE(a);
    ASSERT_TRUE(b);
    EXPECT_EQ(*a, *b) << "divergent response for serial " << i;
  }
}

// --------------------------------------------------------------- stress ----

TEST(ServeStress, ConcurrentServeMutateRefresh) {
  const x509::Certificate issuer = MakeIssuerCert("stress-issuer");
  ocsp::Responder responder(issuer, TestKey("stress-issuer"));
  FrontendOptions options;
  options.num_shards = 4;
  Frontend frontend(options);
  frontend.AttachResponder(&responder);

  constexpr int kSerials = 32;
  for (int i = 1; i <= kSerials; ++i)
    responder.AddCertificate(x509::Serial{static_cast<std::uint8_t>(i)});
  frontend.RebuildAll(kNow);

  // Fixed per-reader iteration counts keep the test deterministic on a
  // single core, where a stop-flag loop can end before readers ever run.
  constexpr int kIterations = 200;
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (int i = t; i < t + kIterations; ++i) {
        ocsp::OcspRequest request;
        request.cert_ids = {ocsp::MakeCertId(
            issuer, x509::Serial{static_cast<std::uint8_t>(i % kSerials + 1)})};
        const auto result =
            frontend.Serve(ocsp::EncodeOcspRequest(request), kNow + i % 100);
        EXPECT_TRUE(result.http_status == 200 || result.http_status == 503);
        if (result.http_status == 200) {
          EXPECT_TRUE(result.body);
        }
      }
    });
  }

  // Mutate and refresh while the readers hammer the serve path.
  for (int i = 1; i <= kSerials; ++i) {
    responder.Revoke(x509::Serial{static_cast<std::uint8_t>(i)}, kNow + i,
                     x509::ReasonCode::kCessationOfOperation);
    if (i % 8 == 0) frontend.RefreshStale(kNow + i);
  }
  frontend.RebuildAll(kNow + kSerials);

  for (auto& reader : readers) reader.join();

  const Frontend::Counters counters = frontend.counters();
  EXPECT_EQ(counters.requests, 4u * kIterations);
  EXPECT_EQ(counters.malformed, 0u);
  EXPECT_EQ(counters.unauthorized, 0u);
}

// ------------------------------------------------------ attach latching ----

TEST(FrontendAttach, LateAttachThrowsAfterServingStarts) {
  x509::Certificate first = MakeIssuerCert("latch-issuer-a");
  x509::Certificate second = MakeIssuerCert("latch-issuer-b");
  ocsp::Responder responder_a(first, TestKey("latch-issuer-a"));
  ocsp::Responder responder_b(second, TestKey("latch-issuer-b"));
  Frontend frontend;
  frontend.AttachResponder(&responder_a);
  responder_a.AddCertificate(x509::Serial{0x01});

  // The first request latches the routing table read-only...
  ocsp::OcspRequest request;
  request.cert_ids = {ocsp::MakeCertId(first, x509::Serial{0x01})};
  const auto result = frontend.Serve(ocsp::EncodeOcspRequest(request), kNow);
  EXPECT_EQ(result.http_status, 200);

  // ...so a late attach fails loudly instead of racing the lock-free
  // readers.
  EXPECT_THROW(frontend.AttachResponder(&responder_b), std::logic_error);
}

TEST(FrontendAttach, StapleAndMaintenanceAlsoLatch) {
  x509::Certificate issuer = MakeIssuerCert("latch-issuer-c");
  x509::Certificate other = MakeIssuerCert("latch-issuer-d");
  ocsp::Responder responder(issuer, TestKey("latch-issuer-c"));
  ocsp::Responder late(other, TestKey("latch-issuer-d"));

  {
    Frontend frontend;
    frontend.AttachResponder(&responder);
    frontend.Staple(responder.issuer_key_hash(), x509::Serial{0x01}, kNow);
    EXPECT_THROW(frontend.AttachResponder(&late), std::logic_error);
  }
  {
    Frontend frontend;
    frontend.AttachResponder(&responder);
    frontend.RebuildAll(kNow);
    EXPECT_THROW(frontend.AttachResponder(&late), std::logic_error);
  }
}

// Regression: a route registered after the first Serve must fail
// loudly, and the error must NAME the offending path — with several
// subsystems registering routes (cascade distribution, fleet replication)
// an anonymous "serving already started" left the caller unidentifiable.
TEST(FrontendAttach, LateAddRouteAfterServeNamesThePath) {
  x509::Certificate issuer = MakeIssuerCert("latch-issuer-g");
  ocsp::Responder responder(issuer, TestKey("latch-issuer-g"));
  Frontend frontend;
  frontend.AttachResponder(&responder);
  responder.AddCertificate(x509::Serial{0x31});

  ocsp::OcspRequest request;
  request.cert_ids = {ocsp::MakeCertId(issuer, x509::Serial{0x31})};
  ASSERT_EQ(frontend.Serve(ocsp::EncodeOcspRequest(request), kNow).http_status,
            200);

  try {
    frontend.AddRoute("/fleet/snapshot",
                      [](const net::HttpRequest&, util::Timestamp) {
                        return net::HttpResponse{};
                      });
    FAIL() << "late AddRoute must throw";
  } catch (const std::logic_error& error) {
    EXPECT_NE(std::string(error.what()).find("/fleet/snapshot"),
              std::string::npos)
        << "error must name the offending route: " << error.what();
  }
}

// TSan regression for the original bug: AttachResponder used to mutate the
// routing table with no synchronization, so an attach racing the serve
// path was a data race. Now the latch forces the late attach onto the
// throwing path while readers keep serving lock-free — this test runs
// under ThreadSanitizer in scripts/ci.sh.
TEST(FrontendAttach, ConcurrentLateAttachIsRejectedRaceFree) {
  x509::Certificate issuer = MakeIssuerCert("latch-issuer-e");
  x509::Certificate other = MakeIssuerCert("latch-issuer-f");
  ocsp::Responder responder(issuer, TestKey("latch-issuer-e"));
  ocsp::Responder late(other, TestKey("latch-issuer-f"));
  Frontend frontend;
  frontend.AttachResponder(&responder);
  responder.AddCertificate(x509::Serial{0x02});

  ocsp::OcspRequest request;
  request.cert_ids = {ocsp::MakeCertId(issuer, x509::Serial{0x02})};
  const Bytes der = ocsp::EncodeOcspRequest(request);
  ASSERT_EQ(frontend.Serve(der, kNow).http_status, 200);  // latch is set

  constexpr int kServesPerThread = 200;
  std::vector<std::thread> servers;
  for (int t = 0; t < 3; ++t) {
    servers.emplace_back([&] {
      for (int i = 0; i < kServesPerThread; ++i)
        EXPECT_EQ(frontend.Serve(der, kNow + i).http_status, 200);
    });
  }
  std::atomic<int> rejected{0};
  std::thread attacher([&] {
    for (int i = 0; i < 50; ++i) {
      try {
        frontend.AttachResponder(&late);
      } catch (const std::logic_error&) {
        rejected.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  for (auto& server : servers) server.join();
  attacher.join();
  EXPECT_EQ(rejected.load(), 50);  // every late attach was rejected
}

// ------------------------------------------------------ expiry boundary ----

TEST_F(FrontendTest, ExactBoundaryRevocationScheduledAtTQueriedAtT) {
  // Cache a "good" whose serving window is clamped to a revocation
  // scheduled exactly at t; a query at exactly t must re-sign and answer
  // revoked — serve_until is exclusive, with no off-by-one at the boundary.
  responder_.AddCertificate(x509::Serial{0x60});
  const util::Timestamp t = kNow + 250;
  responder_.Revoke(x509::Serial{0x60}, t, x509::ReasonCode::kSuperseded);

  const auto before = Post(x509::Serial{0x60}, kNow);
  EXPECT_EQ(StatusOf(before), ocsp::CertStatus::kGood);
  EXPECT_TRUE(Post(x509::Serial{0x60}, t - 1).cache_hit);

  const auto at_boundary = Post(x509::Serial{0x60}, t);
  EXPECT_FALSE(at_boundary.cache_hit);
  EXPECT_EQ(StatusOf(at_boundary), ocsp::CertStatus::kRevoked);
  EXPECT_GE(frontend_.counters().cache_expired, 1u);
}

TEST_F(FrontendTest, ExactBoundaryNextUpdateIsNeverServed) {
  // The other edge of the window: a response must not be served at or past
  // its own nextUpdate (validity is 4 days in this fixture).
  responder_.AddCertificate(x509::Serial{0x61});
  const auto first = Post(x509::Serial{0x61}, kNow);
  EXPECT_EQ(StatusOf(first), ocsp::CertStatus::kGood);
  const util::Timestamp next_update = kNow + 4 * util::kSecondsPerDay;

  EXPECT_TRUE(Post(x509::Serial{0x61}, next_update - 1).cache_hit);
  const auto at_boundary = Post(x509::Serial{0x61}, next_update);
  EXPECT_FALSE(at_boundary.cache_hit);
  EXPECT_EQ(StatusOf(at_boundary), ocsp::CertStatus::kGood);  // re-signed
}

// ---------------------------------------------------- inline cache hits ----

// A cache hit is answered on the caller's thread without an admission
// slot; a miss still needs one.
TEST(FrontendAdmission, CachedHitIsServedWhileAdmissionIsSaturated) {
  x509::Certificate issuer = MakeIssuerCert("hit-shed-issuer");
  ocsp::Responder responder(issuer, TestKey("hit-shed-issuer"));
  FrontendOptions options;
  options.num_shards = 1;
  options.per_shard_queue = 1;
  options.retry_after_seconds = 5;
  Frontend frontend(options);
  frontend.AttachResponder(&responder);
  responder.AddCertificate(x509::Serial{0x01});
  ASSERT_EQ(frontend.RebuildAll(kNow), 1u);
  responder.AddCertificate(x509::Serial{0x02});  // indexed, never cached

  const auto encode = [&](std::uint8_t serial) {
    ocsp::OcspRequest request;
    request.cert_ids = {ocsp::MakeCertId(issuer, x509::Serial{serial})};
    return ocsp::EncodeOcspRequest(request);
  };
  ASSERT_TRUE(frontend.TryEnterShard(0));  // saturate the only slot

  const auto hit = frontend.Serve(encode(0x01), kNow);
  EXPECT_EQ(hit.http_status, 200);
  EXPECT_TRUE(hit.cache_hit);
  ASSERT_TRUE(hit.body);
  auto parsed = ocsp::ParseOcspResponse(*hit.body);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->single.status, ocsp::CertStatus::kGood);

  const auto shed = frontend.Serve(encode(0x02), kNow);
  EXPECT_EQ(shed.http_status, 503);
  EXPECT_EQ(shed.retry_after, 5);
  EXPECT_FALSE(shed.cache_hit);
  auto shed_parsed = ocsp::ParseOcspResponse(*shed.body);
  ASSERT_TRUE(shed_parsed);
  EXPECT_EQ(shed_parsed->status, ocsp::ResponseStatus::kTryLater);

  const Frontend::Counters counters = frontend.counters();
  EXPECT_EQ(counters.cache_hits, 1u);
  EXPECT_EQ(counters.shed, 1u);
  EXPECT_EQ(counters.cache_misses, 0u);  // shed before SignMiss saw it
  frontend.ExitShard(0);
}

TEST_F(FrontendTest, RevokeAfterInlineHitIsAnsweredOnTheSameThread) {
  responder_.AddCertificate(x509::Serial{0x63});
  frontend_.RebuildAll(kNow);
  const auto hit = Post(x509::Serial{0x63});
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(StatusOf(hit), ocsp::CertStatus::kGood);

  // The revocation returned before the next request started: that request
  // flushes it and must not serve the cached good.
  responder_.Revoke(x509::Serial{0x63}, kNow - 10,
                    x509::ReasonCode::kKeyCompromise);
  const auto after = Post(x509::Serial{0x63});
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(StatusOf(after), ocsp::CertStatus::kRevoked);
}

TEST_F(FrontendTest, ExpiredEntryIsCountedOnceAsExpired) {
  responder_.AddCertificate(x509::Serial{0x64});
  frontend_.RebuildAll(kNow);
  const util::Timestamp next_update = kNow + 4 * util::kSecondsPerDay;
  EXPECT_TRUE(Post(x509::Serial{0x64}, next_update - 1).cache_hit);

  const Frontend::Counters before = frontend_.counters();
  // now == serve_until: the inline lookup sees an expired entry and falls
  // through to SignMiss, which re-signs. One request, one tally.
  const auto at_boundary = Post(x509::Serial{0x64}, next_update);
  EXPECT_FALSE(at_boundary.cache_hit);
  EXPECT_EQ(StatusOf(at_boundary), ocsp::CertStatus::kGood);

  const Frontend::Counters after = frontend_.counters();
  EXPECT_EQ(after.cache_expired - before.cache_expired, 1u);
  EXPECT_EQ(after.cache_misses - before.cache_misses, 0u);
  EXPECT_EQ(after.cache_hits - before.cache_hits, 0u);
  EXPECT_EQ(after.signed_on_demand - before.signed_on_demand, 1u);
}

TEST_F(FrontendTest, TracedInlineHitRecordsServerSpanAndExemplar) {
  responder_.AddCertificate(x509::Serial{0x65});
  frontend_.RebuildAll(kNow);
  obs::DistTraceCollector& collector = obs::DistTraceCollector::Global();
  collector.Clear();
  collector.Enable();
  obs::SpanContext ctx;
  ctx.trace = obs::MakeTraceId(0x5EED, 65);
  ctx.span = obs::RootSpanId(ctx.trace);

  const auto hit = frontend_.Serve(
      ocsp::EncodeOcspRequest(RequestFor(x509::Serial{0x65})), kNow, &ctx);
  collector.Disable();
  EXPECT_TRUE(hit.cache_hit);

  const std::vector<obs::DistSpan> spans = collector.SnapshotTrace(ctx.trace);
  collector.Clear();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "serve.request");
  EXPECT_EQ(spans[0].kind, obs::SpanKind::kServer);
  EXPECT_EQ(spans[0].parent, ctx.span);
  EXPECT_EQ(spans[0].status, 200);

  const obs::HistogramSnapshot latency =
      obs::MetricsRegistry::Global()
          .GetHistogram("serve.latency_ns", frontend_.metrics_label())
          .Snapshot();
  EXPECT_EQ(latency.count, 1u);
  const bool tagged = std::ranges::any_of(
      latency.exemplars, [&](const obs::Exemplar& exemplar) {
        return exemplar.trace_hi == ctx.trace.hi &&
               exemplar.trace_lo == ctx.trace.lo;
      });
  EXPECT_TRUE(tagged) << "no latency bucket carries the trace exemplar";
}

// Readers hammer cached keys while a writer revokes them one by one and
// serves each until it reads revoked. A reader request that starts after
// the writer saw "revoked" must never answer good. And because every
// request flushes pending mutations before its cache lookup — waiting for
// a flush another thread has in progress — the writer's very first request
// after Revoke returns already answers revoked. Filler records that are
// never queried make each index swap copy thousands of entries, so a
// reader's flush is still in progress when the writer's request starts.
TEST(ServeStress, InlineHitsNeverGoodAfterVisibleRevocation) {
  const x509::Certificate issuer = MakeIssuerCert("visible-issuer");
  ocsp::Responder responder(issuer, TestKey("visible-issuer"));
  FrontendOptions options;
  options.num_shards = 4;
  Frontend frontend(options);
  frontend.AttachResponder(&responder);

  constexpr int kSerials = 16;
  constexpr int kFiller = 32000;
  for (int i = 0; i < kFiller; ++i) {
    responder.AddCertificate(
        x509::Serial{static_cast<std::uint8_t>(0x40 + i / 256),
                     static_cast<std::uint8_t>(i % 256)});
  }
  std::vector<Bytes> requests;
  for (int i = 1; i <= kSerials; ++i) {
    const x509::Serial serial{static_cast<std::uint8_t>(i)};
    responder.AddCertificate(serial);
    ocsp::OcspRequest request;
    request.cert_ids = {ocsp::MakeCertId(issuer, serial)};
    requests.push_back(ocsp::EncodeOcspRequest(request));
    EXPECT_FALSE(frontend.Serve(requests.back(), kNow).cache_hit);  // caches it
  }

  const auto status_of = [](const Frontend::ServeResult& result) {
    if (result.http_status != 200 || !result.body)
      return ocsp::CertStatus::kUnknown;
    const auto parsed = ocsp::ParseOcspResponse(*result.body);
    return parsed ? parsed->single.status : ocsp::CertStatus::kUnknown;
  };

  std::vector<std::atomic<bool>> visible(kSerials);
  std::atomic<bool> writer_done{false};
  std::atomic<int> wrong{0}, not_ok{0}, hits{0};
  constexpr int kMinIterations = 300;
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0;
           i < kMinIterations || !writer_done.load(std::memory_order_acquire);
           ++i) {
        const int target = (i * 5 + t) % kSerials;
        const bool was_visible =
            visible[target].load(std::memory_order_acquire);
        const auto result = frontend.Serve(requests[target], kNow);
        const ocsp::CertStatus status = status_of(result);
        if (status != ocsp::CertStatus::kGood &&
            status != ocsp::CertStatus::kRevoked)
          ++not_ok;
        if (was_visible && status != ocsp::CertStatus::kRevoked) ++wrong;
        if (result.cache_hit) ++hits;
      }
    });
  }

  int first_try_revoked = 0;
  for (int target = 0; target < kSerials; ++target) {
    responder.Revoke(x509::Serial{static_cast<std::uint8_t>(target + 1)},
                     kNow - 60, x509::ReasonCode::kKeyCompromise);
    // Give the readers time to pick up the pending revocation first.
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    bool seen = false;
    for (int attempt = 0; attempt < 1000 && !seen; ++attempt) {
      seen = status_of(frontend.Serve(requests[target], kNow)) ==
             ocsp::CertStatus::kRevoked;
      if (seen && attempt == 0) ++first_try_revoked;
    }
    EXPECT_TRUE(seen) << "revocation of serial " << target + 1
                      << " never became visible";
    visible[target].store(true, std::memory_order_release);
    std::this_thread::yield();
  }
  writer_done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(wrong.load(), 0) << "a reader saw good after visible revoked";
  EXPECT_EQ(not_ok.load(), 0);
  EXPECT_EQ(first_try_revoked, kSerials);
  EXPECT_GT(hits.load(), 0);
}

// A rebuild signs every record from the live index and installs the batch
// afterwards. A revocation that another thread's request flushes in
// between drops the serial's cache entry, and the serial is then served
// revoked; the rebuild's install must not put back the good response it
// signed before the flush. One thread loops RebuildAll over thousands of
// filler records (the target serials sort first, so they are signed long
// before each install), the writer revokes the targets one at a time, and
// readers check that no serial is served good once any of them has read
// it revoked.
TEST(ServeStress, RebuildNeverReinstallsGoodAfterRevocation) {
  const x509::Certificate issuer = MakeIssuerCert("rebuild-issuer");
  ocsp::Responder responder(issuer, TestKey("rebuild-issuer"));
  FrontendOptions options;
  options.num_shards = 4;
  Frontend frontend(options);
  frontend.AttachResponder(&responder);

  constexpr int kSerials = 32;
  constexpr int kFiller = 4000;
  for (int i = 0; i < kFiller; ++i) {
    responder.AddCertificate(
        x509::Serial{static_cast<std::uint8_t>(0x40 + i / 256),
                     static_cast<std::uint8_t>(i % 256)});
  }
  std::vector<Bytes> requests;
  for (int i = 1; i <= kSerials; ++i) {
    const x509::Serial serial{static_cast<std::uint8_t>(i)};
    responder.AddCertificate(serial);
    ocsp::OcspRequest request;
    request.cert_ids = {ocsp::MakeCertId(issuer, serial)};
    requests.push_back(ocsp::EncodeOcspRequest(request));
  }
  frontend.RebuildAll(kNow);

  const auto status_of = [&](int target) {
    const Frontend::ServeResult result =
        frontend.Serve(requests[target], kNow);
    if (result.http_status != 200 || !result.body)
      return ocsp::CertStatus::kUnknown;
    const auto parsed = ocsp::ParseOcspResponse(*result.body);
    return parsed ? parsed->single.status : ocsp::CertStatus::kUnknown;
  };

  // The rebuilder runs two more rebuilds after the last revocation, so a
  // good reinstalled by the rebuild in flight stays cached for a whole
  // rebuild while the readers are still reading.
  std::vector<std::atomic<bool>> seen_revoked(kSerials);
  std::atomic<bool> writer_done{false}, done{false};
  std::atomic<int> wrong{0};
  std::thread rebuilder([&] {
    int after_writer = 0;
    while (after_writer < 2) {
      const bool writer_was_done =
          writer_done.load(std::memory_order_acquire);
      frontend.RebuildAll(kNow);
      if (writer_was_done) ++after_writer;
    }
    done.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      for (int i = t; !done.load(std::memory_order_acquire); ++i) {
        const int target = i % kSerials;
        const bool was_revoked =
            seen_revoked[target].load(std::memory_order_acquire);
        if (status_of(target) == ocsp::CertStatus::kRevoked)
          seen_revoked[target].store(true, std::memory_order_release);
        else if (was_revoked)
          ++wrong;
      }
    });
  }

  for (int target = 0; target < kSerials; ++target) {
    responder.Revoke(x509::Serial{static_cast<std::uint8_t>(target + 1)},
                     kNow - 60, x509::ReasonCode::kKeyCompromise);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  writer_done.store(true, std::memory_order_release);
  rebuilder.join();
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(wrong.load(), 0)
      << "a serial was served good after it read revoked";
  for (int target = 0; target < kSerials; ++target)
    EXPECT_EQ(status_of(target), ocsp::CertStatus::kRevoked) << target + 1;
}

// ------------------------------------------------------- equivalence ----

// The equivalence fixture drives the SAME deterministic request mix —
// duplicates, revoked, unknown, nonced, multi-cert, malformed, foreign
// issuer, each as a POST through Serve and some as a GET through HandleHttp
// — at 1 client thread on one frontend and at N on an
// identically seeded second one, then insists on byte-identical bodies and
// identical counter totals. A second phase queries a serial revoked at `t`
// at exactly `t` from every thread at once: its cached "good" is clamped to
// `t`, so each request must answer revoked, and the concurrent same-key
// misses coalesce under the shard's miss lock into one signature. A third
// phase has every thread Staple one serial no request touched: Staple takes
// the same miss path, so it too signs once and hits for the rest. The
// 8-thread variant is a ci.sh TSan target.
class ServeEquivalence : public ::testing::Test {
 protected:
  static constexpr int kSerials = 20;
  static constexpr std::uint8_t kBoundarySerial = kSerials + 1;
  static constexpr std::uint8_t kStapleSerial = kSerials + 2;
  static constexpr int kStaples = 8;
  static constexpr util::Timestamp kRevokedAt = kNow + 777;

  void SeedResponder(ocsp::Responder& responder) {
    for (int i = 1; i <= kSerials; ++i) {
      const x509::Serial serial{static_cast<std::uint8_t>(i)};
      responder.AddCertificate(serial);
      if (i % 6 == 3)
        responder.Revoke(serial, kNow - i, x509::ReasonCode::kKeyCompromise);
      if (i % 7 == 0) responder.Remove(serial);  // served as `unknown`
    }
    responder.AddCertificate(x509::Serial{kBoundarySerial});
    responder.Revoke(x509::Serial{kBoundarySerial}, kRevokedAt,
                     x509::ReasonCode::kKeyCompromise);
    responder.AddCertificate(x509::Serial{kStapleSerial});
  }

  // One request of the mix: the DER served through Serve, or, when
  // `get_path` is set, an RFC 6960 GET sent through HandleHttp.
  struct Call {
    Bytes der;
    std::string get_path;
  };

  static Call Encode(const x509::Certificate& issuer, std::uint8_t serial) {
    ocsp::OcspRequest request;
    request.cert_ids = {ocsp::MakeCertId(issuer, x509::Serial{serial})};
    return {ocsp::EncodeOcspRequest(request), {}};
  }

  std::vector<Call> BuildMix(const x509::Certificate& issuer,
                             const x509::Certificate& foreign) {
    std::vector<Call> mix;
    for (int i = 0; i < 60; ++i) {
      ocsp::OcspRequest request;
      request.cert_ids = {ocsp::MakeCertId(
          issuer,
          x509::Serial{static_cast<std::uint8_t>((i * 7) % kSerials + 1)})};
      if (i % 17 == 5) request.nonce = Bytes{0xAA, static_cast<std::uint8_t>(i)};
      if (i % 13 == 4)
        request.cert_ids.push_back(
            ocsp::MakeCertId(issuer, x509::Serial{0x02}));
      mix.push_back({ocsp::EncodeOcspRequest(request), {}});
      // The GET form of every fourth, nonced (i = 5) and multi-cert
      // (i = 17) among them.
      if (i % 4 == 1) mix.push_back({{}, ocsp::OcspGetPath(request)});
      if (i % 20 == 10) mix.push_back(Encode(issuer, kBoundarySerial));
    }
    mix.push_back({Bytes{0xFF, 0x00, 0x13}, {}});  // malformed
    mix.push_back({{}, "/not-base64!!"});        // malformed GET
    ocsp::OcspRequest alien;
    alien.cert_ids = {ocsp::MakeCertId(foreign, x509::Serial{0x01})};
    mix.push_back({ocsp::EncodeOcspRequest(alien), {}});  // unauthorized
    mix.push_back({{}, ocsp::OcspGetPath(alien)});        // unauthorized GET
    return mix;
  }

  static FrontendOptions Options() {
    FrontendOptions options;
    options.num_shards = 4;
    options.per_shard_queue = 1024;  // wide enough that nothing sheds
    return options;
  }

  static void ExpectSameCounters(const Frontend::Counters& want,
                                 const Frontend::Counters& got) {
    EXPECT_EQ(want.requests, got.requests);
    EXPECT_EQ(want.cache_hits, got.cache_hits);
    EXPECT_EQ(want.cache_misses, got.cache_misses);
    EXPECT_EQ(want.cache_expired, got.cache_expired);
    EXPECT_EQ(want.signed_on_demand, got.signed_on_demand);
    EXPECT_EQ(want.shed, got.shed);
    EXPECT_EQ(want.malformed, got.malformed);
    EXPECT_EQ(want.unauthorized, got.unauthorized);
    EXPECT_EQ(want.status_updates, got.status_updates);
  }

  // Serves `requests` at `now` from `threads` clients, each taking one
  // contiguous slice; bodies line up index-for-index with `requests`.
  static std::vector<std::shared_ptr<const Bytes>> ServeAll(
      Frontend& frontend, const std::vector<Call>& requests,
      util::Timestamp now, int threads) {
    const std::size_t n = requests.size();
    std::vector<std::shared_ptr<const Bytes>> bodies(n);
    const std::size_t stride = (n + threads - 1) / threads;
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        const std::size_t end = std::min(n, (t + 1) * stride);
        for (std::size_t i = t * stride; i < end; ++i) {
          const Call& call = requests[i];
          if (call.get_path.empty()) {
            bodies[i] = frontend.Serve(call.der, now).body;
            continue;
          }
          net::HttpRequest http;
          http.method = "GET";
          http.path = call.get_path;
          bodies[i] = std::make_shared<const Bytes>(
              frontend.HandleHttp(http, now).body);
        }
      });
    }
    for (auto& worker : workers) worker.join();
    return bodies;
  }

  // Staples kStapleSerial kStaples times at kNow from `threads` clients
  // released together, and checks the counters moved by exactly one miss
  // and one signature, the rest hits.
  static std::vector<std::shared_ptr<const Bytes>> StapleAll(
      Frontend& frontend, const ocsp::Responder& responder, int threads) {
    const Frontend::Counters before = frontend.counters();
    std::vector<std::shared_ptr<const Bytes>> bodies(kStaples);
    const int stride = (kStaples + threads - 1) / threads;
    std::latch start(threads);
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        start.arrive_and_wait();
        for (int i = t * stride; i < std::min(kStaples, (t + 1) * stride); ++i)
          bodies[i] = frontend.Staple(responder.issuer_key_hash(),
                                      x509::Serial{kStapleSerial}, kNow);
      });
    }
    for (auto& worker : workers) worker.join();
    const Frontend::Counters after = frontend.counters();
    EXPECT_EQ(after.cache_misses - before.cache_misses, 1u) << threads;
    EXPECT_EQ(after.signed_on_demand - before.signed_on_demand, 1u)
        << threads;
    EXPECT_EQ(after.cache_hits - before.cache_hits, kStaples - 1u) << threads;
    EXPECT_EQ(after.cache_expired, before.cache_expired) << threads;
    return bodies;
  }

  void RunAtThreadCount(int threads) {
    const x509::Certificate issuer = MakeIssuerCert("equiv-issuer");
    const x509::Certificate foreign = MakeIssuerCert("equiv-foreign");
    ocsp::Responder r_want(issuer, TestKey("equiv-issuer"),
                           4 * util::kSecondsPerDay);
    ocsp::Responder r_got(issuer, TestKey("equiv-issuer"),
                          4 * util::kSecondsPerDay);
    SeedResponder(r_want);
    SeedResponder(r_got);

    Frontend f_want(Options());
    Frontend f_got(Options());
    f_want.AttachResponder(&r_want);
    f_got.AttachResponder(&r_got);
    // Apply the bulk load up front so the index epoch is quiescent during
    // the run — hit/miss totals are then a pure function of the mix.
    f_want.Flush();
    f_got.Flush();

    std::vector<Call> requests = BuildMix(issuer, foreign);
    const std::size_t mix_size = requests.size();
    std::vector<std::shared_ptr<const Bytes>> want =
        ServeAll(f_want, requests, kNow, 1);
    std::vector<std::shared_ptr<const Bytes>> got =
        ServeAll(f_got, requests, kNow, threads);

    const std::vector<Call> boundary(8, Encode(issuer, kBoundarySerial));
    for (auto& body : ServeAll(f_want, boundary, kRevokedAt, 1))
      want.push_back(std::move(body));
    for (auto& body : ServeAll(f_got, boundary, kRevokedAt, threads))
      got.push_back(std::move(body));
    requests.insert(requests.end(), boundary.begin(), boundary.end());

    const std::vector<std::shared_ptr<const Bytes>> staples_want =
        StapleAll(f_want, r_want, 1);
    const std::vector<std::shared_ptr<const Bytes>> staples_got =
        StapleAll(f_got, r_got, threads);
    for (int i = 0; i < kStaples; ++i) {
      ASSERT_TRUE(staples_want[i]) << "1-thread staple " << i;
      ASSERT_TRUE(staples_got[i]) << threads << "-thread staple " << i;
      EXPECT_EQ(*staples_want[i], *staples_want.front()) << "staple " << i;
      EXPECT_EQ(*staples_got[i], *staples_want.front()) << "staple " << i;
    }

    for (std::size_t i = 0; i < requests.size(); ++i) {
      ASSERT_TRUE(want[i]) << "1-thread index " << i;
      ASSERT_TRUE(got[i]) << threads << "-thread index " << i;
      EXPECT_EQ(*want[i], *got[i]) << "divergent body at index " << i;
      if (requests[i].der != boundary.front().der) continue;
      // Good before the scheduled instant, revoked at exactly it.
      auto parsed = ocsp::ParseOcspResponse(*got[i]);
      ASSERT_TRUE(parsed);
      EXPECT_EQ(parsed->single.status, i < mix_size
                                           ? ocsp::CertStatus::kGood
                                           : ocsp::CertStatus::kRevoked)
          << "boundary serial at index " << i;
    }
    ExpectSameCounters(f_want.counters(), f_got.counters());
    // Each request is counted once, GET or POST, malformed or not.
    EXPECT_EQ(f_got.counters().requests, requests.size());
    EXPECT_EQ(f_got.counters().malformed, 2u);
    EXPECT_EQ(f_got.counters().unauthorized, 2u);
    // The boundary phase found the clamped entry expired exactly once.
    EXPECT_EQ(f_got.counters().cache_expired, 1u);
  }
};

TEST_F(ServeEquivalence, SingleThreadByteIdenticalAndSameCounters) {
  RunAtThreadCount(1);
}

TEST_F(ServeEquivalence, EightThreadsByteIdenticalAndSameCounters) {
  RunAtThreadCount(8);
}

}  // namespace
}  // namespace rev::serve
