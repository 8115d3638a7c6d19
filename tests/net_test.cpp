// Simulated-network tests: URL parsing, fetch semantics, the latency and
// bandwidth cost model, failure injection, and client-side caching.
#include <gtest/gtest.h>

#include "net/cache.h"
#include "net/fault.h"
#include "net/retry.h"
#include "net/simnet.h"
#include "net/url.h"
#include "obs/distrace.h"
#include "obs/metrics.h"

namespace rev::net {
namespace {

constexpr util::Timestamp kNow = 1'000'000;

// ----------------------------------------------------------------- url ----

TEST(Url, ParseBasics) {
  auto url = ParseUrl("http://crl.godaddy.sim/crl0.crl");
  ASSERT_TRUE(url);
  EXPECT_EQ(url->scheme, "http");
  EXPECT_EQ(url->host, "crl.godaddy.sim");
  EXPECT_EQ(url->path, "/crl0.crl");
  EXPECT_EQ(url->ToString(), "http://crl.godaddy.sim/crl0.crl");
}

TEST(Url, DefaultPathAndCaseFolding) {
  auto url = ParseUrl("HTTPS://Example.sim");
  ASSERT_TRUE(url);
  EXPECT_EQ(url->scheme, "https");
  EXPECT_EQ(url->path, "/");
}

TEST(Url, RejectsNonHttp) {
  // §3.2: ldap:// and file:// distribution points are ignored.
  EXPECT_FALSE(ParseUrl("ldap://dir.ca.sim/cn=crl"));
  EXPECT_FALSE(ParseUrl("file:///etc/crl"));
  EXPECT_FALSE(ParseUrl("not a url"));
  EXPECT_FALSE(ParseUrl("http://"));
  EXPECT_FALSE(ParseUrl("://host/"));
  EXPECT_TRUE(IsFetchable("http://x.sim/a"));
  EXPECT_FALSE(IsFetchable("ldap://x.sim/a"));
}

// -------------------------------------------------------------- simnet ----

HttpHandler Hello(std::int64_t max_age = 0) {
  return [max_age](const HttpRequest& request, util::Timestamp) {
    HttpResponse response;
    response.body = ToBytes("hello:" + request.path);
    response.max_age = max_age;
    return response;
  };
}

TEST(SimNet, BasicFetch) {
  SimNet net;
  net.AddHost("a.sim", Hello());
  const FetchResult result = net.Get("http://a.sim/x", kNow);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(ToString(result.response.body), "hello:/x");
  EXPECT_GT(result.elapsed_seconds, 0);
  EXPECT_EQ(net.total_requests(), 1u);
}

TEST(SimNet, UnknownHostIsDnsFailure) {
  SimNet net;
  const FetchResult result = net.Get("http://nowhere.sim/", kNow);
  EXPECT_EQ(result.error, FetchError::kDnsFailure);
  EXPECT_FALSE(result.ok());
}

TEST(SimNet, DnsFailureInjection) {
  SimNet net;
  net.AddHost("a.sim", Hello());
  net.SetDnsFailure("a.sim", true);
  EXPECT_EQ(net.Get("http://a.sim/", kNow).error, FetchError::kDnsFailure);
  net.SetDnsFailure("a.sim", false);
  EXPECT_TRUE(net.Get("http://a.sim/", kNow).ok());
}

TEST(SimNet, TimeoutInjection) {
  SimNet net;
  net.AddHost("a.sim", Hello());
  net.SetUnresponsive("a.sim", true);
  const FetchResult result = net.Get("http://a.sim/", kNow, 5.0);
  EXPECT_EQ(result.error, FetchError::kTimeout);
  EXPECT_DOUBLE_EQ(result.elapsed_seconds, 5.0);
}

TEST(SimNet, Http404IsNotOk) {
  SimNet net;
  net.AddHost("a.sim", [](const HttpRequest&, util::Timestamp) {
    return HttpResponse{.status = 404, .body = {}, .max_age = 0, .headers = {}};
  });
  const FetchResult result = net.Get("http://a.sim/", kNow);
  EXPECT_EQ(result.error, FetchError::kOk);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.response.status, 404);
}

TEST(SimNet, LatencyModelScalesWithSize) {
  SimNet net;
  HostProfile slow;
  slow.rtt_seconds = 0.1;
  slow.bandwidth_bps = 8000;  // 1 KB/s
  net.AddHost("slow.sim", [](const HttpRequest&, util::Timestamp) {
    return HttpResponse{
        .status = 200, .body = Bytes(10'000, 'x'), .max_age = 0, .headers = {}};
  }, slow);
  const FetchResult result = net.Get("http://slow.sim/", kNow, 60.0);
  ASSERT_TRUE(result.ok());
  // 3 RTTs (0.3s) + 10 KB at 1 KB/s (10s).
  EXPECT_NEAR(result.elapsed_seconds, 10.3, 0.01);
  EXPECT_EQ(result.bytes_transferred, 10'000u);
}

TEST(SimNet, TransferSlowerThanTimeoutFails) {
  SimNet net;
  HostProfile slow;
  slow.bandwidth_bps = 800;  // 100 B/s
  net.AddHost("slow.sim", [](const HttpRequest&, util::Timestamp) {
    return HttpResponse{
        .status = 200, .body = Bytes(100'000, 'x'), .max_age = 0, .headers = {}};
  }, slow);
  const FetchResult result = net.Get("http://slow.sim/", kNow, 10.0);
  EXPECT_EQ(result.error, FetchError::kTimeout);
}

TEST(SimNet, PostDeliversBody) {
  SimNet net;
  net.AddHost("ocsp.sim", [](const HttpRequest& request, util::Timestamp) {
    HttpResponse response;
    response.body = request.body;
    return response;
  });
  const Bytes body = ToBytes("ocsp-request-bytes");
  const FetchResult result = net.Post("http://ocsp.sim/", body, kNow);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.response.body, body);
}

TEST(SimNet, HandlerSeesVirtualTime) {
  SimNet net;
  util::Timestamp seen = 0;
  net.AddHost("t.sim", [&seen](const HttpRequest&, util::Timestamp now) {
    seen = now;
    return HttpResponse{};
  });
  net.Get("http://t.sim/", 42'000);
  EXPECT_EQ(seen, 42'000);
}

TEST(SimNet, RemoveHost) {
  SimNet net;
  net.AddHost("a.sim", Hello());
  EXPECT_TRUE(net.HasHost("a.sim"));
  net.RemoveHost("a.sim");
  EXPECT_FALSE(net.HasHost("a.sim"));
  EXPECT_EQ(net.Get("http://a.sim/", kNow).error, FetchError::kDnsFailure);
}

TEST(SimNet, CountersAccumulateAndReset) {
  SimNet net;
  net.AddHost("a.sim", Hello());
  net.Get("http://a.sim/1", kNow);
  net.Get("http://a.sim/22", kNow);
  EXPECT_EQ(net.total_requests(), 2u);
  EXPECT_GT(net.total_bytes(), 0u);
  net.ResetCounters();
  EXPECT_EQ(net.total_requests(), 0u);
  EXPECT_EQ(net.total_bytes(), 0u);
}

TEST(SimNet, BadUrlFails) {
  SimNet net;
  EXPECT_EQ(net.Get("ldap://x/", kNow).error, FetchError::kDnsFailure);
}

// --------------------------------------------------------------- cache ----

TEST(CachingClient, CachesByMaxAge) {
  SimNet net;
  int hits = 0;
  net.AddHost("a.sim", [&hits](const HttpRequest&, util::Timestamp) {
    ++hits;
    HttpResponse response;
    response.body = ToBytes("payload");
    response.max_age = 3600;
    return response;
  });
  CachingClient client(&net);

  auto r1 = client.Get("http://a.sim/x", kNow);
  EXPECT_FALSE(r1.from_cache);
  auto r2 = client.Get("http://a.sim/x", kNow + 100);
  EXPECT_TRUE(r2.from_cache);
  EXPECT_DOUBLE_EQ(r2.fetch.elapsed_seconds, 0);
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(client.hits(), 1u);
  EXPECT_EQ(client.misses(), 1u);

  // Expired: re-fetch.
  auto r3 = client.Get("http://a.sim/x", kNow + 3600);
  EXPECT_FALSE(r3.from_cache);
  EXPECT_EQ(hits, 2);
}

TEST(CachingClient, UncacheableNotCached) {
  SimNet net;
  int hits = 0;
  net.AddHost("a.sim", [&hits](const HttpRequest&, util::Timestamp) {
    ++hits;
    return HttpResponse{};  // max_age = 0
  });
  CachingClient client(&net);
  client.Get("http://a.sim/", kNow);
  client.Get("http://a.sim/", kNow);
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(client.EntryCount(), 0u);
}

TEST(CachingClient, FailuresNotCached) {
  SimNet net;
  CachingClient client(&net);
  auto r1 = client.Get("http://missing.sim/", kNow);
  EXPECT_FALSE(r1.fetch.ok());
  EXPECT_EQ(client.EntryCount(), 0u);
}

TEST(CachingClient, EvictsExpiredEntries) {
  // Regression: expired entries were never erased, so a months-long crawl
  // grew the cache without bound.
  SimNet net;
  net.AddHost("a.sim", Hello(3600));
  CachingClient client(&net);
  client.Get("http://a.sim/1", kNow);
  client.Get("http://a.sim/2", kNow);
  EXPECT_EQ(client.EntryCount(), 2u);

  // Re-requesting an expired URL evicts the stale entry before refetching
  // (and then re-caches the fresh response).
  client.Get("http://a.sim/1", kNow + 7200);
  EXPECT_EQ(client.evictions(), 1u);
  EXPECT_EQ(client.EntryCount(), 2u);

  // PruneExpired sweeps entries whose URLs are never requested again.
  EXPECT_EQ(client.PruneExpired(kNow + 2 * 7200), 2u);
  EXPECT_EQ(client.EntryCount(), 0u);
  EXPECT_EQ(client.evictions(), 3u);
}

TEST(CachingClient, DistinctUrlsDistinctEntries) {
  SimNet net;
  net.AddHost("a.sim", Hello(3600));
  CachingClient client(&net);
  client.Get("http://a.sim/1", kNow);
  client.Get("http://a.sim/2", kNow);
  EXPECT_EQ(client.EntryCount(), 2u);
  client.Clear();
  EXPECT_EQ(client.EntryCount(), 0u);
}

// --------------------------------------------------------------- fault ----

TEST(FaultPlan, DecisionsAreDeterministicPerSeed) {
  SimNet net;
  net.AddHost("f.sim", Hello());
  // Two same-seeded plans make identical decisions over the same exchange
  // sequence; a different seed diverges.
  auto run = [&net](std::uint64_t seed) {
    FaultPlan plan(seed);
    FaultRule rule;
    rule.kind = FaultKind::kTimeout;
    rule.probability = 0.5;
    plan.AddRule(rule);
    net.SetFaultPlan(&plan);
    std::string decisions;
    for (int i = 0; i < 64; ++i)
      decisions.push_back(net.Get("http://f.sim/x", kNow + i).ok() ? 'o' : 'T');
    net.SetFaultPlan(nullptr);
    return decisions;
  };
  const std::string a = run(1), b = run(1), c = run(2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // 2^-64 false-failure odds
  EXPECT_NE(a.find('T'), std::string::npos);
  EXPECT_NE(a.find('o'), std::string::npos);
}

TEST(FaultPlan, TargetAndWindowScopeTheRule) {
  SimNet net;
  net.AddHost("a.sim", Hello());
  net.AddHost("b.sim", Hello());
  FaultPlan plan(9);
  FaultRule rule;
  rule.kind = FaultKind::kOutage;
  rule.target = "a.sim/crl";  // host + path prefix
  rule.start = kNow;
  rule.end = kNow + 100;
  plan.AddRule(rule);
  net.SetFaultPlan(&plan);

  EXPECT_FALSE(net.Get("http://a.sim/crl0.crl", kNow).ok());   // in scope
  EXPECT_TRUE(net.Get("http://a.sim/ocsp", kNow).ok());        // other path
  EXPECT_TRUE(net.Get("http://b.sim/crl0.crl", kNow).ok());    // other host
  EXPECT_TRUE(net.Get("http://a.sim/crl0.crl", kNow + 100).ok());  // past end
  EXPECT_EQ(plan.injected(FaultKind::kOutage), 1u);
  EXPECT_EQ(plan.total_injected(), 1u);
}

TEST(FaultPlan, FlapFollowsTheSquareWave) {
  SimNet net;
  net.AddHost("f.sim", Hello());
  FaultPlan plan(5);
  FaultRule rule;
  rule.kind = FaultKind::kFlap;
  rule.up_seconds = 100;
  rule.down_seconds = 50;
  plan.AddRule(rule);
  net.SetFaultPlan(&plan);
  // Phase-locked to the epoch: up on [0,100), down on [100,150), repeat.
  EXPECT_TRUE(net.Get("http://f.sim/x", 0).ok());
  EXPECT_TRUE(net.Get("http://f.sim/x", 99).ok());
  EXPECT_FALSE(net.Get("http://f.sim/x", 100).ok());
  EXPECT_FALSE(net.Get("http://f.sim/x", 149).ok());
  EXPECT_TRUE(net.Get("http://f.sim/x", 150).ok());
  EXPECT_FALSE(net.Get("http://f.sim/x", 150 + 120).ok());
}

TEST(FaultPlan, ResponseMutations) {
  SimNet net;
  net.AddHost("f.sim", Hello(3600));
  const std::string clean = "hello:/x";

  {  // 5xx substitution carries the Retry-After hint and drops the body.
    FaultPlan plan(1);
    FaultRule rule;
    rule.kind = FaultKind::kHttpError;
    rule.http_status = 503;
    rule.retry_after = 30;
    plan.AddRule(rule);
    net.SetFaultPlan(&plan);
    const FetchResult result = net.Get("http://f.sim/x", kNow);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.response.status, 503);
    EXPECT_EQ(result.response.retry_after, 30);
    EXPECT_TRUE(result.response.body.empty());
    EXPECT_EQ(result.response.max_age, 0);  // never cacheable
  }
  {  // Truncation keeps a prefix.
    FaultPlan plan(1);
    FaultRule rule;
    rule.kind = FaultKind::kTruncate;
    rule.keep_fraction = 0.5;
    plan.AddRule(rule);
    net.SetFaultPlan(&plan);
    const FetchResult result = net.Get("http://f.sim/x", kNow);
    EXPECT_TRUE(result.ok());  // transport says OK; only a parser can tell
    EXPECT_EQ(ToString(result.response.body), clean.substr(0, clean.size() / 2));
  }
  {  // Corruption flips bytes but preserves the length.
    FaultPlan plan(1);
    FaultRule rule;
    rule.kind = FaultKind::kCorrupt;
    rule.corrupt_bytes = 1;
    plan.AddRule(rule);
    net.SetFaultPlan(&plan);
    const FetchResult result = net.Get("http://f.sim/x", kNow);
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.response.body.size(), clean.size());
    EXPECT_NE(ToString(result.response.body), clean);
  }
  {  // Latency inflation can push a slow exchange over the timeout.
    FaultPlan plan(1);
    FaultRule rule;
    rule.kind = FaultKind::kLatency;
    rule.latency_factor = 1000.0;
    plan.AddRule(rule);
    net.SetFaultPlan(&plan);
    const FetchResult result = net.Get("http://f.sim/x", kNow, 10.0);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.error, FetchError::kTimeout);
    EXPECT_EQ(result.elapsed_seconds, 10.0);  // capped at the budget
  }
  net.SetFaultPlan(nullptr);
}

// --------------------------------------------------------------- retry ----

TEST(Retry, TransientErrorRecovers) {
  SimNet net;
  int calls = 0;
  net.AddHost("t.sim", [&](const HttpRequest&, util::Timestamp) {
    HttpResponse response;
    if (calls++ < 2) {
      response.status = 500;
    } else {
      response.body = ToBytes("finally");
    }
    return response;
  });
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_seconds = 1;
  policy.jitter = 0;
  const RetryResult result = GetWithRetry(net, "http://t.sim/x", kNow, policy);
  EXPECT_TRUE(result.ok());
  EXPECT_FALSE(result.gave_up);
  EXPECT_EQ(result.attempts, 3);
  EXPECT_EQ(ToString(result.fetch.response.body), "finally");
  EXPECT_DOUBLE_EQ(result.backoff_seconds, 1 + 2);  // 1s then 2s, jitter off
  // Each attempt hit the (virtual) wire.
  EXPECT_EQ(net.total_requests(), 3u);
}

TEST(Retry, ExhaustionGivesUpWithLastResult) {
  SimNet net;
  net.AddHost("down.sim", [](const HttpRequest&, util::Timestamp) {
    HttpResponse response;
    response.status = 503;
    return response;
  });
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_seconds = 1;
  policy.jitter = 0;
  const RetryResult result =
      GetWithRetry(net, "http://down.sim/x", kNow, policy);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.gave_up);
  EXPECT_EQ(result.attempts, 3);
  EXPECT_EQ(result.fetch.response.status, 503);
}

TEST(Retry, DnsFailureIsDefinitiveNotRetried) {
  SimNet net;
  net.AddHost("up.sim", Hello());
  net.SetDnsFailure("up.sim", true);
  RetryPolicy policy;
  policy.max_attempts = 5;
  const RetryResult result = GetWithRetry(net, "http://up.sim/x", kNow, policy);
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.gave_up);  // not exhausted — the error is permanent
  EXPECT_EQ(result.attempts, 1);
  EXPECT_EQ(result.fetch.error, FetchError::kDnsFailure);
}

// Regression: 501 Not Implemented and 505 HTTP Version Not Supported are
// 5xx codes that condemn the request *shape*, not the moment — retrying
// the identical request can never help. They must be terminal like 4xx,
// while their neighbors (500, 503) stay retryable.
TEST(Retry, NotImplementedAndVersionNotSupportedAreTerminal) {
  for (const int status : {501, 505}) {
    SimNet net;
    net.AddHost("shape.sim", [status](const HttpRequest&, util::Timestamp) {
      HttpResponse response;
      response.status = status;
      return response;
    });
    RetryPolicy policy;
    policy.max_attempts = 5;
    const RetryResult result =
        GetWithRetry(net, "http://shape.sim/x", kNow, policy);
    EXPECT_FALSE(result.ok());
    EXPECT_FALSE(result.gave_up) << status;  // definitive, not exhausted
    EXPECT_EQ(result.attempts, 1) << status;
    EXPECT_EQ(result.fetch.response.status, status);
    EXPECT_EQ(net.total_requests(), 1u) << status;
  }
  // The neighboring 5xx codes keep retrying as before.
  for (const int status : {500, 502, 503, 504}) {
    SimNet net;
    net.AddHost("busy.sim", [status](const HttpRequest&, util::Timestamp) {
      HttpResponse response;
      response.status = status;
      return response;
    });
    RetryPolicy policy;
    policy.max_attempts = 3;
    policy.initial_backoff_seconds = 1;
    policy.jitter = 0;
    const RetryResult result =
        GetWithRetry(net, "http://busy.sim/x", kNow, policy);
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(result.gave_up) << status;
    EXPECT_EQ(result.attempts, 3) << status;
  }
}

TEST(Retry, NonePolicyMakesExactlyOneAttempt) {
  SimNet net;
  net.AddHost("t.sim", [](const HttpRequest&, util::Timestamp) {
    HttpResponse response;
    response.status = 503;
    return response;
  });
  const RetryResult result =
      GetWithRetry(net, "http://t.sim/x", kNow, RetryPolicy::None());
  EXPECT_EQ(result.attempts, 1);
  EXPECT_TRUE(result.gave_up);
  EXPECT_EQ(net.total_requests(), 1u);
}

// Regression (docs/fault-injection.md): a retried fetch is ONE logical
// cache transaction — one miss, however many attempts the policy burns,
// and no hit/miss inflation on top.
TEST(CachingClient, RetriedFetchCountsExactlyOneMiss) {
  SimNet net;
  int calls = 0;
  net.AddHost("r.sim", [&](const HttpRequest&, util::Timestamp) {
    HttpResponse response;
    if (calls++ < 2) {
      response.status = 503;
    } else {
      response.body = ToBytes("fresh");
      response.max_age = 3600;
    }
    return response;
  });
  CachingClient client(&net);
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_seconds = 1;
  policy.jitter = 0;

  const CachingClient::Result result =
      client.Get("http://r.sim/x", kNow, policy);
  EXPECT_TRUE(result.fetch.ok());
  EXPECT_EQ(result.attempts, 3);
  EXPECT_EQ(client.misses(), 1u) << "retries must not inflate misses";
  EXPECT_EQ(client.hits(), 0u);
  // The retried result was cached normally; attempts==0 flags a cache hit.
  const CachingClient::Result cached =
      client.Get("http://r.sim/x", kNow + 10, policy);
  EXPECT_TRUE(cached.from_cache);
  EXPECT_EQ(cached.attempts, 0);
  EXPECT_EQ(client.hits(), 1u);
  EXPECT_EQ(client.misses(), 1u);
  // The cumulative cost of all three attempts is reported on the result.
  EXPECT_GT(result.fetch.elapsed_seconds, 3.0);  // two 1s+2s waits + wire
}

// -------------------------------------------- fetch observability ----------

TEST(SimNet, FetchStatusClassCountersTallyExactly) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& c2xx = registry.GetCounter("net.fetch{class=2xx}");
  obs::Counter& c4xx = registry.GetCounter("net.fetch{class=4xx}");
  obs::Counter& c5xx = registry.GetCounter("net.fetch{class=5xx}");
  obs::Counter& cerr = registry.GetCounter("net.fetch{class=err}");
  obs::Counter& cbytes = registry.GetCounter("net.fetch.bytes");
  const std::uint64_t base_2xx = c2xx.Value();
  const std::uint64_t base_4xx = c4xx.Value();
  const std::uint64_t base_5xx = c5xx.Value();
  const std::uint64_t base_err = cerr.Value();
  const std::uint64_t base_bytes = cbytes.Value();

  SimNet net;
  net.AddHost("classes.sim", [](const HttpRequest& request, util::Timestamp) {
    HttpResponse response;
    if (request.path == "/ok") {
      response.body = {'h', 'i'};
    } else if (request.path == "/missing") {
      response.status = 404;
    } else {
      response.status = 503;
    }
    return response;
  });

  std::uint64_t transferred = 0;
  const FetchResult ok = net.Get("http://classes.sim/ok", 1000);
  transferred += ok.bytes_transferred;
  const FetchResult ok2 = net.Get("http://classes.sim/ok", 1001);
  transferred += ok2.bytes_transferred;
  const FetchResult missing = net.Get("http://classes.sim/missing", 1002);
  transferred += missing.bytes_transferred;
  const FetchResult shed = net.Get("http://classes.sim/shed", 1003);
  transferred += shed.bytes_transferred;
  const FetchResult dns = net.Get("http://no-such-host.sim/", 1004);
  transferred += dns.bytes_transferred;
  ASSERT_EQ(dns.error, FetchError::kDnsFailure);

  EXPECT_EQ(c2xx.Value() - base_2xx, 2u);
  EXPECT_EQ(c4xx.Value() - base_4xx, 1u);
  EXPECT_EQ(c5xx.Value() - base_5xx, 1u);
  EXPECT_EQ(cerr.Value() - base_err, 1u);
  EXPECT_EQ(cbytes.Value() - base_bytes, transferred);
  EXPECT_GT(transferred, 0u);
}

TEST(SimNet, TraceparentRewritesPerExchangeAndRecordsSpan) {
  obs::DistTraceCollector& collector = obs::DistTraceCollector::Global();
  collector.Clear();
  collector.Enable();

  std::string seen_header;
  SimNet net;
  net.AddHost("traced.sim",
              [&](const HttpRequest& request, util::Timestamp) {
                const auto it = request.headers.find(obs::kTraceparentHeader);
                if (it != request.headers.end()) seen_header = it->second;
                return HttpResponse{};
              });

  const obs::TraceId trace = obs::MakeTraceId(0x7E57, 1);
  const obs::SpanContext root{trace, obs::RootSpanId(trace)};
  HttpRequest request;
  request.host = "traced.sim";
  request.path = "/";
  request.headers[obs::kTraceparentHeader] = obs::FormatTraceparent(root);
  const FetchResult result = net.Fetch(request, 2000);
  collector.Disable();
  ASSERT_TRUE(result.ok());

  // The wire header is rewritten per exchange: same trace, new span id, so
  // server-side spans parent under the hop that carried them.
  ASSERT_FALSE(seen_header.empty());
  EXPECT_NE(seen_header, request.headers[obs::kTraceparentHeader]);
  obs::SpanContext on_wire;
  ASSERT_TRUE(obs::ParseTraceparent(seen_header, &on_wire));
  EXPECT_EQ(on_wire.trace.hi, trace.hi);
  EXPECT_EQ(on_wire.trace.lo, trace.lo);
  EXPECT_NE(on_wire.span, root.span);

  const auto spans = collector.SnapshotTrace(trace);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "net.exchange");
  EXPECT_STREQ(spans[0].node, "traced.sim");
  EXPECT_EQ(spans[0].span, on_wire.span);
  EXPECT_EQ(spans[0].parent, root.span);
  EXPECT_EQ(spans[0].kind, obs::SpanKind::kClient);
  EXPECT_EQ(spans[0].status, 200);
  EXPECT_EQ(spans[0].start_ns, obs::VirtualNs(2000, 0));
  EXPECT_EQ(spans[0].end_ns, obs::VirtualNs(2000, result.elapsed_seconds));
  collector.Clear();
}

TEST(SimNet, LocalSpanNeverReachesTheWire) {
  obs::DistTraceCollector& collector = obs::DistTraceCollector::Global();
  collector.Clear();
  collector.Enable();

  bool saw_traceparent = false;
  SimNet net;
  net.AddHost("local.sim", [&](const HttpRequest& request, util::Timestamp) {
    saw_traceparent = request.headers.count(obs::kTraceparentHeader) > 0;
    return HttpResponse{};
  });
  HttpRequest request;
  request.host = "local.sim";
  request.path = "/";
  {
    obs::Span span("test.local");
    ASSERT_TRUE(net.Fetch(request, 2000).ok());
  }
  collector.Disable();

  // An untraced fetch stays untraced inside a wall-clock span: no header
  // on the wire and no virtual-clock exchange span.
  EXPECT_FALSE(saw_traceparent);
  const auto spans = collector.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "test.local");
  EXPECT_EQ(spans[0].clock, obs::SpanClock::kWall);
  collector.Clear();
}

TEST(SimNet, TracedFetchInsideLocalSpanStaysOnVirtualClock) {
  obs::DistTraceCollector& collector = obs::DistTraceCollector::Global();
  collector.Clear();
  collector.Enable();

  SimNet net;
  net.AddHost("traced.sim", [](const HttpRequest&, util::Timestamp) {
    return HttpResponse{};
  });
  const obs::TraceId trace = obs::MakeTraceId(0x7E57, 3);
  const obs::SpanContext root{trace, obs::RootSpanId(trace)};
  HttpRequest request;
  request.host = "traced.sim";
  request.path = "/";
  request.headers[obs::kTraceparentHeader] = obs::FormatTraceparent(root);
  {
    obs::Span span("test.local");
    ASSERT_TRUE(net.Fetch(request, 2000).ok());
  }
  collector.Disable();

  const auto traced = collector.SnapshotTrace(trace);
  ASSERT_EQ(traced.size(), 1u);
  EXPECT_STREQ(traced[0].name, "net.exchange");
  for (const auto& span : traced)
    EXPECT_EQ(span.clock, obs::SpanClock::kVirtual) << span.name;
  // The local span is a trace of its own.
  const auto all = collector.Snapshot();
  ASSERT_EQ(all.size(), 2u);
  for (const auto& span : all) {
    if (std::string_view(span.name) != "test.local") continue;
    EXPECT_NE(span.trace, trace);
    EXPECT_EQ(span.clock, obs::SpanClock::kWall);
  }
  collector.Clear();
}

TEST(Retry, AttemptAndBackoffSpansCoverTheLadder) {
  obs::DistTraceCollector& collector = obs::DistTraceCollector::Global();
  collector.Clear();
  collector.Enable();

  int calls = 0;
  SimNet net;
  net.AddHost("flaky.sim", [&](const HttpRequest&, util::Timestamp) {
    HttpResponse response;
    if (++calls < 3) response.status = 503;
    return response;
  });

  const obs::TraceId trace = obs::MakeTraceId(0x7E57, 2);
  const obs::SpanContext root{trace, obs::RootSpanId(trace)};
  HttpRequest request;
  request.host = "flaky.sim";
  request.path = "/";
  request.headers[obs::kTraceparentHeader] = obs::FormatTraceparent(root);
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.jitter = 0;
  const RetryResult result = net::FetchWithRetry(net, request, 3000, policy);
  collector.Disable();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.attempts, 3);

  std::size_t attempts = 0, backoffs = 0, exchanges = 0;
  const auto spans = collector.SnapshotTrace(trace);
  // Exchanges are recorded before their enclosing attempt span closes, so
  // collect the attempt ids up front.
  std::vector<std::uint64_t> attempt_ids;
  for (const auto& span : spans)
    if (std::string_view(span.name) == "net.attempt")
      attempt_ids.push_back(span.span);
  for (const auto& span : spans) {
    if (std::string_view(span.name) == "net.attempt") {
      ++attempts;
      EXPECT_EQ(span.parent, root.span);
    } else if (std::string_view(span.name) == "net.backoff") {
      ++backoffs;
      EXPECT_EQ(span.parent, root.span);
      EXPECT_GT(span.end_ns, span.start_ns);  // the wait has real width
    } else if (std::string_view(span.name) == "net.exchange") {
      ++exchanges;
      // Every exchange hangs off one of the attempt spans.
      bool under_attempt = false;
      for (const std::uint64_t id : attempt_ids)
        if (span.parent == id) under_attempt = true;
      EXPECT_TRUE(under_attempt);
    }
  }
  EXPECT_EQ(attempts, 3u);   // one per wire attempt
  EXPECT_EQ(backoffs, 2u);   // one per wait between attempts
  EXPECT_EQ(exchanges, 3u);  // each attempt carried one exchange
  collector.Clear();
}

}  // namespace
}  // namespace rev::net
