// Observability tests: counter/gauge/histogram exactness under concurrent
// writers, local span nesting and capacity accounting, the DumpJson()
// schema round-trip (parsed with a minimal JSON reader below), the
// `GET /metrics` exposition over SimNet, and the monotonic-counter
// regression for the caches. `ObsStress.*` is the target scripts/ci.sh runs
// under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/cache.h"
#include "net/simnet.h"
#include "obs/distrace.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "ocsp/ocsp.h"
#include "ocsp/responder.h"
#include "serve/frontend.h"
#include "util/thread_pool.h"
#include "x509/name.h"

namespace rev::obs {
namespace {

// ------------------------------------------------- minimal JSON reader ----
// Just enough JSON to round-trip the DumpJson() schemas:
// objects, arrays, strings with escapes, numbers, literals.

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const {
    static const JsonValue missing;
    auto it = object.find(key);
    return it == object.end() ? missing : it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue& out) {
    return ParseValue(out) && (SkipSpace(), pos_ == text_.size());
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool ParseValue(JsonValue& out) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return ParseObject(out);
      case '[': return ParseArray(out);
      case '"': out.type = JsonValue::Type::kString;
                return ParseString(out.string);
      case 't': out.type = JsonValue::Type::kBool; out.boolean = true;
                return Literal("true");
      case 'f': out.type = JsonValue::Type::kBool; out.boolean = false;
                return Literal("false");
      case 'n': out.type = JsonValue::Type::kNull; return Literal("null");
      default:  return ParseNumber(out);
    }
  }

  bool Literal(const char* lit) {
    const std::size_t n = std::string_view(lit).size();
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  bool ParseNumber(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) return false;
    out.type = JsonValue::Type::kNumber;
    out.number = std::stod(text_.substr(start, pos_ - start));
    return true;
  }

  bool ParseString(std::string& out) {
    if (!Consume('"')) return false;
    out.clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': pos_ += 4; c = '?'; break;  // good enough for our ASCII
          default: c = esc; break;
        }
      }
      out.push_back(c);
    }
    return pos_ < text_.size() && text_[pos_++] == '"';
  }

  bool ParseArray(JsonValue& out) {
    if (!Consume('[')) return false;
    out.type = JsonValue::Type::kArray;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') { ++pos_; return true; }
    while (true) {
      JsonValue element;
      if (!ParseValue(element)) return false;
      out.array.push_back(std::move(element));
      if (Consume(',')) continue;
      return Consume(']');
    }
  }

  bool ParseObject(JsonValue& out) {
    if (!Consume('{')) return false;
    out.type = JsonValue::Type::kObject;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') { ++pos_; return true; }
    while (true) {
      std::string key;
      SkipSpace();
      if (!ParseString(key) || !Consume(':')) return false;
      JsonValue value;
      if (!ParseValue(value)) return false;
      out.object.emplace(std::move(key), std::move(value));
      if (Consume(',')) continue;
      return Consume('}');
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// Value of `name value` in a DumpText() exposition; dies if absent.
std::uint64_t ExpositionValue(const std::string& text,
                              const std::string& name) {
  const std::string prefix = name + " ";
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view line(text.data() + pos,
                                (eol == std::string::npos ? text.size() : eol) -
                                    pos);
    if (line.substr(0, prefix.size()) == prefix) {
      return std::stoull(std::string(line.substr(prefix.size())));
    }
    if (eol == std::string::npos) break;
    pos = eol + 1;
  }
  ADD_FAILURE() << "instrument not in exposition: " << name;
  return ~0ull;
}

// ---------------------------------------------------------- instruments ----

TEST(Metrics, CounterExactUnderConcurrentWriters) {
  Counter& counter =
      MetricsRegistry::Global().GetCounter("test.counter_exact");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kOps = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kOps; ++i) counter.Increment();
      counter.Add(5);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), kThreads * (kOps + 5));
}

TEST(Metrics, GaugeMovesBothWays) {
  Gauge& gauge = MetricsRegistry::Global().GetGauge("test.gauge");
  gauge.Add(10);
  gauge.Sub(4);
  EXPECT_EQ(gauge.Value(), 6);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < 1000; ++i) {
        gauge.Add(3);
        gauge.Sub(3);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(gauge.Value(), 6);  // balanced adds cancel exactly
  gauge.Set(42);
  EXPECT_EQ(gauge.Value(), 42);
}

TEST(Metrics, HistogramBucketsMinMaxQuantiles) {
  Histogram& histogram =
      MetricsRegistry::Global().GetHistogram("test.histogram_buckets");
  histogram.Record(0);
  histogram.Record(1);
  histogram.Record(7);    // bit_width 3 -> bucket 3 ([4,7])
  histogram.Record(8);    // bit_width 4 -> bucket 4 ([8,15])
  histogram.Record(1000);

  const HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.sum, 1016u);
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, 1000u);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[3], 1u);
  EXPECT_EQ(snap.buckets[4], 1u);
  EXPECT_EQ(snap.buckets[10], 1u);  // 1000 in [512,1023]
  EXPECT_DOUBLE_EQ(snap.Mean(), 1016.0 / 5.0);
  // Quantiles are monotone and bounded by the observed range.
  EXPECT_LE(snap.Quantile(0.5), snap.Quantile(0.99));
  EXPECT_LE(snap.Quantile(0.99), 1024.0);
  EXPECT_EQ(HistogramSnapshot::BucketLowerBound(4), 8u);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(4), 15u);
}

TEST(Metrics, HistogramExactTotalsUnderConcurrentWriters) {
  Histogram& histogram =
      MetricsRegistry::Global().GetHistogram("test.histogram_threads");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kOps = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (std::uint64_t i = 0; i < kOps; ++i)
        histogram.Record(static_cast<std::uint64_t>(t) * kOps + i);
    });
  }
  for (auto& thread : threads) thread.join();

  const HistogramSnapshot snap = histogram.Snapshot();
  constexpr std::uint64_t kTotal = kThreads * kOps;
  EXPECT_EQ(snap.count, kTotal);
  EXPECT_EQ(snap.sum, kTotal * (kTotal - 1) / 2);
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, kTotal - 1);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, kTotal);
}

TEST(Metrics, RegistryReturnsSameInstrumentForSameName) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& a = registry.GetCounter("test.same_name");
  Counter& b = registry.GetCounter("test.same_name");
  EXPECT_EQ(&a, &b);
  // Labelled variants are distinct instruments.
  Counter& labelled = registry.GetCounter("test.same_name{shard=1}");
  EXPECT_NE(&a, &labelled);
  const std::size_t count = registry.InstrumentCount();
  registry.GetCounter("test.same_name");  // re-get: no new instrument
  EXPECT_EQ(registry.InstrumentCount(), count);
}

TEST(Metrics, DumpJsonRoundTrip) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test.json_counter").Add(12345);
  registry.GetGauge("test.json_gauge").Set(-7);
  Histogram& histogram = registry.GetHistogram("test.json_histogram");
  histogram.Record(100);
  histogram.Record(200);

  JsonValue doc;
  ASSERT_TRUE(JsonParser(registry.DumpJson()).Parse(doc))
      << "DumpJson() is not valid JSON";
  ASSERT_EQ(doc.type, JsonValue::Type::kObject);

  bool found_counter = false;
  for (const JsonValue& counter : doc.at("counters").array) {
    if (counter.at("name").string == "test.json_counter") {
      found_counter = true;
      EXPECT_EQ(counter.at("value").number, 12345);
    }
  }
  EXPECT_TRUE(found_counter);

  bool found_gauge = false;
  for (const JsonValue& gauge : doc.at("gauges").array) {
    if (gauge.at("name").string == "test.json_gauge") {
      found_gauge = true;
      EXPECT_EQ(gauge.at("value").number, -7);
    }
  }
  EXPECT_TRUE(found_gauge);

  bool found_histogram = false;
  for (const JsonValue& hist : doc.at("histograms").array) {
    if (hist.at("name").string != "test.json_histogram") continue;
    found_histogram = true;
    EXPECT_EQ(hist.at("count").number, 2);
    EXPECT_EQ(hist.at("sum").number, 300);
    EXPECT_EQ(hist.at("min").number, 100);
    EXPECT_EQ(hist.at("max").number, 200);
    // The bucket counts must add back up to the total count.
    double bucket_total = 0;
    for (const JsonValue& bucket : hist.at("buckets").array)
      bucket_total += bucket.at("count").number;
    EXPECT_EQ(bucket_total, 2);
  }
  EXPECT_TRUE(found_histogram);
}

// ---------------------------------------------------------------- spans ----

// Spans named `name`, from a snapshot of the one collector.
std::vector<DistSpan> SpansNamed(const char* name) {
  std::vector<DistSpan> out;
  for (const DistSpan& span : DistTraceCollector::Global().Snapshot())
    if (std::string_view(span.name) == name) out.push_back(span);
  return out;
}

TEST(Trace, SpanNestingSetsParentIds) {
  DistTraceCollector& collector = DistTraceCollector::Global();
  collector.Clear();
  collector.Enable();
  {
    Span outer("test.outer");
    {
      Span middle("test.middle");
      Span inner("test.inner");
    }
  }
  collector.Disable();

  ASSERT_EQ(collector.size(), 3u);
  const std::vector<DistSpan> outer = SpansNamed("test.outer");
  const std::vector<DistSpan> middle = SpansNamed("test.middle");
  const std::vector<DistSpan> inner = SpansNamed("test.inner");
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(middle.size(), 1u);
  ASSERT_EQ(inner.size(), 1u);
  EXPECT_EQ(outer[0].parent, 0u);
  EXPECT_EQ(middle[0].parent, outer[0].span);
  EXPECT_EQ(inner[0].parent, middle[0].span);
  EXPECT_STREQ(outer[0].node, inner[0].node);
  EXPECT_EQ(std::string_view(outer[0].node).substr(0, 7), "thread-");
  for (const DistSpan* span : {&middle[0], &inner[0]}) {
    EXPECT_EQ(span->trace, outer[0].trace);
    // Children start no earlier and end no later than the root.
    EXPECT_GE(span->start_ns, outer[0].start_ns);
    EXPECT_LE(span->end_ns, outer[0].end_ns);
  }
  for (const DistSpan* span : {&outer[0], &middle[0], &inner[0]}) {
    EXPECT_EQ(span->clock, SpanClock::kWall);
    EXPECT_EQ(span->kind, SpanKind::kInternal);
  }

  // The next top-level span starts a new trace.
  collector.Enable();
  { Span next("test.next"); }
  collector.Disable();
  const std::vector<DistSpan> next = SpansNamed("test.next");
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].parent, 0u);
  EXPECT_NE(next[0].trace, outer[0].trace);
  collector.Clear();
}

TEST(Trace, OverflowStoresCapacityAndCountsDropped) {
  DistTraceCollector& collector = DistTraceCollector::Global();
  collector.Clear();
  collector.Enable();
  for (std::size_t i = 0; i < DistTraceCollector::kCapacity + 12; ++i)
    Span span("test.overflow");
  collector.Disable();

  EXPECT_EQ(collector.size(), DistTraceCollector::kCapacity);
  EXPECT_EQ(collector.dropped(), 12u);
  collector.Clear();
  EXPECT_EQ(collector.size(), 0u);
  EXPECT_EQ(collector.dropped(), 0u);
}

TEST(Trace, DumpJsonCarriesWallClock) {
  DistTraceCollector& collector = DistTraceCollector::Global();
  collector.Clear();
  collector.Enable();
  { Span span("test.export"); }
  { Span span("test.export"); }
  collector.Disable();

  JsonValue doc;
  ASSERT_TRUE(JsonParser(collector.DumpJson()).Parse(doc))
      << "DumpJson() is not valid JSON";
  const JsonValue& spans = doc.at("spans");
  ASSERT_EQ(spans.type, JsonValue::Type::kArray);
  ASSERT_EQ(spans.array.size(), 2u);
  for (const JsonValue& span : spans.array) {
    EXPECT_EQ(span.at("name").string, "test.export");
    EXPECT_EQ(span.at("clock").string, "wall");
    EXPECT_EQ(span.at("kind").string, "internal");
    EXPECT_GE(span.at("dur_ns").number, 0);
  }
  EXPECT_EQ(doc.at("dropped").type, JsonValue::Type::kNumber);
  EXPECT_EQ(doc.at("dropped").number, 0);
  collector.Clear();
}

TEST(Trace, DisabledSpanRecordsNothing) {
  DistTraceCollector& collector = DistTraceCollector::Global();
  collector.Disable();
  collector.Clear();
  { Span span("test.disabled"); }
  EXPECT_EQ(collector.size(), 0u);
  EXPECT_EQ(collector.dropped(), 0u);

  // A span opened while disabled is no parent: a span opened inside it
  // after enabling starts its own trace.
  {
    Span disabled("test.disabled");
    collector.Enable();
    Span enabled("test.enabled");
  }
  collector.Disable();
  const std::vector<DistSpan> enabled = SpansNamed("test.enabled");
  ASSERT_EQ(enabled.size(), 1u);
  EXPECT_EQ(enabled[0].parent, 0u);
  EXPECT_TRUE(SpansNamed("test.disabled").empty());
  collector.Clear();
}

TEST(Trace, ParallelForWorkersKeepTracesOnOneClock) {
  DistTraceCollector& collector = DistTraceCollector::Global();
  collector.Clear();
  collector.Enable();
  util::ThreadPool pool(8);
  pool.ParallelFor(64, [&collector](std::size_t i) {
    Span task("test.task");
    Span step("test.step");
    { Span leaf("test.leaf"); }
    // A virtual-clock span recorded under open local spans stays in its
    // own trace: local context never leaks into virtual traces.
    DistSpan sim;
    sim.trace = MakeTraceId(0x51A1, i);
    sim.span = RootSpanId(sim.trace);
    sim.name = "test.sim";
    sim.node = "sim-node";
    sim.start_ns = VirtualNs(1000, 0);
    sim.end_ns = VirtualNs(1000, 0.5);
    collector.Record(sim);
  });
  collector.Disable();

  const std::vector<DistSpan> spans = collector.Snapshot();
  std::map<std::uint64_t, const DistSpan*> by_id;
  std::map<TraceId, std::set<SpanClock>> clocks_of;
  for (const DistSpan& span : spans) {
    by_id[span.span] = &span;
    clocks_of[span.trace].insert(span.clock);
  }
  EXPECT_EQ(SpansNamed("test.task").size(), 64u);
  EXPECT_EQ(SpansNamed("test.leaf").size(), 64u);
  EXPECT_EQ(SpansNamed("test.sim").size(), 64u);
  std::size_t children = 0;
  for (const DistSpan& span : spans) {
    if (span.parent == 0) continue;
    ++children;
    const auto parent = by_id.find(span.parent);
    ASSERT_NE(parent, by_id.end()) << span.name;
    EXPECT_EQ(parent->second->trace, span.trace) << span.name;
    EXPECT_STREQ(parent->second->node, span.node) << span.name;
  }
  EXPECT_GE(children, 128u);  // every test.step and test.leaf
  for (const auto& [trace, clocks] : clocks_of)
    EXPECT_EQ(clocks.size(), 1u) << trace.Hex();
  collector.Clear();
}

// ------------------------------------------------------ serve exposition ----

constexpr util::Timestamp kNow = 1'412'208'000;  // 2014-10-02

x509::Certificate MakeIssuerCert() {
  x509::TbsCertificate tbs;
  tbs.serial = x509::Serial{0x31};
  tbs.issuer = tbs.subject = x509::Name::Make("Obs Test CA", "Test");
  tbs.not_before = 0;
  tbs.not_after = kNow + 100'000'000;
  tbs.public_key = crypto::SimKeyFromLabel("obs-issuer").Public();
  tbs.basic_constraints = {true, -1};
  return x509::SignCertificate(tbs, crypto::SimKeyFromLabel("obs-issuer"));
}

Bytes EncodeRequestFor(const x509::Certificate& issuer,
                       const x509::Serial& serial) {
  ocsp::OcspRequest request;
  request.cert_ids = {ocsp::MakeCertId(issuer, serial)};
  return ocsp::EncodeOcspRequest(request);
}

TEST(ObsServe, MetricsEndpointOverSimNet) {
  const x509::Certificate issuer = MakeIssuerCert();
  ocsp::Responder responder(issuer, crypto::SimKeyFromLabel("obs-issuer"));
  responder.AddCertificate(x509::Serial{0x01});

  serve::Frontend frontend;
  frontend.AttachResponder(&responder);

  net::SimNet net;
  net.AddHost("ocsp.obs.test",
              [&](const net::HttpRequest& request, util::Timestamp now) {
                return frontend.HandleHttp(request, now);
              });

  // A served request, then the exposition must carry it under this
  // frontend's label.
  const net::FetchResult served =
      net.Post("http://ocsp.obs.test/",
               EncodeRequestFor(issuer, x509::Serial{0x01}), kNow);
  ASSERT_TRUE(served.ok());

  const net::FetchResult metrics =
      net.Get("http://ocsp.obs.test/metrics", kNow);
  ASSERT_TRUE(metrics.ok());
  const std::string text(metrics.response.body.begin(),
                         metrics.response.body.end());
  const std::string& label = frontend.metrics_label();
  EXPECT_EQ(ExpositionValue(text, "serve.requests{" + label + "}"), 1u);
  EXPECT_EQ(ExpositionValue(text, "serve.malformed{" + label + "}"), 0u);

  // /metrics is an exact path: any other GET is still an OCSP request (the
  // malformed ones get an OCSP error response, not a 404).
  const net::FetchResult other = net.Get("http://ocsp.obs.test/metricsX", kNow);
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other.response.body.empty());
  EXPECT_EQ(frontend.counters().malformed, 1u);
}

TEST(ObsStress, FrontendCountersMatchExpositionUnderLoad) {
  const x509::Certificate issuer = MakeIssuerCert();
  ocsp::Responder responder(issuer, crypto::SimKeyFromLabel("obs-issuer"));
  constexpr std::size_t kCerts = 64;
  for (std::size_t i = 0; i < kCerts; ++i)
    responder.AddCertificate(x509::Serial{0x40, static_cast<std::uint8_t>(i)});

  serve::Frontend frontend;
  frontend.AttachResponder(&responder);
  frontend.RebuildAll(kNow);

  std::vector<Bytes> requests;
  for (std::size_t i = 0; i < kCerts; ++i)
    requests.push_back(EncodeRequestFor(
        issuer, x509::Serial{0x40, static_cast<std::uint8_t>(i)}));

  constexpr int kThreads = 8;
  constexpr std::size_t kOps = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t op = 0; op < kOps; ++op) {
        const auto result =
            frontend.Serve(requests[(t * 31 + op) % kCerts], kNow);
        EXPECT_TRUE(result.body != nullptr);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // The struct accessor and the /metrics exposition read the same sharded
  // atomics; once writers have joined the two must agree exactly.
  const serve::Frontend::Counters counters = frontend.counters();
  EXPECT_EQ(counters.requests, kThreads * kOps);
  const std::string text = MetricsRegistry::Global().DumpText();
  const std::string& label = frontend.metrics_label();
  EXPECT_EQ(ExpositionValue(text, "serve.requests{" + label + "}"),
            counters.requests);
  EXPECT_EQ(ExpositionValue(text, "serve.cache_hits{" + label + "}"),
            counters.cache_hits);
  EXPECT_EQ(ExpositionValue(text, "serve.cache_misses{" + label + "}"),
            counters.cache_misses);
  EXPECT_EQ(ExpositionValue(text, "serve.shed{" + label + "}"), counters.shed);
  EXPECT_EQ(counters.cache_hits + counters.cache_misses +
                counters.cache_expired + counters.shed,
            counters.requests);

  // The latency histogram saw every non-shed request.
  const HistogramSnapshot latency =
      MetricsRegistry::Global()
          .GetHistogram("serve.latency_ns", frontend.metrics_label())
          .Snapshot();
  EXPECT_EQ(latency.count, counters.requests - counters.shed);
}

// ------------------------------------------------- monotonic regression ----

TEST(Monotonic, CachingClientCountersNeverDecrease) {
  net::SimNet net;
  net.AddHost("crl.obs.test",
              [](const net::HttpRequest&, util::Timestamp) {
                net::HttpResponse response;
                response.body = Bytes{0x01, 0x02};
                response.max_age = 100;
                return response;
              });
  net::CachingClient client(&net);

  std::uint64_t last_hits = 0, last_misses = 0, last_evictions = 0;
  const auto check_monotonic = [&] {
    EXPECT_GE(client.hits(), last_hits);
    EXPECT_GE(client.misses(), last_misses);
    EXPECT_GE(client.evictions(), last_evictions);
    last_hits = client.hits();
    last_misses = client.misses();
    last_evictions = client.evictions();
  };

  client.Get("http://crl.obs.test/a.crl", 1000);  // miss
  check_monotonic();
  EXPECT_EQ(client.misses(), 1u);
  client.Get("http://crl.obs.test/a.crl", 1050);  // hit
  check_monotonic();
  EXPECT_EQ(client.hits(), 1u);
  client.Get("http://crl.obs.test/a.crl", 2000);  // expired -> evict + miss
  check_monotonic();
  EXPECT_EQ(client.evictions(), 1u);
  EXPECT_EQ(client.misses(), 2u);
  client.PruneExpired(5000);  // sweep adds, never resets
  check_monotonic();
  client.Clear();  // dropping entries must not touch the tallies
  check_monotonic();
  EXPECT_EQ(client.misses(), 2u);
}

TEST(Monotonic, ResponseCacheCountersSurviveRefreshAndEpochSwap) {
  const x509::Certificate issuer = MakeIssuerCert();
  ocsp::Responder responder(issuer, crypto::SimKeyFromLabel("obs-issuer"));
  responder.AddCertificate(x509::Serial{0x05});
  responder.AddCertificate(x509::Serial{0x06});

  serve::Frontend frontend;
  frontend.AttachResponder(&responder);
  frontend.RebuildAll(kNow);

  // The frontend's cache_* counters are the cache's only outcome tallies.
  std::uint64_t last_hits = 0, last_misses = 0, last_expired = 0;
  const auto check_monotonic = [&] {
    const serve::Frontend::Counters counters = frontend.counters();
    EXPECT_GE(counters.cache_hits, last_hits);
    EXPECT_GE(counters.cache_misses, last_misses);
    EXPECT_GE(counters.cache_expired, last_expired);
    last_hits = counters.cache_hits;
    last_misses = counters.cache_misses;
    last_expired = counters.cache_expired;
  };

  const Bytes request = EncodeRequestFor(issuer, x509::Serial{0x05});
  frontend.Serve(request, kNow);  // precomputed -> hit
  check_monotonic();
  EXPECT_EQ(frontend.counters().cache_hits, 1u);

  // Maintenance re-sign: tallies keep counting up across the batch swap.
  frontend.RefreshStale(kNow + 1);
  frontend.Serve(request, kNow + 1);
  check_monotonic();
  EXPECT_EQ(frontend.counters().cache_hits, 2u);

  // An epoch swap (revocation applied through the observer) invalidates the
  // entry — the next lookup is a miss, and nothing ever decreases.
  responder.Revoke(x509::Serial{0x05}, kNow + 2,
                   x509::ReasonCode::kKeyCompromise);
  frontend.Serve(request, kNow + 3);
  check_monotonic();
  EXPECT_EQ(frontend.counters().cache_misses, 1u);
}

// ------------------------------------------------- distributed tracing ----

TEST(DistTrace, InternNameStableAcrossThreads) {
  // The regression this pins: span names used to require string
  // literals; dynamic names (e.g. "replica-3.fleet.sim") must intern to
  // one stable pointer, no matter which thread interns first.
  constexpr int kThreads = 8;
  std::vector<const char*> seen(kThreads * 2);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&seen, t] {
      const std::string dynamic = "obs.intern." + std::string("dynamic");
      seen[t * 2] = InternName(dynamic);
      seen[t * 2 + 1] = InternName("obs.intern.dynamic");
    });
  }
  for (auto& thread : threads) thread.join();
  for (const char* p : seen) {
    EXPECT_EQ(p, seen[0]);
    EXPECT_STREQ(p, "obs.intern.dynamic");
  }
  // Interning again later (different backing string) still dedupes.
  EXPECT_EQ(InternName(std::string("obs.intern.") + "dynamic"), seen[0]);
}

TEST(DistTrace, TraceparentRoundTrip) {
  const TraceId trace = MakeTraceId(0xDEAD, 0xBEEF);
  const SpanContext context{trace, RootSpanId(trace)};
  const std::string header = FormatTraceparent(context);
  EXPECT_EQ(header.size(), 55u);  // "00-" + 32 + "-" + 16 + "-01"
  SpanContext parsed;
  ASSERT_TRUE(ParseTraceparent(header, &parsed));
  EXPECT_EQ(parsed.trace.hi, context.trace.hi);
  EXPECT_EQ(parsed.trace.lo, context.trace.lo);
  EXPECT_EQ(parsed.span, context.span);

  SpanContext reject;
  EXPECT_FALSE(ParseTraceparent("", &reject));
  EXPECT_FALSE(ParseTraceparent("garbage", &reject));
  EXPECT_FALSE(ParseTraceparent(header.substr(0, 54), &reject));
  std::string bad_hex = header;
  bad_hex[5] = 'z';
  EXPECT_FALSE(ParseTraceparent(bad_hex, &reject));
}

TEST(DistTrace, IdDerivationIsPure) {
  const TraceId a = MakeTraceId(1, 2);
  EXPECT_EQ(a.hi, MakeTraceId(1, 2).hi);
  EXPECT_EQ(a.lo, MakeTraceId(1, 2).lo);
  EXPECT_TRUE(a.valid());
  const TraceId b = MakeTraceId(1, 3);
  EXPECT_TRUE(a.hi != b.hi || a.lo != b.lo);

  const SpanContext root{a, RootSpanId(a)};
  EXPECT_EQ(DeriveSpanId(root, 42), DeriveSpanId(root, 42));
  EXPECT_NE(DeriveSpanId(root, 42), DeriveSpanId(root, 43));
  EXPECT_NE(DeriveSpanId(root, 42), root.span);
}

TEST(DistTrace, CriticalPathTilesHedgedTrace) {
  // A hand-built hedged request: the losing leg spans the whole window,
  // the winning hedge overlaps its tail. The extractor must tile the
  // root's window exactly — segments sum to the root duration with no
  // gaps — attributing overlap to the latest-ending deepest span.
  const TraceId trace = MakeTraceId(7, 7);
  std::vector<DistSpan> spans;
  DistSpan root;
  root.trace = trace;
  root.span = 1;
  root.parent = 0;
  root.name = "fleet.query";
  root.node = "client";
  root.start_ns = 1'000;
  root.end_ns = 2'000;
  spans.push_back(root);
  DistSpan losing = root;
  losing.span = 2;
  losing.parent = 1;
  losing.name = "fleet.attempt";
  losing.start_ns = 1'000;
  losing.end_ns = 2'000;
  spans.push_back(losing);
  DistSpan exchange = losing;
  exchange.span = 3;
  exchange.parent = 2;
  exchange.name = "net.exchange";
  exchange.start_ns = 1'100;
  exchange.end_ns = 1'900;
  spans.push_back(exchange);
  DistSpan hedge = root;
  hedge.span = 4;
  hedge.parent = 1;
  hedge.name = "fleet.hedge";
  hedge.start_ns = 1'600;
  hedge.end_ns = 1'950;
  spans.push_back(hedge);

  const std::vector<PathSegment> path = CriticalPath(spans);
  ASSERT_FALSE(path.empty());
  std::uint64_t total = 0;
  std::uint64_t cursor = root.start_ns;
  for (const PathSegment& segment : path) {
    EXPECT_EQ(segment.start_ns, cursor);  // gap-free tiling, in order
    EXPECT_GE(segment.end_ns, segment.start_ns);
    cursor = segment.end_ns;
    total += segment.dur_ns();
  }
  EXPECT_EQ(cursor, root.end_ns);
  EXPECT_EQ(total, root.end_ns - root.start_ns);
}

TEST(DistTrace, CollectorRoundTripsThroughDumpJson) {
  DistTraceCollector& collector = DistTraceCollector::Global();
  collector.Clear();
  collector.Enable();
  const TraceId trace = MakeTraceId(11, 12);
  DistSpan span;
  span.trace = trace;
  span.span = RootSpanId(trace);
  span.parent = 0;
  span.name = InternName("obs.dump.root");
  span.node = InternName("node-a");
  span.kind = SpanKind::kClient;
  span.status = 200;
  span.start_ns = 5'000;
  span.end_ns = 9'000;
  collector.Record(span);
  collector.Disable();

  const std::string json = DistTraceCollector::DumpJson({span});
  JsonValue parsed;
  ASSERT_TRUE(JsonParser(json).Parse(parsed)) << json;
  const auto& spans = parsed.at("spans").array;
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].at("trace").string, trace.Hex());
  EXPECT_EQ(spans[0].at("name").string, "obs.dump.root");
  EXPECT_EQ(spans[0].at("node").string, "node-a");
  EXPECT_EQ(spans[0].at("kind").string, "client");
  EXPECT_EQ(spans[0].at("dur_ns").number, 4'000);

  const auto snap = collector.SnapshotTrace(trace);
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].span, span.span);
  collector.Clear();
}

// ------------------------------------------------------------ exemplars ----

TEST(Metrics, HistogramExemplarTagsBucketAndSurvivesJson) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Histogram& histogram =
      registry.GetHistogram("test.exemplar_histogram");
  const Exemplar first{0xAAAA, 0xBBBB};
  const Exemplar second{0xCCCC, 0xDDDD};
  histogram.Record(1);                          // bucket 1, no exemplar
  histogram.RecordWithExemplar(1000, first);    // bucket 10
  histogram.RecordWithExemplar(1001, second);   // same bucket: newest wins

  const HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_FALSE(snap.exemplars[1].valid());
  ASSERT_TRUE(snap.exemplars[10].valid());
  EXPECT_EQ(snap.exemplars[10].trace_hi, second.trace_hi);
  EXPECT_EQ(snap.exemplars[10].trace_lo, second.trace_lo);
  EXPECT_EQ(snap.exemplars[10].Hex(), "000000000000cccc000000000000dddd");

  // Exemplars survive the JSON exposition round trip...
  MetricsSnapshot parsed;
  ASSERT_TRUE(ParseMetricsJson(registry.DumpJson(), &parsed));
  const HistogramSnapshot* round = nullptr;
  for (const auto& h : parsed.histograms)
    if (h.name == "test.exemplar_histogram") round = &h.snapshot;
  ASSERT_NE(round, nullptr);
  EXPECT_EQ(round->count, snap.count);
  ASSERT_TRUE(round->exemplars[10].valid());
  EXPECT_EQ(round->exemplars[10].Hex(), snap.exemplars[10].Hex());

  // ...and through a merge: a valid source exemplar replaces the target's.
  MetricsSnapshot merged;
  MergeSnapshot(&merged, parsed);
  const HistogramSnapshot* merged_hist = nullptr;
  for (const auto& h : merged.histograms)
    if (h.name == "test.exemplar_histogram") merged_hist = &h.snapshot;
  ASSERT_NE(merged_hist, nullptr);
  EXPECT_EQ(merged_hist->exemplars[10].Hex(), snap.exemplars[10].Hex());
}

// ------------------------------------------------------------- escaping ----

TEST(Metrics, ExpositionEscapesHostileLabelValues) {
  // Label values carrying the exposition's own delimiters — '"', '{',
  // '}' — must come back intact from DumpJson/ParseMetricsJson, and
  // DumpJson must stay machine-parseable.
  MetricsRegistry& registry = MetricsRegistry::Global();
  const std::string name = "test.escape{path=\"a{b}c\\\"d\"}";
  registry.GetCounter(name).Add(77);

  const std::string json = registry.DumpJson();
  JsonValue parsed_json;
  ASSERT_TRUE(JsonParser(json).Parse(parsed_json));

  MetricsSnapshot parsed;
  ASSERT_TRUE(ParseMetricsJson(json, &parsed));
  bool found = false;
  for (const auto& c : parsed.counters) {
    if (c.name == name) {
      found = true;
      EXPECT_EQ(c.value, 77);
    }
  }
  EXPECT_TRUE(found) << json;

  // The text exposition carries the name verbatim (it is line-, not
  // quote-delimited, so no escaping is needed there).
  EXPECT_EQ(ExpositionValue(registry.DumpText(), name), 77u);
}

// ------------------------------------------------------- SLO burn rates ----

TEST(Slo, BurnRateFiresInStormWindowsOnly) {
  const auto feed = [](SloMonitor& slo) {
    slo.AddObjective({.name = "availability",
                      .objective = 0.999,
                      .window_seconds = 60,
                      .short_windows = 1,
                      .long_windows = 3,
                      .burn_threshold = 4.0});
    // Five clean minutes, three stormy ones, two clean again.
    for (int w = 0; w < 5; ++w) slo.Record("availability", w * 60, 1000, 1000);
    for (int w = 5; w < 8; ++w) slo.Record("availability", w * 60, 900, 1000);
    for (int w = 8; w < 10; ++w)
      slo.Record("availability", w * 60, 1000, 1000);
  };
  SloMonitor slo;
  feed(slo);

  const std::vector<SloMonitor::Alert> alerts = slo.AlertTimeline();
  ASSERT_FALSE(alerts.empty());
  for (const SloMonitor::Alert& alert : alerts) {
    // Storm windows are [300, 480); the long (3-window) confirmation keeps
    // the clean windows on either side silent, and the short window makes
    // recovery immediate at window 8.
    EXPECT_GE(alert.window_start, 5 * 60);
    EXPECT_LT(alert.window_start, 8 * 60);
    EXPECT_GT(alert.short_burn, 4.0);
    EXPECT_GT(alert.long_burn, 4.0);
  }

  // The timeline is a pure function of the tallies: an identically fed
  // monitor serializes byte-identically.
  SloMonitor again;
  feed(again);
  EXPECT_EQ(slo.TimelineJson(), again.TimelineJson());
  EXPECT_NE(slo.TimelineJson().find("\"alert_timeline\""), std::string::npos);
}

TEST(Slo, UnknownObjectiveAndEmptyWindowsAreSilent) {
  SloMonitor slo;
  slo.AddObjective({.name = "latency", .objective = 0.99});
  slo.Record("nonexistent", 0, 0, 1000);  // ignored, not a crash
  EXPECT_TRUE(slo.AlertTimeline().empty());
  // Recording zero traffic never divides by zero or fires.
  slo.Record("latency", 0, 0, 0);
  EXPECT_TRUE(slo.AlertTimeline().empty());
}

// ---------------------------------------- exposition under concurrency ----

TEST(ObsStress, MetricsEndpointsConcurrentWithServe) {
  const x509::Certificate issuer = MakeIssuerCert();
  ocsp::Responder responder(issuer, crypto::SimKeyFromLabel("obs-issuer"));
  constexpr std::size_t kCerts = 32;
  for (std::size_t i = 0; i < kCerts; ++i)
    responder.AddCertificate(x509::Serial{0x60, static_cast<std::uint8_t>(i)});

  serve::Frontend frontend;
  frontend.AttachResponder(&responder);
  frontend.RebuildAll(kNow);

  // Every fourth request carries a nonce: hits are answered without an
  // admission slot, so only the nonced ones take one, and each writer's
  // own thread moves its shard's queue-depth gauge (Add on entry, Sub on
  // exit) while the scrapes read.
  std::vector<Bytes> bodies;
  for (std::size_t i = 0; i < kCerts; ++i) {
    ocsp::OcspRequest request;
    request.cert_ids = {ocsp::MakeCertId(
        issuer, x509::Serial{0x60, static_cast<std::uint8_t>(i)})};
    if (i % 4 == 0) request.nonce = Bytes{0x4E, static_cast<std::uint8_t>(i)};
    bodies.push_back(ocsp::EncodeOcspRequest(request));
  }

  // Writers hammer the serve path while readers scrape both expositions
  // through the same HandleHttp adapter — the TSan target for the scrape
  // path (ci.sh runs ObsStress.* under -fsanitize=thread).
  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr std::size_t kRounds = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < 8; ++i) {
          const auto result =
              frontend.Serve(bodies[(t * 13 + round + i) % kCerts], kNow);
          EXPECT_EQ(result.http_status, 200);
        }
      }
    });
  }
  std::atomic<std::uint64_t> scrapes{0};
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        net::HttpRequest text_request;
        text_request.method = "GET";
        text_request.path = "/metrics";
        const net::HttpResponse text = frontend.HandleHttp(text_request, kNow);
        EXPECT_EQ(text.status, 200);
        EXPECT_FALSE(text.body.empty());
        net::HttpRequest json_request;
        json_request.method = "GET";
        json_request.path = "/metrics.json";
        const net::HttpResponse json = frontend.HandleHttp(json_request, kNow);
        EXPECT_EQ(json.status, 200);
        MetricsSnapshot snapshot;
        EXPECT_TRUE(ParseMetricsJson(
            std::string_view(reinterpret_cast<const char*>(json.body.data()),
                             json.body.size()),
            &snapshot));
        scrapes.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(scrapes.load(), kReaders * kRounds);

  // Settled scrape agrees with the struct counters exactly.
  net::HttpRequest final_request;
  final_request.method = "GET";
  final_request.path = "/metrics.json";
  const net::HttpResponse final_json = frontend.HandleHttp(final_request, kNow);
  MetricsSnapshot snapshot;
  ASSERT_TRUE(ParseMetricsJson(
      std::string_view(reinterpret_cast<const char*>(final_json.body.data()),
                       final_json.body.size()),
      &snapshot));
  const std::string wanted = "serve.requests{" + frontend.metrics_label() + "}";
  bool found = false;
  for (const auto& c : snapshot.counters) {
    if (c.name == wanted) {
      found = true;
      EXPECT_EQ(static_cast<std::uint64_t>(c.value),
                frontend.counters().requests);
    }
  }
  EXPECT_TRUE(found);

  // Many threads wrote the depth gauges by Add/Sub: settled, each reads 0.
  const std::string depth_prefix =
      "serve.queue_depth{" + frontend.metrics_label() + ",shard=";
  std::size_t depth_gauges = 0;
  for (const auto& g : MetricsRegistry::Global().Snapshot().gauges) {
    if (g.name.rfind(depth_prefix, 0) != 0) continue;
    ++depth_gauges;
    EXPECT_EQ(g.value, 0) << g.name;
  }
  EXPECT_EQ(depth_gauges, frontend.index().num_shards());
}

}  // namespace
}  // namespace rev::obs
