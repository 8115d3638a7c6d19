#include "serve/frontend.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/hex.h"

namespace rev::serve {

namespace {

// Span-id salt for server-side request spans (child of the exchange span
// carried by the traceparent header).
constexpr std::uint64_t kServeSalt = 0x5E44E1F7ull;

// RefreshStale() re-signs entries going stale within this window.
constexpr std::int64_t kRefreshHeadroomSeconds = util::kSecondsPerDay;

// Records the frontend-side server span for a traced request. The
// simulated handler is instantaneous on the virtual clock (the cost model
// charges the exchange, not the handler), so the span is zero-duration:
// a causality marker carrying node + status, never a critical-path tile.
void RecordServerSpan(const obs::SpanContext& ctx, const char* name,
                      const char* node, int http_status, util::Timestamp now) {
  obs::DistSpan span;
  span.trace = ctx.trace;
  span.span = obs::DeriveSpanId(ctx, kServeSalt);
  span.parent = ctx.span;
  span.name = name;
  span.node = node;
  span.kind = obs::SpanKind::kServer;
  span.status = http_status;
  span.start_ns = obs::VirtualNs(now, 0);
  span.end_ns = span.start_ns;
  obs::DistTraceCollector::Global().Record(span);
}

}  // namespace

// Registry instruments, one set per frontend instance (label "frontend=N")
// so counters() stays exact when several frontends coexist. References are
// resolved once at construction; the hot path touches only lock-free
// sharded atomics.
struct Frontend::Instruments {
  explicit Instruments(
      std::string_view label,
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global())
      : requests(registry.GetCounter("serve.requests", label)),
        cache_hits(registry.GetCounter("serve.cache_hits", label)),
        cache_misses(registry.GetCounter("serve.cache_misses", label)),
        cache_expired(registry.GetCounter("serve.cache_expired", label)),
        signed_on_demand(registry.GetCounter("serve.signed_on_demand", label)),
        batch_signed(registry.GetCounter("serve.batch_signed", label)),
        refreshed(registry.GetCounter("serve.refreshed", label)),
        shed(registry.GetCounter("serve.shed", label)),
        malformed(registry.GetCounter("serve.malformed", label)),
        unauthorized(registry.GetCounter("serve.unauthorized", label)),
        staples(registry.GetCounter("serve.staples", label)),
        status_updates(registry.GetCounter("serve.status_updates", label)),
        latency_ns(registry.GetHistogram("serve.latency_ns", label)) {}

  obs::Counter& requests;
  obs::Counter& cache_hits;
  obs::Counter& cache_misses;
  obs::Counter& cache_expired;
  obs::Counter& signed_on_demand;
  obs::Counter& batch_signed;
  obs::Counter& refreshed;
  obs::Counter& shed;
  obs::Counter& malformed;
  obs::Counter& unauthorized;
  obs::Counter& staples;
  obs::Counter& status_updates;
  obs::Histogram& latency_ns;
};

// A status key (issuer key hash ‖ serial) in a fixed inline buffer when it
// fits — the common case, a 32-byte issuer hash plus a short serial — so
// the hot path never heap-allocates a key. Readers take it through key(),
// a borrowed view either way.
struct Frontend::KeyBuffer {
  std::array<std::uint8_t, 64> key_inline;
  std::uint8_t key_len = 0;  // 0 = key lives in key_heap
  StatusKey key_heap;

  BytesView key() const {
    return key_len != 0 ? BytesView(key_inline.data(), key_len)
                        : BytesView(key_heap);
  }
  void SetKey(BytesView issuer_key_hash, BytesView serial) {
    const std::size_t len = issuer_key_hash.size() + serial.size();
    if (len <= key_inline.size()) {
      std::memcpy(key_inline.data(), issuer_key_hash.data(),
                  issuer_key_hash.size());
      std::memcpy(key_inline.data() + issuer_key_hash.size(), serial.data(),
                  serial.size());
      key_len = static_cast<std::uint8_t>(len);
    } else {
      key_heap = MakeStatusKey(issuer_key_hash, serial);
      key_len = 0;
    }
  }
};

struct Frontend::ShardState {
  // Serializes this shard's cacheable misses (SignMiss). Held across the
  // signature, so a miss that queued behind another for the same key finds
  // the entry that one installed instead of signing it again.
  std::mutex miss_mu;
  // Admission watermark: requests admitted and not yet answered. Bounded by
  // per_shard_queue; mirrored into the serve.queue_depth gauge by
  // TryEnterShard/ExitShard.
  std::atomic<std::size_t> depth{0};
  obs::Gauge* depth_gauge = nullptr;
};

Frontend::Frontend(FrontendOptions options)
    : options_(options),
      index_(options.num_shards),
      cache_(options.num_shards),
      metrics_label_("frontend=" + std::to_string(obs::NextInstanceId())),
      metrics_(std::make_unique<Instruments>(metrics_label_)) {
  shard_states_.reserve(index_.num_shards());
  for (std::size_t s = 0; s < index_.num_shards(); ++s) {
    auto state = std::make_unique<ShardState>();
    state->depth_gauge = &obs::MetricsRegistry::Global().GetGauge(
        "serve.queue_depth", metrics_label_ + ",shard=" + std::to_string(s));
    shard_states_.push_back(std::move(state));
  }
  try_later_der_ = std::make_shared<const Bytes>(
      ocsp::MakeErrorResponse(ocsp::ResponseStatus::kTryLater).der);
  malformed_der_ = std::make_shared<const Bytes>(
      ocsp::MakeErrorResponse(ocsp::ResponseStatus::kMalformedRequest).der);
  unauthorized_der_ = std::make_shared<const Bytes>(
      ocsp::MakeErrorResponse(ocsp::ResponseStatus::kUnauthorized).der);
}

Frontend::~Frontend() {
  for (auto& [hash, responder] : responders_) responder->SetObserver({});
}

void Frontend::StartServing() {
  if (serving_started_.load(std::memory_order_acquire)) return;
  // First request: take the attach lock once so a still-running
  // AttachResponder finishes (or the latch forces it to throw) before any
  // thread reads the routing table. Every later request exits on the
  // acquire load above.
  std::lock_guard lock(attach_mu_);
  serving_started_.store(true, std::memory_order_release);
}

void Frontend::AttachResponder(ocsp::Responder* responder) {
  std::lock_guard attach(attach_mu_);
  if (serving_started_.load(std::memory_order_acquire)) {
    // The routing table is read lock-free on the hot path; mutating it
    // after the first request would be a data race. Fail loudly instead of
    // corrupting the readers.
    throw std::logic_error(
        "Frontend::AttachResponder: serving already started; attach every "
        "responder before the first request");
  }
  responders_[responder->issuer_key_hash()] = responder;
  responder->SetObserver(
      [this, responder](const x509::Serial& serial,
                        const std::optional<ocsp::Responder::RecordView>& record) {
        OnMutation(*responder, serial, record);
      });
  // Bulk-load the existing records through the same pending path so the
  // first request (or an explicit Flush) applies them as one batch.
  std::lock_guard lock(pending_mu_);
  for (auto& [serial, record] : responder->SnapshotRecords()) {
    pending_.push_back(
        {MakeStatusKey(responder->issuer_key_hash(), serial), record});
  }
  has_pending_.store(!pending_.empty(), std::memory_order_release);
}

void Frontend::AddRoute(std::string path_prefix, net::HttpHandler handler) {
  std::lock_guard attach(attach_mu_);
  if (serving_started_.load(std::memory_order_acquire)) {
    // routes_ is scanned lock-free by HandleHttp once serving starts —
    // same discipline as the responder routing table. Name the offending
    // route: with several subsystems registering routes (cascade publisher,
    // fleet replication) the path is what identifies the late caller.
    throw std::logic_error(
        "Frontend::AddRoute(\"" + path_prefix +
        "\"): serving already started; register every route before the "
        "first request");
  }
  routes_.emplace_back(std::move(path_prefix), std::move(handler));
}

const ocsp::Responder* Frontend::FindResponder(
    BytesView issuer_key_hash) const {
  const auto it = responders_.find(issuer_key_hash);
  return it == responders_.end() ? nullptr : it->second;
}

void Frontend::OnMutation(
    const ocsp::Responder& responder, const x509::Serial& serial,
    const std::optional<ocsp::Responder::RecordView>& record) {
  std::lock_guard lock(pending_mu_);
  pending_.push_back(
      {MakeStatusKey(responder.issuer_key_hash(), serial), record});
  has_pending_.store(true, std::memory_order_release);
}

void Frontend::MaybeFlush() {
  if (has_pending_.load(std::memory_order_acquire)) Flush();
}

void Frontend::Flush() {
  // `has_pending_` is cleared only after the batch is applied AND its cache
  // entries are invalidated. A request that reads it clear can therefore
  // serve a cache hit without missing an earlier mutation, and one that
  // reads it set waits here for the flush in progress.
  std::lock_guard flush(flush_mu_);
  std::vector<StatusIndex::Update> batch;
  {
    std::lock_guard lock(pending_mu_);
    batch.swap(pending_);
  }
  if (!batch.empty()) {
    index_.Apply(batch);
    // Any precomputed response for a touched key is now suspect.
    for (const StatusIndex::Update& update : batch)
      cache_.Invalidate(update.key);
    metrics_->status_updates.Add(batch.size());
  }
  std::lock_guard lock(pending_mu_);
  if (pending_.empty()) has_pending_.store(false, std::memory_order_release);
}

std::size_t Frontend::ImportStatusRecords(
    const std::vector<std::pair<StatusKey, StatusIndex::Record>>& records) {
  // Apply anything pending first so the diff runs against current state
  // (on a replica the importer is the only writer, so this is exact).
  Flush();
  const std::vector<std::pair<StatusKey, StatusIndex::Record>> local =
      index_.ExportRecords();

  // Both sides are sorted by key: one merge pass yields exactly the delta.
  std::vector<StatusIndex::Update> updates;
  std::size_t i = 0, j = 0;
  while (i < records.size() || j < local.size()) {
    if (j == local.size() ||
        (i < records.size() && records[i].first < local[j].first)) {
      updates.push_back({records[i].first, records[i].second});  // new key
      ++i;
    } else if (i == records.size() || local[j].first < records[i].first) {
      updates.push_back({local[j].first, std::nullopt});  // dropped key
      ++j;
    } else {
      if (!(records[i].second == local[j].second))
        updates.push_back({records[i].first, records[i].second});  // changed
      ++i;
      ++j;
    }
  }
  if (updates.empty()) return 0;

  const std::size_t changed = updates.size();
  {
    std::lock_guard lock(pending_mu_);
    for (StatusIndex::Update& update : updates)
      pending_.push_back(std::move(update));
    has_pending_.store(true, std::memory_order_release);
  }
  // Flush now: replication lag accounting wants the epoch visible the
  // moment the push is acknowledged, and Flush invalidates the cache
  // entries the diff touched.
  Flush();
  return changed;
}

std::size_t Frontend::ImportResponseEntries(
    std::vector<std::pair<StatusKey, ResponseCache::Entry>> entries) {
  const std::size_t count = entries.size();
  if (count != 0) cache_.PutBatch(std::move(entries));
  return count;
}

ResponseCache::Entry Frontend::SignFromRecord(
    const ocsp::Responder& responder, BytesView key,
    const std::optional<StatusIndex::Record>& record, util::Timestamp now) {
  const x509::Serial serial = SerialOfKey(key);
  const ocsp::SingleResponse single = responder.MakeSingle(serial, record, now);
  ocsp::OcspResponse response = responder.Sign({&single, 1}, now);

  ResponseCache::Entry entry;
  entry.der = std::make_shared<const Bytes>(std::move(response.der));
  entry.signed_at = now;
  entry.serve_until = single.next_update;
  // A pre-signed "good" must not outlive a scheduled revocation: clamp the
  // serving window to the moment the status changes.
  if (record && record->status == ocsp::CertStatus::kRevoked &&
      record->revocation_time > now) {
    entry.serve_until = std::min(entry.serve_until, record->revocation_time);
  }
  return entry;
}

ResponseCache::Entry Frontend::SignEntry(const ocsp::Responder& responder,
                                         BytesView key, util::Timestamp now) {
  return SignFromRecord(responder, key, index_.Lookup(key), now);
}

std::size_t Frontend::ShardOf(BytesView issuer_key_hash,
                              const x509::Serial& serial) const {
  return index_.ShardOf(MakeStatusKey(issuer_key_hash, serial));
}

bool Frontend::TryEnterShard(std::size_t shard) {
  ShardState& state = *shard_states_[shard];
  if (state.depth.fetch_add(1, std::memory_order_acq_rel) >=
      options_.per_shard_queue) {
    state.depth.fetch_sub(1, std::memory_order_acq_rel);
    return false;
  }
  // Every admitted request's own thread adjusts the gauge (no single
  // writer), so it moves by Add/Sub rather than Set.
  state.depth_gauge->Add(1);
  return true;
}

void Frontend::ExitShard(std::size_t shard) {
  ShardState& state = *shard_states_[shard];
  state.depth_gauge->Sub(1);
  state.depth.fetch_sub(1, std::memory_order_acq_rel);
}

Frontend::ServeResult Frontend::Serve(BytesView request_der,
                                      util::Timestamp now,
                                      const obs::SpanContext* ctx) {
  metrics_->requests.Increment();
  // One borrowed parse for every shape: the CertIDs and the nonce are views
  // into `request_der`, so nothing is allocated before the request is
  // classified and routed.
  const std::optional<ocsp::RequestView> request =
      ocsp::ParseOcspRequestView(request_der);
  if (!request) {
    metrics_->malformed.Increment();
    return {200, malformed_der_, 0, false};
  }
  const auto start = std::chrono::steady_clock::now();
  StartServing();
  const auto unauthorized = [&]() -> ServeResult {
    metrics_->unauthorized.Increment();
    return {200, unauthorized_der_, 0, false};
  };
  // The first CertID routes by its issuer key hash, so it has only its
  // name hash left to match; every other CertID must match both.
  const ocsp::Responder* responder =
      FindResponder(request->front().issuer_key_hash);
  if (responder == nullptr ||
      !std::ranges::equal(request->front().issuer_name_hash,
                          responder->issuer_name_hash()))
    return unauthorized();
  if (request->size() > 1) {
    for (const ocsp::OcspRequestView& id : *request) {
      if (!std::ranges::equal(id.issuer_name_hash,
                              responder->issuer_name_hash()) ||
          !std::ranges::equal(id.issuer_key_hash,
                              responder->issuer_key_hash()))
        return unauthorized();
    }
  }
  return ServeOne(*request, *responder, now, start, ctx);
}

Frontend::ServeResult Frontend::ServeGetPath(std::string_view path,
                                             util::Timestamp now,
                                             const obs::SpanContext* ctx) {
  // The decoded DER is the one allocation a GET adds; from there it takes
  // the POST path, which counts the request.
  std::optional<Bytes> der;
  if (path.starts_with('/')) der = util::Base64Decode(path.substr(1));
  if (!der) {
    metrics_->requests.Increment();
    metrics_->malformed.Increment();
    return {200, malformed_der_, 0, false};
  }
  return Serve(*der, now, ctx);
}

Frontend::ServeResult Frontend::ServeOne(
    const ocsp::RequestView& request, const ocsp::Responder& responder,
    util::Timestamp now, std::chrono::steady_clock::time_point start,
    const obs::SpanContext* ctx) {
  const obs::SpanContext* traced =
      ctx != nullptr && obs::DistTraceCollector::Global().enabled() ? ctx
                                                                    : nullptr;
  // The flush first makes a mutation that returned before this request
  // started visible to the lookup and to the signer.
  MaybeFlush();
  KeyBuffer buffer;
  buffer.SetKey(responder.issuer_key_hash(), request.front().serial);
  const BytesView key = buffer.key();
  // One CertID without a nonce has a precomputable answer; a nonce makes
  // the response unique and several CertIDs make it a one-off.
  const bool cacheable = request.size() == 1 && request.nonce().empty();
  if (cacheable) {
    // Cache hit: answered here, without an admission slot (like Staple). A
    // miss or expiry is tallied by SignMiss alone, against the entry it
    // finds under the shard's miss lock.
    ResponseCache::LookupResult cached = cache_.Get(key, now);
    if (cached.outcome == ResponseCache::Outcome::kHit) {
      metrics_->cache_hits.Increment();
      RecordServed(start, traced, 200, now);
      return {200, std::move(cached.der), 0, true};
    }
  }

  const std::size_t shard = index_.ShardOf(key);
  if (!TryEnterShard(shard)) {
    metrics_->shed.Increment();
    if (traced)
      RecordServerSpan(*traced, "serve.request",
                       obs::InternName(metrics_label_), 503, now);
    return {503, try_later_der_, options_.retry_after_seconds, false};
  }
  ServeResult result = cacheable ? SignMiss(responder, shard, key, now)
                                 : SignDirect(request, responder, now);
  ExitShard(shard);
  RecordServed(start, traced, result.http_status, now);
  return result;
}

void Frontend::RecordServed(std::chrono::steady_clock::time_point start,
                            const obs::SpanContext* traced_ctx,
                            int http_status, util::Timestamp now) {
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (traced_ctx != nullptr) {
    // The trace id becomes the bucket's exemplar: "the p99 bucket" now
    // names a reconstructable slow request.
    metrics_->latency_ns.RecordSecondsWithExemplar(
        seconds, {traced_ctx->trace.hi, traced_ctx->trace.lo});
  } else {
    metrics_->latency_ns.RecordSeconds(seconds);
  }
  if (traced_ctx != nullptr)
    RecordServerSpan(*traced_ctx, "serve.request",
                     obs::InternName(metrics_label_), http_status, now);
}

Frontend::ServeResult Frontend::SignDirect(const ocsp::RequestView& request,
                                           const ocsp::Responder& responder,
                                           util::Timestamp now) {
  // Multi-cert or nonced requests are signed per request (a nonce makes
  // the response unique by construction; RFC 6960 notes pre-produced
  // responses cannot carry one), so there is nothing to cache or share.
  std::vector<ocsp::SingleResponse> singles;
  singles.reserve(request.size());
  for (const ocsp::OcspRequestView& id : request) {
    const x509::Serial serial(id.serial.begin(), id.serial.end());
    const StatusKey id_key = MakeStatusKey(responder.issuer_key_hash(), serial);
    singles.push_back(responder.MakeSingle(serial, index_.Lookup(id_key), now));
  }
  ocsp::OcspResponse response = responder.Sign(singles, now, request.nonce());
  metrics_->signed_on_demand.Increment();
  return {200, std::make_shared<const Bytes>(std::move(response.der)), 0,
          false};
}

Frontend::ServeResult Frontend::SignMiss(const ocsp::Responder& responder,
                                         std::size_t shard, BytesView key,
                                         util::Timestamp now) {
  std::lock_guard lock(shard_states_[shard]->miss_mu);
  // Concurrent misses on one key coalesce here: a later one finds the entry
  // the first installed and counts a hit, as it would had the requests
  // arrived one at a time, so counter totals do not depend on how requests
  // interleave. `serve_until` is exclusive: a query at exactly the
  // scheduled revocation instant re-signs instead of serving the stale
  // "good".
  ResponseCache::LookupResult cached = cache_.Get(key, now);
  if (cached.outcome == ResponseCache::Outcome::kHit) {
    metrics_->cache_hits.Increment();
    return {200, std::move(cached.der), 0, true};
  }
  (cached.outcome == ResponseCache::Outcome::kExpired
       ? metrics_->cache_expired
       : metrics_->cache_misses)
      .Increment();
  // The caching decision and the signature come from the SAME record: a
  // separate post-sign Lookup could observe a record added after signing
  // and cache a stale `unknown` response.
  const std::uint64_t epoch0 = index_.epoch();
  const std::optional<StatusIndex::Record> record = index_.Lookup(key);
  ResponseCache::Entry entry = SignFromRecord(responder, key, record, now);
  metrics_->signed_on_demand.Increment();
  ServeResult result{200, entry.der, 0, false};
  // Only known serials are cached (caching `unknown` would let arbitrary
  // query strings grow the cache without bound). The install is refused if
  // the index moved since `epoch0`: the record may have changed, and a
  // stale install would undo the invalidation that flush performed. The
  // check runs under the cache shard's lock, so no flush can land between
  // it and the install.
  if (record) {
    std::vector<std::pair<StatusKey, ResponseCache::Entry>> install;
    install.emplace_back(StatusKey(key.begin(), key.end()), std::move(entry));
    cache_.PutBatchIfEpoch(std::move(install), index_, epoch0);
  }
  return result;
}

net::HttpResponse Frontend::HandleHttp(const net::HttpRequest& request,
                                       util::Timestamp now) {
  StartServing();  // latches routes_ (and the routing table) read-only
  // Observability exposition, exact-path only: every other GET that no
  // auxiliary route claims is an RFC 6960 Appendix A request (including
  // malformed ones, which must still get an OCSP error response rather
  // than a 404).
  if (request.method == "GET" && request.path == "/metrics") {
    net::HttpResponse response;
    response.status = 200;
    const std::string text = obs::MetricsRegistry::Global().DumpText();
    response.body.assign(text.begin(), text.end());
    return response;
  }
  if (request.method == "GET" && request.path == "/metrics.json") {
    // Scrape endpoint for fleet-wide aggregation: only THIS instance's
    // instruments (label-matched), so merging scrapes from several nodes
    // in one simulated process never double-counts the globals.
    obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
    const std::string tag_only = "{" + metrics_label_ + "}";
    const std::string tag_first = "{" + metrics_label_ + ",";
    const auto foreign = [&](const std::string& name) {
      return name.find(tag_only) == std::string::npos &&
             name.find(tag_first) == std::string::npos;
    };
    std::erase_if(snap.counters,
                  [&](const auto& c) { return foreign(c.name); });
    std::erase_if(snap.gauges, [&](const auto& g) { return foreign(g.name); });
    std::erase_if(snap.histograms,
                  [&](const auto& h) { return foreign(h.name); });
    net::HttpResponse response;
    response.status = 200;
    const std::string json = obs::DumpJson(snap);
    response.body.assign(json.begin(), json.end());
    return response;
  }
  obs::SpanContext ctx;
  const obs::SpanContext* ctx_ptr = nullptr;
  if (obs::DistTraceCollector::Global().enabled()) {
    const auto it = request.headers.find(obs::kTraceparentHeader);
    if (it != request.headers.end() &&
        obs::ParseTraceparent(it->second, &ctx)) {
      ctx_ptr = &ctx;
    }
  }
  for (const auto& [prefix, handler] : routes_) {
    if (request.path.rfind(prefix, 0) == 0) return handler(request, now);
  }
  const ServeResult result = request.method == "GET"
                                 ? ServeGetPath(request.path, now, ctx_ptr)
                                 : Serve(request.body, now, ctx_ptr);
  net::HttpResponse response;
  response.status = result.http_status;
  if (result.body) response.body = *result.body;
  response.retry_after = result.retry_after;
  return response;
}

std::shared_ptr<const Bytes> Frontend::Staple(BytesView issuer_key_hash,
                                              const x509::Serial& serial,
                                              util::Timestamp now) {
  StartServing();
  const ocsp::Responder* responder = FindResponder(issuer_key_hash);
  if (responder == nullptr) return nullptr;
  metrics_->staples.Increment();
  MaybeFlush();

  KeyBuffer buffer;
  buffer.SetKey(issuer_key_hash, serial);
  const BytesView key = buffer.key();
  ResponseCache::LookupResult cached = cache_.Get(key, now);
  if (cached.outcome == ResponseCache::Outcome::kHit) {
    metrics_->cache_hits.Increment();
    return std::move(cached.der);
  }
  return SignMiss(*responder, index_.ShardOf(key), key, now).body;
}

void Frontend::EnsurePool() {
  if (!pool_) pool_ = std::make_unique<util::ThreadPool>(options_.threads);
}

std::size_t Frontend::RebuildAll(util::Timestamp now) {
  StartServing();
  std::lock_guard maintenance(maintenance_mu_);
  Flush();
  // Entries are signed from the live index; a flush by another thread's
  // request before the install moves the epoch, and the install is then
  // refused (those keys are signed on demand).
  const std::uint64_t epoch0 = index_.epoch();
  const std::vector<StatusKey> keys = index_.SortedKeys();
  if (keys.empty()) return 0;
  EnsurePool();

  std::vector<std::pair<StatusKey, ResponseCache::Entry>> slots(keys.size());
  pool_->ParallelFor(keys.size(), [&](std::size_t i) {
    const ocsp::Responder* responder =
        FindResponder(IssuerHashOfKey(keys[i]));
    slots[i] = {keys[i], SignEntry(*responder, keys[i], now)};
  });
  cache_.PutBatchIfEpoch(std::move(slots), index_, epoch0);
  metrics_->batch_signed.Add(keys.size());
  return keys.size();
}

std::size_t Frontend::RefreshStale(util::Timestamp now) {
  StartServing();
  std::lock_guard maintenance(maintenance_mu_);
  Flush();
  const std::uint64_t epoch0 = index_.epoch();  // as in RebuildAll
  const std::vector<StatusKey> stale =
      cache_.KeysStaleBy(now + kRefreshHeadroomSeconds);
  if (stale.empty()) return 0;
  EnsurePool();

  std::vector<std::pair<StatusKey, ResponseCache::Entry>> slots(stale.size());
  std::atomic<std::size_t> dropped{0};
  pool_->ParallelFor(stale.size(), [&](std::size_t i) {
    // An entry may have left the index since it was cached (Remove()):
    // refresh would pin an `unknown` forever, so drop it instead.
    if (!index_.Lookup(stale[i])) {
      ++dropped;
      return;
    }
    const ocsp::Responder* responder =
        FindResponder(IssuerHashOfKey(stale[i]));
    slots[i] = {stale[i], SignEntry(*responder, stale[i], now)};
  });
  std::erase_if(slots, [](const auto& slot) { return slot.second.der == nullptr; });
  for (const StatusKey& key : stale)
    if (!index_.Lookup(key)) cache_.Invalidate(key);
  cache_.PutBatchIfEpoch(std::move(slots), index_, epoch0);
  const std::size_t refreshed = stale.size() - dropped;
  metrics_->refreshed.Add(refreshed);
  return refreshed;
}

Frontend::Counters Frontend::counters() const {
  Counters out;
  out.requests = metrics_->requests.Value();
  out.cache_hits = metrics_->cache_hits.Value();
  out.cache_misses = metrics_->cache_misses.Value();
  out.cache_expired = metrics_->cache_expired.Value();
  out.signed_on_demand = metrics_->signed_on_demand.Value();
  out.batch_signed = metrics_->batch_signed.Value();
  out.refreshed = metrics_->refreshed.Value();
  out.shed = metrics_->shed.Value();
  out.malformed = metrics_->malformed.Value();
  out.unauthorized = metrics_->unauthorized.Value();
  out.staples = metrics_->staples.Value();
  out.status_updates = metrics_->status_updates.Value();
  return out;
}

}  // namespace rev::serve
