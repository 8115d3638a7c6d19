// The revocation-status serving frontend: turns per-CA `ocsp::Responder`
// state into a service that sustains heavy query load.
//
//   POST DER, or GET path base64-decoded ──► one borrowed parse
//   (ocsp::ParseOcspRequestView) ──► malformed / unauthorized: a fixed
//   error response.
//   cacheable (one CertID, no nonce) ──► pending-mutation flush (if any)
//   ──► one ResponseCache lookup with a stack-built key ──► hit: answered
//   on the caller's thread, a shared_ptr copy of the precomputed DER, no
//   admission slot taken.
//   miss / expired / nonced / multi-cert ──► admission (depth watermark
//   per shard; 503 + Retry-After when over capacity) ──► signed on the
//   caller's thread:
//     miss / expired ──► SignMiss: the shard's miss lock, the cache looked
//       up again (a miss that waited behind one for the same key finds its
//       entry and counts a hit), then sign from the index record and
//       install epoch-guarded.
//     nonced / multi-cert ──► SignDirect: signed per request from the
//       CertID views, no lock, never cached.
//
// There are no worker threads and no queue: the work of a miss is its
// signature, and the caller that needs it pays for it. Staple takes the
// same SignMiss path (without admission), so both entry points share one
// miss path and its same-key coalescing.
//
// The index is fed by Responder mutation observers through a pending
// buffer that is flushed as one epoch-swap batch, so a burst of
// revocations costs one snapshot rebuild per shard instead of one per
// record. Every request flushes before it reads, so a mutation that
// returned before the request started is applied and its cache entry
// invalidated. Responses are deterministic: signing is a pure function of
// (record, now), so cache contents are byte-identical no matter which
// thread signed them. See docs/serving.md.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "net/simnet.h"
#include "obs/distrace.h"
#include "obs/metrics.h"
#include "ocsp/responder.h"
#include "serve/response_cache.h"
#include "serve/status_index.h"
#include "util/thread_pool.h"

namespace rev::serve {

struct FrontendOptions {
  std::size_t num_shards = 16;
  // Admission watermark: maximum requests (misses, expired entries,
  // nonced and multi-cert requests) in flight per shard before the frontend
  // sheds load; a slot is held from admission until the answer. Cache hits
  // are answered on the caller's thread and take no slot. Generous by
  // default; benches/tests tighten it.
  std::size_t per_shard_queue = 128;
  // Retry-After hint attached to 503 responses, seconds.
  std::int64_t retry_after_seconds = 2;
  // Worker threads for batch signing (RebuildAll/RefreshStale); 1 = inline
  // serial execution (no worker threads spawned), 0 = hardware concurrency.
  unsigned threads = 1;
};

class Frontend {
 public:
  explicit Frontend(FrontendOptions options = {});
  ~Frontend();

  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  // Attaches an issuing CA's responder: bulk-loads its records into the
  // index and installs a mutation observer so later Revoke()/Remove()/
  // AddCertificate() calls invalidate the affected cache entry. The
  // responder must outlive this frontend, and attachment must finish
  // before serving starts: the first Serve/Staple/maintenance call
  // latches the routing table read-only, and a later attach throws
  // std::logic_error rather than racing the readers.
  void AttachResponder(ocsp::Responder* responder);

  struct ServeResult {
    int http_status = 200;
    std::shared_ptr<const Bytes> body;
    std::int64_t retry_after = 0;  // seconds, set iff shed (503)
    bool cache_hit = false;
  };

  // POST form: a DER OCSP request. Thread-safe. The request is parsed once,
  // as views into `request_der`, and classified: malformed, unauthorized
  // (a CertID names an issuer with no attached responder, or not the same
  // one as the first), cacheable (one CertID, no nonce) or direct.
  // Answered on the calling thread: a cacheable request from the cache
  // when it hits, anything else signed here after admission (a miss may
  // first wait on its shard's miss lock). A non-null `ctx` (the caller's
  // distributed-trace context, usually extracted from the traceparent
  // header by HandleHttp) records a server span for the request and tags
  // the latency histogram bucket with the trace id as an exemplar.
  ServeResult Serve(BytesView request_der, util::Timestamp now,
                    const obs::SpanContext* ctx = nullptr);

  // RFC 6960 Appendix A GET form: "/{base64(request)}". Thread-safe. The
  // path is decoded (its one allocation) and served as Serve serves the
  // DER; a path that is not "/" plus valid base64 is malformed.
  ServeResult ServeGetPath(std::string_view path, util::Timestamp now,
                           const obs::SpanContext* ctx = nullptr);

  // Adapter for net::SimNet host handlers (GET and POST). Also serves the
  // observability exposition: `GET /metrics` is the global registry text
  // dump; `GET /metrics.json` is the JSON exposition filtered to THIS
  // instance's instruments (the scrape target for fleet-wide aggregation,
  // see fleet/metricsview.h). A traceparent request header is extracted
  // here and propagated into the serve path.
  net::HttpResponse HandleHttp(const net::HttpRequest& request,
                               util::Timestamp now);

  // Registers an auxiliary HTTP route: a request whose path starts with
  // `path_prefix` is handed to `handler` instead of the OCSP dispatch —
  // how the cascade publisher rides this frontend (/cascade/*, see
  // docs/distribution.md). Routes are scanned in registration order after
  // the /metrics check. Same latch rules as AttachResponder: register
  // every route before the first request or get std::logic_error; the
  // handler must stay valid for the frontend's lifetime.
  void AddRoute(std::string path_prefix, net::HttpHandler handler);

  // Direct in-process API (OCSP stapling, benches): the precomputed or
  // freshly signed response DER for one serial. A miss takes the same
  // SignMiss path as Serve but bypasses admission — the caller is
  // in-process, not a network client. Returns nullptr if no responder is
  // attached for `issuer_key_hash`.
  std::shared_ptr<const Bytes> Staple(BytesView issuer_key_hash,
                                      const x509::Serial& serial,
                                      util::Timestamp now);

  // Batch-signs a response for every record in the index (thread-pool
  // fan-out, deterministic output). The batch is installed only while no
  // mutation has been applied since signing began: a flush in between
  // refuses the install, and those keys are signed on demand. Returns the
  // number signed.
  std::size_t RebuildAll(util::Timestamp now);

  // Staleness-driven refresh: re-signs cached responses whose validity
  // window ends within one day of `now`. Returns the
  // number re-signed. Installed under the same epoch guard as RebuildAll.
  // Intended to run from a maintenance tick so the hot path never pays for
  // re-signing.
  std::size_t RefreshStale(util::Timestamp now);

  // Applies buffered responder mutations to the index now (normally done
  // lazily by the next request).
  void Flush();

  // --- replication hooks (src/fleet) --------------------------------------
  // Full-state import of a replicated status snapshot: diffs `records`
  // (sorted by key, as StatusIndex::ExportRecords and the fleet snapshot
  // wire format both guarantee) against the local index and applies exactly
  // the changed keys — upserts for new or changed records, erases for keys
  // the snapshot no longer contains — through the same pending/flush path
  // the mutation observers use, so the affected ResponseCache entries are
  // invalidated together with the index swap. Returns the number of keys
  // changed. Safe against concurrent serving; concurrent importers must be
  // serialized externally (a frontend has one replication channel).
  std::size_t ImportStatusRecords(
      const std::vector<std::pair<StatusKey, StatusIndex::Record>>& records);

  // Installs pre-signed responses pushed by the authoritative publisher in
  // one PutBatch. Entries carry their own serve_until expiry, so a stale
  // batch can never out-serve a scheduled revocation the publisher already
  // clamped for. Returns the number installed.
  std::size_t ImportResponseEntries(
      std::vector<std::pair<StatusKey, ResponseCache::Entry>> entries);

  // A value snapshot of this instance's `serve.*{frontend=N}` instruments,
  // the one tally of each event: every cacheable lookup moves exactly one
  // of cache_hits/cache_misses/cache_expired (ResponseCache counts
  // nothing). Monotonic: refreshes, epoch swaps and Clear() never rewind it.
  struct Counters {
    std::uint64_t requests = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;    // absent from cache
    std::uint64_t cache_expired = 0;   // present but past serve_until
    std::uint64_t signed_on_demand = 0;
    std::uint64_t batch_signed = 0;
    std::uint64_t refreshed = 0;
    std::uint64_t shed = 0;            // 503s
    std::uint64_t malformed = 0;
    std::uint64_t unauthorized = 0;
    std::uint64_t staples = 0;
    std::uint64_t status_updates = 0;  // observer events applied
  };
  Counters counters() const;

  // Label suffix of this instance's registry instruments, "frontend=N"
  // (e.g. "serve.requests{frontend=N}" in the /metrics exposition, and
  // the per-request latency histogram "serve.latency_ns{frontend=N}").
  const std::string& metrics_label() const { return metrics_label_; }

  const StatusIndex& index() const { return index_; }
  const ResponseCache& cache() const { return cache_; }

  // --- admission introspection (tests saturate queues deterministically) --
  std::size_t ShardOf(BytesView issuer_key_hash,
                      const x509::Serial& serial) const;
  bool TryEnterShard(std::size_t shard);  // occupies one admission slot
  void ExitShard(std::size_t shard);      // releases it

 private:
  struct Instruments;
  struct KeyBuffer;
  struct ShardState;

  // Transparent hash/eq so FindResponder can probe the routing table with
  // a BytesView — no 32-byte heap copy per request on the hot path. Reuses
  // the word-wise status-key mix (the routing key is the same kind of
  // cryptographic hash).
  using RouteHash = StatusKeyHash;
  using RouteEq = StatusKeyEq;

  const ocsp::Responder* FindResponder(BytesView issuer_key_hash) const;
  void OnMutation(const ocsp::Responder& responder, const x509::Serial& serial,
                  const std::optional<ocsp::Responder::RecordView>& record);
  void MaybeFlush();
  // Latches the routing table read-only before the first read of it. The
  // fast path after the first call is a single acquire load.
  void StartServing();
  ResponseCache::Entry SignEntry(const ocsp::Responder& responder,
                                 BytesView key, util::Timestamp now);
  ResponseCache::Entry SignFromRecord(
      const ocsp::Responder& responder, BytesView key,
      const std::optional<StatusIndex::Record>& record, util::Timestamp now);
  // Routes a parsed, authorized request. The status key is built in a
  // stack buffer from the responder's issuer hash and the first CertID's
  // serial (no heap key on the hot path). A cacheable request (one CertID,
  // no nonce) whose precomputed response is servable at `now` is answered
  // right here; everything else goes through admission on the key's shard,
  // then SignMiss (cacheable) or SignDirect. Records latency from `start`
  // either way.
  ServeResult ServeOne(const ocsp::RequestView& request,
                       const ocsp::Responder& responder, util::Timestamp now,
                       std::chrono::steady_clock::time_point start,
                       const obs::SpanContext* ctx);
  // Latency sample (with the trace id as exemplar when traced) and the
  // traced request's server span, for a request served from `start`.
  void RecordServed(std::chrono::steady_clock::time_point start,
                    const obs::SpanContext* traced_ctx, int http_status,
                    util::Timestamp now);
  // The one miss path (Serve's cacheable misses and Staple's): under
  // `shard`'s miss lock, looks `key` up again — a hit installed meanwhile
  // is returned and counted as a hit — otherwise tallies the miss or
  // expiry, signs from the index record and installs the entry
  // epoch-guarded when the serial is known.
  ServeResult SignMiss(const ocsp::Responder& responder, std::size_t shard,
                       BytesView key, util::Timestamp now);
  // Nonced or multi-cert request: signed for this request alone, no lock,
  // never cached.
  ServeResult SignDirect(const ocsp::RequestView& request,
                         const ocsp::Responder& responder,
                         util::Timestamp now);
  void EnsurePool();

  FrontendOptions options_;
  StatusIndex index_;
  ResponseCache cache_;
  std::unordered_map<Bytes, ocsp::Responder*, RouteHash, RouteEq> responders_;
  // Auxiliary prefix routes (AddRoute); latched read-only with the table.
  std::vector<std::pair<std::string, net::HttpHandler>> routes_;

  // Late-attach latch (see AttachResponder). `attach_mu_` orders the last
  // attach against the first serve; after that, readers never lock.
  std::mutex attach_mu_;
  std::atomic<bool> serving_started_{false};

  // Buffered observer events, applied as one Apply() batch. `flush_mu_`
  // admits one flusher at a time; `has_pending_` stays set until that
  // flush has invalidated its cache entries (see Flush).
  std::mutex flush_mu_;
  std::mutex pending_mu_;
  std::vector<StatusIndex::Update> pending_;
  std::atomic<bool> has_pending_{false};

  // Per-shard state: the miss lock and the admission depth watermark.
  std::vector<std::unique_ptr<ShardState>> shard_states_;

  // Batch-signing pool, created on first use; maintenance calls serialized.
  std::mutex maintenance_mu_;
  std::unique_ptr<util::ThreadPool> pool_;

  // Registry instruments ("serve.*{frontend=N}"): sharded counters and the
  // lock-free latency histogram — the hot path never takes a lock for
  // accounting.
  std::string metrics_label_;
  std::unique_ptr<Instruments> metrics_;

  std::shared_ptr<const Bytes> try_later_der_;
  std::shared_ptr<const Bytes> malformed_der_;
  std::shared_ptr<const Bytes> unauthorized_der_;
};

}  // namespace rev::serve
