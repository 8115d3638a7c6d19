#include "fleet/publisher.h"

#include <algorithm>
#include <utility>

#include "fleet/replica.h"
#include "fleet/snapshot.h"
#include "net/retry.h"
#include "obs/distrace.h"

namespace rev::fleet {

namespace {

// Span-id salt for per-replica push legs; combined with a per-publish leg
// counter so the snapshot and response pushes to every replica get
// distinct span ids under one "fleet.publish" root.
constexpr std::uint64_t kPushSalt = 0x9B1D5EEDull;

// Per-replica push policy. Tighter than the fetch-stack default: a replica
// that stays down for a whole storm should fail fast and catch up on the
// next epoch, not stall the fan-out for a minute.
constexpr net::RetryPolicy kPushRetry{.max_attempts = 3,
                                      .initial_backoff_seconds = 0.2,
                                      .max_backoff_seconds = 5.0,
                                      .jitter = 0.5,
                                      .seed = 0xF1EE7};
constexpr double kPushTimeoutSeconds = 5.0;

}  // namespace

Publisher::Publisher(serve::Frontend* authority)
    : authority_(authority),
      metrics_label_("publisher=" + std::to_string(obs::NextInstanceId())),
      pushes_ok_(obs::MetricsRegistry::Global().GetCounter(
          "fleet.publisher.pushes_ok", metrics_label_)),
      pushes_failed_(obs::MetricsRegistry::Global().GetCounter(
          "fleet.publisher.pushes_failed", metrics_label_)),
      bytes_pushed_(obs::MetricsRegistry::Global().GetCounter(
          "fleet.publisher.bytes_pushed", metrics_label_)),
      max_lag_(obs::MetricsRegistry::Global().GetGauge(
          "fleet.publisher.max_lag_epochs", metrics_label_)) {}

Publisher::~Publisher() = default;

void Publisher::AddReplica(std::string host) {
  if (std::find(replicas_.begin(), replicas_.end(), host) != replicas_.end())
    return;
  acked_.emplace(host, 0);
  replicas_.push_back(std::move(host));
}

Publisher::PushStats Publisher::Publish(net::SimNet& net,
                                        util::Timestamp now) {
  PushStats stats;
  stats.epoch = ++epoch_;
  publish_times_[stats.epoch] = now;

  // Export once; the same serialized blobs go to every replica, so the
  // bytes any two replicas applied for one epoch are identical.
  authority_->Flush();
  StatusSnapshot snapshot;
  snapshot.epoch = stats.epoch;
  snapshot.published_at = now;
  snapshot.records = authority_->index().ExportRecords();
  const Bytes snapshot_blob = snapshot.Serialize();
  stats.snapshot_bytes = snapshot_blob.size();

  ResponseBatch batch;
  batch.epoch = stats.epoch;
  batch.published_at = now;
  batch.entries = authority_->cache().ExportEntries(now);
  const Bytes batch_blob = batch.Serialize();
  stats.response_bytes = batch_blob.size();

  const std::uint64_t epoch = stats.epoch;
  const auto ack_validator = [epoch](const net::HttpResponse& response) {
    const std::string body(response.body.begin(), response.body.end());
    return body.rfind("ok epoch=", 0) == 0 &&
           body.find("epoch=" + std::to_string(epoch)) != std::string::npos;
  };

  obs::DistTraceCollector& collector = obs::DistTraceCollector::Global();
  const bool traced = collector.enabled();
  obs::SpanContext root_ctx;
  std::uint64_t leg_counter = 0;
  if (traced) {
    // One trace per epoch push, minted from the epoch number alone, so the
    // fan-out tree is bit-identical run to run.
    const obs::TraceId trace = obs::MakeTraceId(0xF1EE7ull, stats.epoch);
    root_ctx = obs::SpanContext{trace, obs::RootSpanId(trace)};
  }
  // One leg = one POST (snapshot or response batch) to one replica, routed
  // through FetchWithRetry so the leg's retry attempts and exchanges
  // stitch underneath it.
  const auto push = [&](const std::string& host, const std::string& path,
                        const Bytes& blob, util::Timestamp at) {
    net::HttpRequest request;
    request.method = "POST";
    request.host = host;
    request.path = path;
    request.body = blob;
    if (!traced) {
      return net::FetchWithRetry(net, request, at, kPushRetry,
                                 kPushTimeoutSeconds, ack_validator);
    }
    const obs::SpanContext leg{
        root_ctx.trace, obs::DeriveSpanId(root_ctx, kPushSalt + leg_counter++)};
    request.headers[obs::kTraceparentHeader] = obs::FormatTraceparent(leg);
    net::RetryResult result =
        net::FetchWithRetry(net, request, at, kPushRetry,
                            kPushTimeoutSeconds, ack_validator);
    obs::DistSpan span;
    span.trace = root_ctx.trace;
    span.span = leg.span;
    span.parent = root_ctx.span;
    span.name = "fleet.push";
    span.node = obs::InternName(host);
    span.kind = obs::SpanKind::kInternal;
    span.status = result.ok() ? result.fetch.response.status : 0;
    span.start_ns = obs::VirtualNs(at, 0);
    span.end_ns = obs::VirtualNs(at, result.total_elapsed_seconds);
    collector.Record(span);
    return result;
  };

  for (const std::string& host : replicas_) {
    net::RetryResult pushed =
        push(host, Replica::kSnapshotPath, snapshot_blob, now);
    stats.elapsed_seconds += pushed.total_elapsed_seconds;
    bytes_pushed_.Add(pushed.total_bytes);
    const bool ok = pushed.ok();
    if (ok) {
      net::RetryResult responses =
          push(host, Replica::kResponsesPath, batch_blob, pushed.finished_at);
      stats.elapsed_seconds += responses.total_elapsed_seconds;
      bytes_pushed_.Add(responses.total_bytes);
      // The snapshot landed either way; a failed response push only costs
      // the replica cache warmth, not correctness.
    }
    if (ok) {
      acked_[host] = epoch;
      ++stats.replicas_ok;
      pushes_ok_.Increment();
    } else {
      ++stats.replicas_failed;
      pushes_failed_.Increment();
    }
  }
  if (traced) {
    obs::DistSpan span;
    span.trace = root_ctx.trace;
    span.span = root_ctx.span;
    span.parent = 0;
    span.name = "fleet.publish";
    span.node = "publisher";
    span.kind = obs::SpanKind::kInternal;
    span.status = stats.replicas_failed == 0 ? 200 : 0;
    span.start_ns = obs::VirtualNs(now, 0);
    span.end_ns = obs::VirtualNs(now, stats.elapsed_seconds);
    collector.Record(span);
  }
  max_lag_.Set(static_cast<std::int64_t>(MaxLagEpochs()));
  return stats;
}

std::uint64_t Publisher::AckedEpoch(const std::string& host) const {
  const auto it = acked_.find(host);
  return it == acked_.end() ? 0 : it->second;
}

std::uint64_t Publisher::MaxLagEpochs() const {
  std::uint64_t min_acked = epoch_;
  for (const auto& [host, acked] : acked_)
    min_acked = std::min(min_acked, acked);
  return epoch_ - min_acked;
}

util::Timestamp Publisher::PublishTimeOf(std::uint64_t epoch) const {
  const auto it = publish_times_.find(epoch);
  return it == publish_times_.end() ? 0 : it->second;
}

}  // namespace rev::fleet
