#include "fleet/replica.h"

#include <utility>

#include "fleet/snapshot.h"
#include "obs/distrace.h"
#include "obs/metrics.h"

namespace rev::fleet {

namespace {

// Span-id salt for the replica-side apply spans (server markers parented
// under the publisher's push attempt).
constexpr std::uint64_t kApplySalt = 0xAB71C5EEull;

// Records the zero-duration server span marking that this replica handled
// a replication POST carrying a traceparent. Instantaneous on the virtual
// clock, so it is a causality marker — never a critical-path tile.
void RecordApplySpan(const net::HttpRequest& request, const std::string& node,
                     const char* name, int http_status, util::Timestamp now) {
  obs::DistTraceCollector& collector = obs::DistTraceCollector::Global();
  if (!collector.enabled()) return;
  const auto it = request.headers.find(obs::kTraceparentHeader);
  obs::SpanContext parent;
  if (it == request.headers.end() ||
      !obs::ParseTraceparent(it->second, &parent)) {
    return;
  }
  obs::DistSpan span;
  span.trace = parent.trace;
  span.span = obs::DeriveSpanId(parent, kApplySalt);
  span.parent = parent.span;
  span.name = name;
  span.node = obs::InternName(node);
  span.kind = obs::SpanKind::kServer;
  span.status = http_status;
  span.start_ns = obs::VirtualNs(now, 0);
  span.end_ns = span.start_ns;
  collector.Record(span);
}

net::HttpResponse TextResponse(int status, std::string body) {
  net::HttpResponse response;
  response.status = status;
  response.body.assign(body.begin(), body.end());
  return response;
}

std::string AckBody(std::uint64_t epoch) {
  return "ok epoch=" + std::to_string(epoch);
}

}  // namespace

Replica::Replica(std::string name, const x509::Certificate& issuer,
                 crypto::KeyPair key)
    : name_(std::move(name)),
      responder_(issuer, std::move(key)),
      metrics_label_("replica=" + name_ + "#" +
                     std::to_string(obs::NextInstanceId())),
      snapshots_applied_(obs::MetricsRegistry::Global().GetCounter(
          "fleet.replica.snapshots_applied", metrics_label_)),
      snapshots_rejected_(obs::MetricsRegistry::Global().GetCounter(
          "fleet.replica.snapshots_rejected", metrics_label_)),
      snapshots_stale_(obs::MetricsRegistry::Global().GetCounter(
          "fleet.replica.snapshots_stale", metrics_label_)),
      batches_applied_(obs::MetricsRegistry::Global().GetCounter(
          "fleet.replica.batches_applied", metrics_label_)),
      batches_rejected_(obs::MetricsRegistry::Global().GetCounter(
          "fleet.replica.batches_rejected", metrics_label_)) {
  frontend_.AttachResponder(&responder_);
  frontend_.AddRoute(kSnapshotPath,
                     [this](const net::HttpRequest& request,
                            util::Timestamp now) {
                       return HandleSnapshot(request, now);
                     });
  frontend_.AddRoute(kResponsesPath,
                     [this](const net::HttpRequest& request,
                            util::Timestamp now) {
                       return HandleResponses(request, now);
                     });
  frontend_.AddRoute(kHealthPath,
                     [this](const net::HttpRequest&, util::Timestamp now) {
                       return HandleHealth(now);
                     });
}

void Replica::Install(net::SimNet& net, net::HostProfile profile) {
  net.AddHost(
      name_,
      [this](const net::HttpRequest& request, util::Timestamp now) {
        return frontend_.HandleHttp(request, now);
      },
      profile);
}

net::HttpResponse Replica::HandleSnapshot(const net::HttpRequest& request,
                                          util::Timestamp now) {
  net::HttpResponse response = [&]() -> net::HttpResponse {
    auto snapshot = StatusSnapshot::Deserialize(request.body);
    if (!snapshot) {
      // Fail closed: the previous state keeps serving, the publisher
      // retries.
      snapshots_rejected_.Increment();
      return TextResponse(400, "bad snapshot blob");
    }
    std::lock_guard lock(import_mu_);
    const std::uint64_t applied =
        applied_epoch_.load(std::memory_order_acquire);
    if (snapshot->epoch <= applied) {
      // Replayed push of an epoch we already hold — idempotent ack so a
      // retried POST whose first ack was lost still converges.
      snapshots_stale_.Increment();
      return TextResponse(200, AckBody(applied));
    }
    frontend_.ImportStatusRecords(snapshot->records);
    applied_published_at_.store(snapshot->published_at,
                                std::memory_order_release);
    applied_epoch_.store(snapshot->epoch, std::memory_order_release);
    snapshots_applied_.Increment();
    return TextResponse(200, AckBody(snapshot->epoch));
  }();
  RecordApplySpan(request, name_, "fleet.apply_snapshot", response.status,
                  now);
  return response;
}

net::HttpResponse Replica::HandleResponses(const net::HttpRequest& request,
                                           util::Timestamp now) {
  net::HttpResponse response = [&]() -> net::HttpResponse {
    auto batch = ResponseBatch::Deserialize(request.body);
    if (!batch) {
      batches_rejected_.Increment();
      return TextResponse(400, "bad response batch blob");
    }
    std::lock_guard lock(import_mu_);
    const std::uint64_t applied =
        applied_epoch_.load(std::memory_order_acquire);
    if (batch->epoch != applied) {
      // Pre-signed responses are only valid against the index they were
      // signed with; a batch for any other epoch is refused outright.
      batches_rejected_.Increment();
      return TextResponse(409, "epoch mismatch: batch " +
                                   std::to_string(batch->epoch) +
                                   ", applied " + std::to_string(applied));
    }
    frontend_.ImportResponseEntries(std::move(batch->entries));
    batches_applied_.Increment();
    return TextResponse(200, AckBody(applied));
  }();
  RecordApplySpan(request, name_, "fleet.apply_responses", response.status,
                  now);
  return response;
}

net::HttpResponse Replica::HandleHealth(util::Timestamp) const {
  const std::uint64_t epoch = applied_epoch();
  return TextResponse(200, AckBody(epoch) +
                               " warmed=" + (epoch != 0 ? "1" : "0"));
}

Replica::Counters Replica::counters() const {
  Counters counters;
  counters.snapshots_applied = snapshots_applied_.Value();
  counters.snapshots_rejected = snapshots_rejected_.Value();
  counters.snapshots_stale = snapshots_stale_.Value();
  counters.batches_applied = batches_applied_.Value();
  counters.batches_rejected = batches_rejected_.Value();
  return counters;
}

}  // namespace rev::fleet
