#include "cascade/publisher.h"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <string_view>

#include "obs/metrics.h"

namespace rev::cascade {

struct Publisher::Instruments {
  explicit Instruments(
      std::string_view label,
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global())
      : builds(registry.GetCounter("cascade.builds", label)),
        snapshot_serves(registry.GetCounter("cascade.snapshot_serves", label)),
        delta_serves(registry.GetCounter("cascade.delta_serves", label)),
        up_to_date_serves(
            registry.GetCounter("cascade.up_to_date_serves", label)),
        bytes_served(registry.GetCounter("cascade.bytes_served", label)),
        delta_bytes(registry.GetCounter("cascade.delta_bytes", label)),
        levels(registry.GetGauge("cascade.levels", label)),
        bytes(registry.GetGauge("cascade.bytes", label)) {}

  obs::Counter& builds;
  obs::Counter& snapshot_serves;
  obs::Counter& delta_serves;
  obs::Counter& up_to_date_serves;
  obs::Counter& bytes_served;
  obs::Counter& delta_bytes;  // cumulative delta payload published
  obs::Gauge& levels;         // levels in the current cascade
  obs::Gauge& bytes;          // current snapshot blob size
};

Publisher::Publisher(PublisherOptions options)
    : options_(options),
      metrics_label_("publisher=" + std::to_string(obs::NextInstanceId())),
      metrics_(std::make_unique<Instruments>(metrics_label_)) {}

Publisher::~Publisher() = default;

Publisher::Counters Publisher::counters() const {
  Counters out;
  out.builds = metrics_->builds.Value();
  out.snapshot_serves = metrics_->snapshot_serves.Value();
  out.delta_serves = metrics_->delta_serves.Value();
  out.up_to_date_serves = metrics_->up_to_date_serves.Value();
  out.bytes_served = metrics_->bytes_served.Value();
  return out;
}

PublishStats Publisher::Publish(
    std::shared_ptr<const std::vector<Bytes>> universe,
    std::vector<Bytes> revoked, util::Timestamp now) {
  if (universe == nullptr)
    throw std::invalid_argument("Publisher::Publish: null universe");

  auto revoked_set = std::make_shared<KeySet>(revoked.begin(), revoked.end());
  // Canonical build inputs: the revoked side sorted+deduped, the
  // non-revoked side in universe order — Serialize() is then a pure
  // function of the key *sets*, independent of caller ordering.
  auto revoked_list = std::make_shared<const std::vector<Bytes>>(
      revoked_set->begin(), revoked_set->end());
  const std::vector<Bytes>& revoked_sorted = *revoked_list;
  std::vector<Bytes> not_revoked;
  not_revoked.reserve(universe->size() - std::min(universe->size(),
                                                  revoked_set->size()));
  for (const Bytes& key : *universe) {
    if (!revoked_set->contains(key)) not_revoked.push_back(key);
  }

  FilterCascade cascade =
      FilterCascade::Build(revoked_sorted, not_revoked, options_.cascade);
  cascade.sequence = ++sequence_;

  Epoch epoch;
  epoch.sequence = sequence_;
  epoch.published_at = now;
  epoch.universe = universe;

  // Delta against the previous epoch's revoked set (sorted — std::set
  // iteration — so the blob is deterministic).
  if (!history_.empty()) {
    const KeySet& previous = *history_.back().revoked;
    CascadeDelta delta;
    delta.from_sequence = sequence_ - 1;
    delta.to_sequence = sequence_;
    std::set_difference(revoked_set->begin(), revoked_set->end(),
                        previous.begin(), previous.end(),
                        std::back_inserter(delta.added));
    std::set_difference(previous.begin(), previous.end(), revoked_set->begin(),
                        revoked_set->end(), std::back_inserter(delta.removed));
    epoch.added = delta.added.size();
    epoch.removed = delta.removed.size();
    epoch.delta_blob = delta.Serialize();
  }

  epoch.revoked = std::move(revoked_set);
  epoch.revoked_list = std::move(revoked_list);

  current_ = std::make_shared<const FilterCascade>(std::move(cascade));
  snapshot_blob_ = std::make_shared<const Bytes>(current_->Serialize());

  PublishStats stats;
  stats.sequence = sequence_;
  stats.levels = current_->NumLevels();
  stats.snapshot_bytes = snapshot_blob_->size();
  stats.filter_bytes = current_->FilterBytes();
  stats.delta_bytes = epoch.delta_blob.size();
  stats.added = epoch.added;
  stats.removed = epoch.removed;
  stats.revoked = epoch.revoked->size();

  metrics_->builds.Increment();
  metrics_->delta_bytes.Add(epoch.delta_blob.size());
  metrics_->levels.Set(static_cast<std::int64_t>(stats.levels));
  metrics_->bytes.Set(static_cast<std::int64_t>(stats.snapshot_bytes));

  history_.push_back(std::move(epoch));
  while (history_.size() > options_.max_delta_history) history_.pop_front();
  return stats;
}

const Publisher::Epoch* Publisher::FindEpoch(std::uint64_t seq) const {
  if (history_.empty() || seq < history_.front().sequence ||
      seq > history_.back().sequence)
    return nullptr;
  return &history_[seq - history_.front().sequence];
}

std::shared_ptr<const Publisher::KeySet> Publisher::RevokedAt(
    std::uint64_t seq) const {
  const Epoch* epoch = FindEpoch(seq);
  return epoch == nullptr ? nullptr : epoch->revoked;
}

std::shared_ptr<const std::vector<Bytes>> Publisher::RevokedListAt(
    std::uint64_t seq) const {
  const Epoch* epoch = FindEpoch(seq);
  return epoch == nullptr ? nullptr : epoch->revoked_list;
}

util::Timestamp Publisher::PublishTimeAt(std::uint64_t seq) const {
  const Epoch* epoch = FindEpoch(seq);
  return epoch == nullptr ? 0 : epoch->published_at;
}

std::size_t Publisher::AddedAt(std::uint64_t seq) const {
  const Epoch* epoch = FindEpoch(seq);
  return epoch == nullptr ? 0 : epoch->added;
}

std::shared_ptr<const std::vector<Bytes>> Publisher::UniverseAt(
    std::uint64_t seq) const {
  const Epoch* epoch = FindEpoch(seq);
  return epoch == nullptr ? nullptr : epoch->universe;
}

net::HttpResponse Publisher::Respond(const UpdateResponse& response) {
  net::HttpResponse http;
  http.status = 200;
  http.body = response.Serialize();
  metrics_->bytes_served.Add(http.body.size());
  return http;
}

net::HttpResponse Publisher::HandleHttp(const net::HttpRequest& request,
                                        util::Timestamp /*now*/) {
  if (current_ == nullptr) {
    net::HttpResponse http;
    http.status = 503;  // nothing published yet
    http.retry_after = 60;
    return http;
  }
  if (request.path == kSnapshotPath) {
    UpdateResponse response;
    response.kind = UpdateResponse::Kind::kSnapshot;
    response.snapshot = *snapshot_blob_;
    metrics_->snapshot_serves.Increment();
    return Respond(response);
  }
  const std::string_view prefix = kDeltaPathPrefix;
  if (request.path.size() > prefix.size() &&
      std::string_view(request.path).substr(0, prefix.size()) == prefix) {
    const std::string_view from_str =
        std::string_view(request.path).substr(prefix.size());
    std::uint64_t from = 0;
    const auto [ptr, ec] =
        std::from_chars(from_str.data(), from_str.data() + from_str.size(), from);
    const bool parsed = ec == std::errc() && ptr == from_str.data() + from_str.size();

    if (parsed && from == sequence_) {
      UpdateResponse response;  // kUpToDate
      metrics_->up_to_date_serves.Increment();
      return Respond(response);
    }
    // Deltas apply when the client's *successor* epoch is still retained
    // and the run is cheaper than the snapshot-fallback bound.
    if (parsed && from < sequence_ && FindEpoch(from + 1) != nullptr &&
        !FindEpoch(from + 1)->delta_blob.empty()) {
      UpdateResponse response;
      response.kind = UpdateResponse::Kind::kDeltas;
      std::size_t total = 0;
      bool usable = true;
      for (std::uint64_t seq = from + 1; seq <= sequence_; ++seq) {
        const Epoch* epoch = FindEpoch(seq);
        if (epoch == nullptr || epoch->delta_blob.empty()) {
          usable = false;
          break;
        }
        total += epoch->delta_blob.size();
        auto delta = CascadeDelta::Deserialize(epoch->delta_blob);
        response.deltas.push_back(std::move(*delta));
      }
      if (usable && static_cast<double>(total) <=
                        options_.snapshot_fallback_fraction *
                            static_cast<double>(snapshot_blob_->size())) {
        metrics_->delta_serves.Increment();
        return Respond(response);
      }
    }
    // Too stale, unparseable, or deltas not worth it: full snapshot.
    UpdateResponse response;
    response.kind = UpdateResponse::Kind::kSnapshot;
    response.snapshot = *snapshot_blob_;
    metrics_->snapshot_serves.Increment();
    return Respond(response);
  }
  net::HttpResponse http;
  http.status = 404;
  return http;
}

void Publisher::ServeThrough(serve::Frontend& frontend) {
  frontend.AddRoute("/cascade/",
                    [this](const net::HttpRequest& request, util::Timestamp now) {
                      return HandleHttp(request, now);
                    });
}

}  // namespace rev::cascade
