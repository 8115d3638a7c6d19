#include "cascade/fleet.h"

#include <algorithm>

#include "net/retry.h"
#include "obs/metrics.h"

namespace rev::cascade {

namespace {

// Update-cadence mixture (weights need not sum to 1): a client draws its
// interval once at construction. It models a browser population: some
// aggressive hourly updaters, a mainstream daily cohort, and a long tail
// that updates weekly.
constexpr std::int64_t kCadenceSeconds[] = {
    3600, 6 * 3600, util::kSecondsPerDay, 7 * util::kSecondsPerDay};
const std::vector<double> kCadenceWeights = {0.10, 0.25, 0.45, 0.20};

constexpr net::RetryPolicy kPollRetry{.max_attempts = 3,
                                      .initial_backoff_seconds = 5.0,
                                      .max_backoff_seconds = 120.0,
                                      .jitter = 0.5};
constexpr double kPollTimeoutSeconds = 10.0;

// Ground-truth samples checked per applied update.
constexpr std::size_t kVerifySamples = 8;

}  // namespace

struct Fleet::Instruments {
  explicit Instruments(
      std::string_view label,
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global())
      : polls(registry.GetCounter("client.polls", label)),
        poll_failures(registry.GetCounter("client.poll_failures", label)),
        retries(registry.GetCounter("client.retries", label)),
        bytes_downloaded(registry.GetCounter("client.bytes_downloaded", label)),
        delta_updates(registry.GetCounter("client.delta_updates", label)),
        snapshot_updates(registry.GetCounter("client.snapshot_updates", label)),
        up_to_date_polls(registry.GetCounter("client.up_to_date_polls", label)),
        wrong_answers(registry.GetCounter("client.wrong_answers", label)),
        verified_lookups(registry.GetCounter("client.verified_lookups", label)),
        staleness_seconds(
            registry.GetHistogram("client.staleness_seconds", label)),
        window_seconds(
            registry.GetHistogram("client.vuln_window_seconds", label)) {}

  obs::Counter& polls;
  obs::Counter& poll_failures;
  obs::Counter& retries;
  obs::Counter& bytes_downloaded;
  obs::Counter& delta_updates;
  obs::Counter& snapshot_updates;
  obs::Counter& up_to_date_polls;
  obs::Counter& wrong_answers;
  obs::Counter& verified_lookups;
  obs::Histogram& staleness_seconds;
  obs::Histogram& window_seconds;
};

Fleet::Fleet(net::SimNet* net, Publisher* publisher, FleetOptions options)
    : net_(net),
      publisher_(publisher),
      options_(std::move(options)),
      metrics_label_("fleet=" + std::to_string(obs::NextInstanceId())),
      metrics_(std::make_unique<Instruments>(metrics_label_)) {
  util::Rng root(options_.seed);
  clients_.resize(options_.num_clients);
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    Client& client = clients_[i];
    client.rng = root.Fork(i);
    client.interval =
        kCadenceSeconds[client.rng.WeightedIndex(kCadenceWeights)];
  }
}

Fleet::~Fleet() = default;

Fleet::Totals Fleet::totals() const {
  Totals out;
  out.polls = metrics_->polls.Value();
  out.failed_polls = metrics_->poll_failures.Value();
  out.retries = metrics_->retries.Value();
  out.delta_updates = metrics_->delta_updates.Value();
  out.snapshot_updates = metrics_->snapshot_updates.Value();
  out.up_to_date_polls = metrics_->up_to_date_polls.Value();
  out.bytes_downloaded = metrics_->bytes_downloaded.Value();
  out.wrong_answers = metrics_->wrong_answers.Value();
  out.verified_lookups = metrics_->verified_lookups.Value();
  return out;
}

void Fleet::StepTo(util::Timestamp now) {
  if (!started_) {
    // First call primes the fleet: every client's first poll lands at a
    // per-client deterministic phase inside its own interval, so 10k
    // clients never stampede one instant.
    started_ = true;
    current_time_ = now;
    for (Client& client : clients_) {
      client.next_poll =
          now + static_cast<std::int64_t>(client.rng.NextBelow(
                    static_cast<std::uint64_t>(client.interval)));
    }
    return;
  }
  for (Client& client : clients_) {
    while (client.next_poll <= now) {
      Poll(client, client.next_poll);
      client.next_poll += client.interval;
    }
  }
  current_time_ = now;
}

void Fleet::Poll(Client& client, util::Timestamp now) {
  metrics_->polls.Increment();

  // Per-client jitter stream: decorrelates backoff across the fleet.
  net::RetryPolicy policy = kPollRetry;
  policy.seed = options_.seed ^ (client.rng.Next() | 1);

  const std::string url =
      options_.delta_url + std::to_string(client.state.sequence());
  const net::RetryResult result = net::GetWithRetry(
      *net_, url, now, policy, kPollTimeoutSeconds,
      [](const net::HttpResponse& response) {
        return UpdateResponse::Deserialize(response.body).has_value();
      });

  metrics_->retries.Add(static_cast<std::uint64_t>(result.attempts - 1));
  metrics_->bytes_downloaded.Add(result.total_bytes);

  if (!result.ok()) {
    metrics_->poll_failures.Increment();
    return;  // client rides on its stale state until the next cadence tick
  }

  const util::Timestamp applied_at = result.finished_at;
  auto update = UpdateResponse::Deserialize(result.fetch.response.body);
  if (!update) {  // validator admitted it; cannot happen, but fail closed
    metrics_->poll_failures.Increment();
    return;
  }

  const std::uint64_t old_sequence = client.state.sequence();
  switch (update->kind) {
    case UpdateResponse::Kind::kUpToDate:
      metrics_->up_to_date_polls.Increment();
      break;
    case UpdateResponse::Kind::kDeltas: {
      bool applied = true;
      for (const CascadeDelta& delta : update->deltas) {
        if (!client.state.ApplyDelta(delta)) {
          applied = false;
          break;
        }
      }
      if (!applied) {
        metrics_->poll_failures.Increment();
        return;
      }
      metrics_->delta_updates.Increment();
      break;
    }
    case UpdateResponse::Kind::kSnapshot: {
      auto cascade = FilterCascade::Deserialize(update->snapshot);
      if (!cascade) {
        metrics_->poll_failures.Increment();
        return;
      }
      // Share one decoded cascade across the fleet when consecutive
      // clients download the same sequence (the wire bytes above are
      // still accounted per client).
      if (cached_snapshot_ == nullptr ||
          cached_snapshot_sequence_ != cascade->sequence ||
          !(*cached_snapshot_ == *cascade)) {
        cached_snapshot_ = std::make_shared<const FilterCascade>(
            std::move(*cascade));
        cached_snapshot_sequence_ = cached_snapshot_->sequence;
      }
      client.state.ResetTo(cached_snapshot_);
      metrics_->snapshot_updates.Increment();
      break;
    }
  }

  // Vulnerability windows: revocations published in (old, new] were
  // exposed from their publish time until this client applied them.
  for (std::uint64_t seq = old_sequence + 1; seq <= client.state.sequence();
       ++seq) {
    const std::size_t added = publisher_->AddedAt(seq);
    const util::Timestamp published = publisher_->PublishTimeAt(seq);
    if (added == 0 || published == 0) continue;  // evicted or empty epoch
    const double window = static_cast<double>(
        std::max<util::Timestamp>(0, applied_at - published));
    windows_.Add(window, static_cast<double>(added));
    metrics_->window_seconds.RecordMany(
        static_cast<std::uint64_t>(window), added);
  }

  if (client.state.synced()) {
    const util::Timestamp published =
        publisher_->PublishTimeAt(client.state.sequence());
    if (published != 0) {
      const double stale =
          static_cast<double>(std::max<util::Timestamp>(0, applied_at - published));
      staleness_.Add(stale);
      metrics_->staleness_seconds.Record(static_cast<std::uint64_t>(stale));
    }
    Verify(client, applied_at);
  }
}

void Fleet::Verify(const Client& client, util::Timestamp /*now*/) {
  const std::uint64_t seq = client.state.sequence();
  const auto revoked = publisher_->RevokedAt(seq);
  const auto revoked_list = publisher_->RevokedListAt(seq);
  const auto universe = publisher_->UniverseAt(seq);
  if (revoked == nullptr || revoked_list == nullptr || universe == nullptr ||
      universe->empty())
    return;

  // Verification keys come from a deterministic side stream so the check
  // itself never perturbs the client's cadence/jitter randomness.
  util::Rng rng(options_.seed ^ (seq * 0x9E3779B97F4A7C15ull) ^
                client.state.overlay_size());
  // Universe side: catches false "revoked" (the exactness claim).
  for (std::size_t i = 0; i < kVerifySamples; ++i) {
    const Bytes& key = (*universe)[rng.NextBelow(universe->size())];
    const bool truth = revoked->contains(key);
    metrics_->verified_lookups.Increment();
    if (client.state.IsRevoked(key) != truth)
      metrics_->wrong_answers.Increment();
  }
  // Revoked side: catches missed revocations (no false negatives).
  if (!revoked_list->empty()) {
    for (std::size_t i = 0; i < kVerifySamples; ++i) {
      const Bytes& key = (*revoked_list)[rng.NextBelow(revoked_list->size())];
      metrics_->verified_lookups.Increment();
      if (!client.state.IsRevoked(key)) metrics_->wrong_answers.Increment();
    }
  }
}

util::Distribution Fleet::EndStaleness() const {
  util::Distribution distribution;
  for (const Client& client : clients_) {
    if (!client.state.synced()) continue;
    const util::Timestamp published =
        publisher_->PublishTimeAt(client.state.sequence());
    if (published == 0) continue;
    distribution.Add(static_cast<double>(
        std::max<util::Timestamp>(0, current_time_ - published)));
  }
  return distribution;
}

}  // namespace rev::cascade
