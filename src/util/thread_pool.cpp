#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>

#include "obs/distrace.h"
#include "obs/metrics.h"

namespace rev::util {

namespace {

// Pool-wide instruments (docs/observability.md): `threadpool.queued` is the
// number of ParallelFor indices not yet executed across all pools;
// `threadpool.chunk_ns` times each claimed range, not each task body. Both
// are updated once per range, lock-free, so the instrumentation neither
// perturbs scheduling nor costs anything per index.
obs::Gauge& QueuedGauge() {
  static obs::Gauge& gauge =
      obs::MetricsRegistry::Global().GetGauge("threadpool.queued");
  return gauge;
}

obs::Histogram& ChunkHistogram() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram("threadpool.chunk_ns");
  return histogram;
}

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

unsigned ThreadPool::DefaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(unsigned threads)
    : threads_(threads == 0 ? DefaultThreads() : threads) {
  if (threads_ < 2) return;  // inline mode: no workers
  workers_.reserve(threads_);
  for (unsigned i = 0; i < threads_; ++i)
    workers_.emplace_back([this] { WorkerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::RunBatch() {
  for (;;) {
    const std::size_t begin = next_.fetch_add(grain_, std::memory_order_relaxed);
    if (begin >= count_ || failed_.load(std::memory_order_relaxed)) return;
    const std::size_t end = std::min(count_, begin + grain_);
    const std::uint64_t start = NowNs();
    std::size_t i = begin;
    try {
      for (; i < end; ++i) (*fn_)(i);
    } catch (...) {
      ++i;  // the throwing task ran; the rest of the range is skipped
      std::lock_guard<std::mutex> lock(mu_);
      if (!error_) error_ = std::current_exception();
      failed_.store(true, std::memory_order_relaxed);
    }
    ChunkHistogram().Record(NowNs() - start);
    QueuedGauge().Sub(static_cast<std::int64_t>(i - begin));
    executed_.fetch_add(i - begin, std::memory_order_relaxed);
  }
}

void ThreadPool::WorkerLoop() {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_start_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    RunBatch();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--active_ == 0) cv_done_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(std::size_t count,
                             const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  obs::Span span("threadpool.parallel_for");
  // The queue-depth gauge rises by the batch size and falls, per executed
  // range, by the tasks it ran; this guard settles the difference for
  // indices that never ran (a throw skips the remainder of the batch).
  executed_.store(0, std::memory_order_relaxed);
  QueuedGauge().Add(static_cast<std::int64_t>(count));
  struct Settle {
    ThreadPool* pool;
    std::size_t count;
    ~Settle() {
      const std::size_t executed =
          pool->executed_.load(std::memory_order_relaxed);
      QueuedGauge().Sub(static_cast<std::int64_t>(count - executed));
    }
  } settle{this, count};

  std::unique_lock<std::mutex> lock(mu_);
  fn_ = &fn;
  count_ = count;
  grain_ = std::max<std::size_t>(1, count / (threads_ * kRangesPerThread));
  next_.store(0, std::memory_order_relaxed);
  failed_.store(false, std::memory_order_relaxed);
  error_ = nullptr;
  if (workers_.empty()) {
    // Serial path: the ranges run in ascending order on this thread, so the
    // iteration order is a plain loop's.
    lock.unlock();
    RunBatch();
    lock.lock();
  } else {
    active_ = static_cast<unsigned>(workers_.size());
    ++generation_;
    cv_start_.notify_all();
    cv_done_.wait(lock, [&] { return active_ == 0; });
  }
  fn_ = nullptr;
  if (error_) {
    std::exception_ptr error = std::move(error_);
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

}  // namespace rev::util
