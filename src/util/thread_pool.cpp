#include "util/thread_pool.h"

#include <chrono>

#include "obs/distrace.h"
#include "obs/metrics.h"

namespace rev::util {

namespace {

// Pool-wide instruments (docs/observability.md): `threadpool.queued` is the
// number of ParallelFor indices not yet executed across all pools;
// `threadpool.task_ns` times each task body. Lock-free updates, so the
// instrumentation does not perturb scheduling.
obs::Gauge& QueuedGauge() {
  static obs::Gauge& gauge =
      obs::MetricsRegistry::Global().GetGauge("threadpool.queued");
  return gauge;
}

obs::Histogram& TaskHistogram() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram("threadpool.task_ns");
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
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count_ || failed_.load(std::memory_order_relaxed)) return;
    const std::uint64_t start = NowNs();
    try {
      (*fn_)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!error_) error_ = std::current_exception();
      failed_.store(true, std::memory_order_relaxed);
    }
    TaskHistogram().Record(NowNs() - start);
    QueuedGauge().Sub(1);
    executed_.fetch_add(1, std::memory_order_relaxed);
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
  // The queue-depth gauge rises by the batch size and falls per executed
  // task; this guard settles the difference for indices that never ran
  // (exception unwinds skip the remainder of the batch).
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

  if (workers_.empty()) {
    // Serial path: same iteration order and exception behavior as a loop.
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t start = NowNs();
      fn(i);
      TaskHistogram().Record(NowNs() - start);
      QueuedGauge().Sub(1);
      executed_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  fn_ = &fn;
  count_ = count;
  next_.store(0, std::memory_order_relaxed);
  failed_.store(false, std::memory_order_relaxed);
  error_ = nullptr;
  active_ = static_cast<unsigned>(workers_.size());
  ++generation_;
  cv_start_.notify_all();
  cv_done_.wait(lock, [&] { return active_ == 0; });
  fn_ = nullptr;
  if (error_) {
    std::exception_ptr error = std::move(error_);
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

}  // namespace rev::util
