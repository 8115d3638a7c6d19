// A fixed-size worker pool with a bulk ParallelFor API, used to fan the
// scan-pipeline's chain verification and the revocation crawler's CRL
// fetch+parse across cores (docs/parallelism.md). Work is claimed in small
// contiguous index ranges through one atomic cursor — about 16 ranges per
// thread, so load imbalance (one 22 MB CRL among hundreds of tiny ones) does
// not idle workers, while a 200 k-leaf batch pays the claim and the
// instrument updates per range, not per index. Exceptions thrown by tasks
// are captured and the first one is rethrown on the calling thread after
// the batch drains.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rev::util {

class ThreadPool {
 public:
  // `threads` == 0 picks DefaultThreads() (hardware concurrency);
  // `threads` == 1 spawns no workers at all and ParallelFor degrades to a
  // plain loop on the calling thread — the exact serial execution path.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Number of threads doing work (>= 1; 1 means inline execution).
  unsigned threads() const { return threads_; }

  // Runs fn(i) for every i in [0, count), blocking until all invocations
  // complete. Workers claim ranges of max(1, count / (threads * 16))
  // consecutive indices and run each range in ascending order; which worker
  // runs which range is unspecified, so callers that need deterministic
  // output must write results into per-index slots and merge after the call
  // returns. If an invocation throws, the rest of its range and every
  // unclaimed range are skipped, and the first captured exception is
  // rethrown here once the batch drains.
  // Not reentrant: must not be called from inside a task, and only one
  // ParallelFor may be in flight per pool at a time.
  void ParallelFor(std::size_t count,
                   const std::function<void(std::size_t)>& fn);

  // hardware_concurrency(), clamped to >= 1 (the API may report 0).
  static unsigned DefaultThreads();

 private:
  // Ranges per thread in one batch: enough that a slow range does not
  // leave the other workers idle for long, few enough that claiming and
  // instrumenting a range costs nothing next to running it.
  static constexpr std::size_t kRangesPerThread = 16;

  void WorkerLoop();
  // Claims and runs ranges until the batch is exhausted or has failed; the
  // serial path runs it on the calling thread.
  void RunBatch();

  const unsigned threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  // Batch state, valid while a ParallelFor is in flight (guarded by mu_
  // except where noted).
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t count_ = 0;
  std::size_t grain_ = 1;              // indices per claimed range
  std::atomic<std::size_t> next_{0};   // first index of the next range
  std::atomic<std::size_t> executed_{0};  // tasks actually run this batch
  std::atomic<bool> failed_{false};    // a task threw; skip remaining work
  std::exception_ptr error_;           // first exception, rethrown by caller
  unsigned active_ = 0;                // workers still inside RunBatch
  std::uint64_t generation_ = 0;       // bumped per batch to wake workers
  bool stop_ = false;
};

}  // namespace rev::util
