#ifndef SETCOVER_UTIL_THREAD_POOL_H_
#define SETCOVER_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace setcover {

/// Fixed-size worker pool for the deterministic fan-out drivers: the
/// W > 1 runner of engine::Execute (one pipeline per shard) and the
/// parallel multi-run drivers (core/multi_run.h). The design goal is
/// *determinism*, not generic task scheduling: RunIndexed executes
/// fn(0..count-1) with each index run exactly once, and because every
/// index owns its seeded state the results are bit-identical to
/// sequential execution regardless of how indices land on threads.
///
/// Exceptions thrown by tasks are captured per index and the one with
/// the smallest index is rethrown after all tasks finish — again
/// independent of scheduling, so a failing parallel run fails the same
/// way at any thread count.
class ThreadPool {
 public:
  /// Builds a pool delivering `threads`-way parallelism including the
  /// calling thread (threads - 1 workers are spawned). 0 and 1 both
  /// mean "no workers": tasks run inline on the calling thread.
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(i) for every i in [0, count). The calling thread
  /// participates in draining the indices (capped by count). Blocks
  /// until every index completed, then rethrows the lowest-index
  /// captured exception, if any.
  void RunIndexed(size_t count, const std::function<void(size_t)>& fn);

  /// Worker threads owned by the pool (0 means inline execution).
  size_t ThreadCount() const { return workers_.size(); }

 private:
  struct Job {
    const std::function<void(size_t)>* fn = nullptr;
    size_t count = 0;
    size_t next = 0;       // next index to claim
    size_t remaining = 0;  // indices not yet completed
    std::vector<std::exception_ptr> errors;
  };

  void WorkerLoop();
  /// Claims and runs indices of the current job until none remain.
  /// Caller must hold `mutex_`; the lock is released around fn calls.
  void DrainJob(std::unique_lock<std::mutex>& lock);

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable job_done_;
  std::vector<std::thread> workers_;
  Job job_;
  bool has_job_ = false;
  bool shutdown_ = false;
};

}  // namespace setcover

#endif  // SETCOVER_UTIL_THREAD_POOL_H_
