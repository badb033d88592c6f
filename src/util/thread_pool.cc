#include "util/thread_pool.h"

namespace setcover {

ThreadPool::ThreadPool(size_t threads) {
  if (threads <= 1) return;
  // The caller participates in RunIndexed, so `threads`-way parallelism
  // needs threads - 1 workers.
  workers_.reserve(threads - 1);
  for (size_t t = 0; t + 1 < threads; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::DrainJob(std::unique_lock<std::mutex>& lock) {
  while (job_.next < job_.count) {
    const size_t index = job_.next++;
    lock.unlock();
    std::exception_ptr error;
    try {
      (*job_.fn)(index);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error) job_.errors[index] = error;
    if (--job_.remaining == 0) {
      has_job_ = false;
      job_done_.notify_all();
    }
  }
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    // Wait for *claimable* work — a job whose indices are all claimed
    // but not yet finished must not wake us, or we would spin.
    work_ready_.wait(lock, [this] {
      return (has_job_ && job_.next < job_.count) || shutdown_;
    });
    if (has_job_) {
      DrainJob(lock);
    } else if (shutdown_) {
      return;
    }
  }
}

void ThreadPool::RunIndexed(size_t count,
                            const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  if (workers_.empty()) {
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  job_.fn = &fn;
  job_.count = count;
  job_.next = 0;
  job_.remaining = count;
  job_.errors.assign(count, nullptr);
  has_job_ = true;
  work_ready_.notify_all();
  // The calling thread helps drain, then waits for stragglers.
  DrainJob(lock);
  job_done_.wait(lock, [this] { return !has_job_; });
  for (std::exception_ptr& error : job_.errors) {
    if (error) {
      std::exception_ptr first = error;
      job_.errors.clear();
      lock.unlock();
      std::rethrow_exception(first);
    }
  }
  return;
}

}  // namespace setcover
