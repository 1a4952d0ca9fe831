#include "common/thread_pool.h"

#include <atomic>
#include <exception>

namespace dwqa {

ThreadPool::ThreadPool(size_t threads) {
  if (threads <= 1) return;  // Inline mode: no workers, serial semantics.
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this]() { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and drained.
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    // Inline mode: strict index order, same completion semantics as the
    // pooled path — a throwing index does not cancel the round, and the
    // lowest-index exception is rethrown once every index ran.
    std::exception_ptr first_error;
    for (size_t i = 0; i < n; ++i) {
      try {
        fn(i);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return;
  }

  // Shared state of one ParallelFor round. The caller blocks until
  // `done == n`, so capturing `fn` and the counters by reference is safe.
  struct Round {
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable done_cv;
    size_t done = 0;
    std::vector<std::exception_ptr> errors;
  };
  auto round = std::make_shared<Round>();
  round->errors.resize(n);

  auto drain = [round, n, &fn]() {
    for (;;) {
      size_t i = round->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        round->errors[i] = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lock(round->mu);
        ++round->done;
      }
      round->done_cv.notify_one();
    }
  };

  // Hand one dispenser loop to each worker; the caller runs one too, so
  // progress never depends on workers being idle.
  const size_t helpers = std::min(workers_.size(), n);
  for (size_t w = 0; w < helpers; ++w) Enqueue(drain);
  drain();
  {
    std::unique_lock<std::mutex> lock(round->mu);
    round->done_cv.wait(lock, [&]() { return round->done == n; });
  }
  // A worker may still hold the round after the join, and the last owner of
  // an exception frees it. Moving the errors out makes the caller that
  // owner, so no worker frees the exception the caller is reading.
  const std::vector<std::exception_ptr> errors = std::move(round->errors);
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace dwqa
