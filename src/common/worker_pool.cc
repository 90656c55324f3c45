#include "common/worker_pool.h"

#include <algorithm>

namespace nrs {

WorkerPool::WorkerPool(unsigned num_threads)
    : num_threads_(std::max(1u, num_threads)) {
  threads_.reserve(num_threads_);
  for (unsigned i = 0; i < num_threads_; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& t : threads_) {
    t.join();
  }
}

void WorkerPool::worker_loop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    wake_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
    if (!jobs_.empty()) {
      Job job = std::move(jobs_.front());
      jobs_.pop_front();
      lock.unlock();
      try {
        job.fn();
        job.done.set_value();
      } catch (...) {
        job.done.set_exception(std::current_exception());
      }
      lock.lock();
      continue;
    }
    if (stop_) {
      return;
    }
  }
}

std::future<void> WorkerPool::submit(std::function<void()> task) {
  Job job;
  job.fn = std::move(task);
  std::future<void> fut = job.done.get_future();
  {
    std::lock_guard lock(mutex_);
    if (stop_) {
      // Pool already shut down (submit raced destruction): satisfy the
      // future immediately so the caller does not hang.
      job.done.set_value();
      return fut;
    }
    jobs_.push_back(std::move(job));
  }
  wake_.notify_one();
  return fut;
}

}  // namespace nrs
