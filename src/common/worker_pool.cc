#include "common/worker_pool.h"

#include <algorithm>

namespace nrs {
namespace {

/// -1 everywhere except on pool workers, which set their index once at
/// thread start.  A thread belongs to at most one pool for its lifetime.
thread_local int t_worker_index = -1;
/// The pool the current thread works for (indices are only unique within
/// one pool, so per-pool scratch lookups must check ownership too).
thread_local const void* t_worker_pool = nullptr;

}  // namespace

int WorkerPool::current_worker_index() { return t_worker_index; }

int WorkerPool::index_in_pool() const {
  return t_worker_pool == this ? t_worker_index : -1;
}

WorkerPool::WorkerPool(unsigned num_threads)
    : num_threads_(std::max(1u, num_threads)) {
  threads_.reserve(num_threads_);
  for (unsigned i = 0; i < num_threads_; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
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

void WorkerPool::work_on_batch(std::unique_lock<std::mutex>& lock) {
  // Snapshot the descriptor; mutex_ is held by the caller.
  const auto* task = batch_task_;
  const std::size_t count = batch_count_;
  ++batch_workers_;
  std::size_t done_here = 0;
  std::exception_ptr error;
  lock.unlock();
  for (;;) {
    const std::size_t i =
        batch_next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count) {
      break;
    }
    try {
      (*task)(i);
    } catch (...) {
      if (!error) {
        error = std::current_exception();
      }
    }
    ++done_here;
  }
  lock.lock();
  if (error && !batch_error_) {
    batch_error_ = error;
  }
  batch_completed_ += done_here;
  --batch_workers_;
  if (batch_completed_ == count && batch_workers_ == 0) {
    batch_done_.notify_all();
  }
}

void WorkerPool::worker_loop(unsigned index) {
  t_worker_index = static_cast<int>(index);
  t_worker_pool = this;
  std::unique_lock lock(mutex_);
  for (;;) {
    wake_.wait(lock, [this] {
      return stop_ || !jobs_.empty() ||
             (batch_task_ != nullptr &&
              batch_next_.load(std::memory_order_relaxed) < batch_count_);
    });
    if (batch_task_ != nullptr &&
        batch_next_.load(std::memory_order_relaxed) < batch_count_) {
      work_on_batch(lock);
      continue;
    }
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

void WorkerPool::run_batch(std::size_t count,
                           const std::function<void(std::size_t)>& task) {
  if (count == 0) {
    return;
  }
  std::exception_ptr first_error;
  if (num_threads_ == 1 || count == 1) {
    // Sequential fallback keeps the parallel path's contract: every shard
    // is attempted, the first failure is rethrown after the batch.
    for (std::size_t i = 0; i < count; ++i) {
      try {
        task(i);
      } catch (...) {
        if (!first_error) {
          first_error = std::current_exception();
        }
      }
    }
  } else {
    std::unique_lock lock(mutex_);
    batch_task_ = &task;
    batch_count_ = count;
    batch_completed_ = 0;
    batch_error_ = nullptr;
    batch_next_.store(0, std::memory_order_relaxed);
    wake_.notify_all();
    // The caller pulls shards too (work_on_batch unlocks while working).
    work_on_batch(lock);
    batch_done_.wait(lock, [this] {
      return batch_completed_ == batch_count_ && batch_workers_ == 0;
    });
    batch_task_ = nullptr;
    first_error = batch_error_;
    batch_error_ = nullptr;
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

}  // namespace nrs
