// Fixed-size thread pool for cold control work, such as the fleet's
// per-cell advance tasks: submit() queues one std::function job and
// returns a future.  It allocates (the function, the promise's shared
// state), so it stays off the per-slot hot path.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace nrs {

class WorkerPool {
 public:
  explicit WorkerPool(unsigned num_threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Enqueue a task; returns a future for its completion.  A task that
  /// throws has the exception stored in the future — future.get() rethrows
  /// it on the caller's thread instead of losing it on the worker.
  std::future<void> submit(std::function<void()> task);

  [[nodiscard]] unsigned size() const { return num_threads_; }

 private:
  struct Job {
    std::function<void()> fn;
    std::promise<void> done;
  };

  void worker_loop();

  unsigned num_threads_;

  std::mutex mutex_;
  std::condition_variable wake_;  ///< workers: job available or stop
  std::deque<Job> jobs_;
  bool stop_ = false;

  std::vector<std::thread> threads_;
};

}  // namespace nrs
