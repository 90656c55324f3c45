// Fixed-size thread pool.  NR-Scope's scheduler hands each slot to an idle
// worker; inside a worker, DCI decoding for the known-UE list is sharded
// across pool tasks (paper section 4, Fig. 4 and Fig. 12).
//
// Two execution paths with different cost models:
//  - submit(): queue one std::function job, get a future.  Allocates (the
//    function, the promise's shared state) — fine for cold control work
//    like the fleet's per-cell advance tasks.
//  - run_batch(): shard a batch across the pool through one shared
//    descriptor and an atomic index dispenser.  Zero heap allocations —
//    this is the per-TTI DCI decode path (hot-path memory discipline,
//    DESIGN.md).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
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

  /// Run `count` tasks produced by `task(i)` and wait for all of them.
  /// With a single-thread pool this degenerates to sequential execution,
  /// which is the paper's "one thread" baseline in Fig. 12.  Every shard
  /// is attempted even when one throws; after the batch has drained the
  /// first captured exception is rethrown to the caller.  The calling
  /// thread participates in the batch.  Not reentrant: one batch at a
  /// time per pool.
  void run_batch(std::size_t count,
                 const std::function<void(std::size_t)>& task);

  [[nodiscard]] unsigned size() const { return num_threads_; }

  /// Index of the calling thread within its pool: 0..size()-1 on pool
  /// workers, -1 on any other thread (including a run_batch caller).
  /// Engines use this to pick a per-thread scratch workspace without
  /// thread_locals in the decode layer.
  [[nodiscard]] static int current_worker_index();

  /// Like current_worker_index(), but only for workers of THIS pool: a
  /// worker of some other pool (e.g. a pipeline demod worker calling into
  /// a scope's DCI batch) reports -1 here, so per-pool scratch arrays of
  /// size() + 1 entries indexed by `index_in_pool() + 1` never collide.
  [[nodiscard]] int index_in_pool() const;

 private:
  struct Job {
    std::function<void()> fn;
    std::promise<void> done;
  };

  void worker_loop(unsigned index);
  /// Pull shards from the live batch until the dispenser runs dry.
  /// `lock` must own mutex_ on entry; it is released while shards run and
  /// re-held on return.
  void work_on_batch(std::unique_lock<std::mutex>& lock);

  unsigned num_threads_;

  std::mutex mutex_;
  std::condition_variable wake_;        ///< workers: job or batch available
  std::condition_variable batch_done_;  ///< caller: batch fully completed
  std::deque<Job> jobs_;
  bool stop_ = false;

  // State of the (single) in-flight batch, guarded by mutex_ except where
  // noted.  batch_task_ != nullptr marks a live batch.
  const std::function<void(std::size_t)>* batch_task_ = nullptr;
  std::size_t batch_count_ = 0;
  std::atomic<std::size_t> batch_next_{0};  ///< shard dispenser (lock-free)
  std::size_t batch_completed_ = 0;
  /// Threads inside work_on_batch() for the live batch.  run_batch()
  /// returns only once this is 0: a thread still holding the batch's
  /// snapshot must not reach into the dispenser of the next batch.
  std::size_t batch_workers_ = 0;
  std::exception_ptr batch_error_;

  std::vector<std::thread> threads_;
};

}  // namespace nrs
