#include "common/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>

namespace nrs {
namespace {

TEST(WorkerPool, ExecutesSubmittedTasks) {
  WorkerPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) {
    f.wait();
  }
  EXPECT_EQ(counter.load(), 32);
}

TEST(WorkerPool, SingleThreadPoolIsSequential) {
  // One worker runs submitted tasks one at a time, in submission order.
  WorkerPool pool(1);
  std::vector<std::size_t> order;
  std::vector<std::future<void>> futures;
  for (std::size_t i = 0; i < 10; ++i) {
    futures.push_back(pool.submit([&order, i] { order.push_back(i); }));
  }
  for (auto& f : futures) {
    f.get();
  }
  std::vector<std::size_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(WorkerPool, AtLeastOneThread) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(WorkerPool, ParallelBatchUsesMultipleThreads) {
  // A batch of submitted tasks spreads over the pool's threads.
  WorkerPool pool(4);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.submit([&] {
      const int now = ++concurrent;
      int old = peak.load();
      while (now > old && !peak.compare_exchange_weak(old, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      --concurrent;
    }));
  }
  for (auto& f : futures) {
    f.get();
  }
  EXPECT_GT(peak.load(), 1);
}

TEST(WorkerPool, SubmitPropagatesTaskException) {
  WorkerPool pool(2);
  auto fut = pool.submit([] { throw std::runtime_error("task boom"); });
  try {
    fut.get();
    FAIL() << "the stored exception must rethrow on get()";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task boom");
  }
  // The worker that ran the throwing task is still alive.
  std::atomic<int> counter{0};
  pool.submit([&counter] { ++counter; }).get();
  EXPECT_EQ(counter.load(), 1);
}

TEST(WorkerPool, DestructorJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    WorkerPool pool(3);
    for (int i = 0; i < 8; ++i) {
      pool.submit([&counter] { ++counter; });
    }
  }  // destructor must wait for queued work or drop it without hanging
  SUCCEED();
}

}  // namespace
}  // namespace nrs
