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

TEST(WorkerPool, RunBatchCoversAllIndices) {
  WorkerPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.run_batch(64, [&hits](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

// Back-to-back batches of different sizes: a thread still inside the
// previous batch must not take shards of the next one under the old size.
// Before run_batch waited for every participant to leave, this ran
// out-of-range shards or left the caller waiting forever.
TEST(WorkerPool, BackToBackBatchesRunEveryShardExactlyOnce) {
  WorkerPool pool(2);
  constexpr std::size_t kSizes[] = {2, 7, 3, 5, 2, 9};
  std::vector<std::atomic<int>> hits(9);
  std::atomic<int> out_of_range{0};
  for (int b = 0; b < 100000; ++b) {
    const std::size_t n = kSizes[b % 6];
    for (auto& h : hits) {
      h.store(0, std::memory_order_relaxed);
    }
    pool.run_batch(n, [&hits, &out_of_range, n](std::size_t i) {
      if (i < n) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      } else {
        out_of_range.fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "batch " << b << " shard " << i;
    }
    ASSERT_EQ(out_of_range.load(), 0) << "batch " << b;
  }
}

TEST(WorkerPool, SingleThreadPoolIsSequential) {
  // With one thread run_batch degenerates to an in-order loop — the
  // paper's "one thread" baseline in Fig. 12.
  WorkerPool pool(1);
  std::vector<std::size_t> order;
  pool.run_batch(10, [&order](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(WorkerPool, ZeroCountBatchIsNoop) {
  WorkerPool pool(2);
  bool ran = false;
  pool.run_batch(0, [&ran](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(WorkerPool, AtLeastOneThread) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(WorkerPool, ParallelBatchUsesMultipleThreads) {
  WorkerPool pool(4);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  pool.run_batch(16, [&](std::size_t) {
    const int now = ++concurrent;
    int old = peak.load();
    while (now > old && !peak.compare_exchange_weak(old, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    --concurrent;
  });
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

TEST(WorkerPool, RunBatchPropagatesExceptionAfterAllShardsRan) {
  WorkerPool pool(4);
  std::vector<std::atomic<int>> hits(16);
  EXPECT_THROW(pool.run_batch(16,
                              [&hits](std::size_t i) {
                                ++hits[i];
                                if (i == 5) {
                                  throw std::runtime_error("shard 5 boom");
                                }
                              }),
               std::runtime_error);
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1) << "every shard is attempted despite the throw";
  }
  // The pool stays usable after a failed batch.
  std::atomic<int> counter{0};
  pool.run_batch(8, [&counter](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 8);
}

TEST(WorkerPool, SequentialBatchMatchesParallelExceptionContract) {
  WorkerPool pool(1);
  std::vector<std::atomic<int>> hits(8);
  EXPECT_THROW(pool.run_batch(8,
                              [&hits](std::size_t i) {
                                ++hits[i];
                                if (i == 2) {
                                  throw std::runtime_error("boom");
                                }
                              }),
               std::runtime_error);
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
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
