// SinkChain concurrency contract: deliver_slot()/deliver_finish() run on
// exactly one collector thread, but add()/detach() may be called from any
// thread at any time — the fleet orchestrator re-applies sink factories
// while cells restart, and the distributed worker attaches/detaches its
// row collectors as leases come and go.  These tests hammer that boundary
// (run them under the asan preset to catch lifetime bugs) and pin down
// the name-allocation rules: auto-generated names never repeat, duplicate
// explicit names get a numeric suffix, and a name freed by detach can be
// taken again.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "nrscope/slot_sink.h"

namespace nrs {
namespace {

/// Counts deliveries; optionally spins briefly so a detach() has a real
/// window to race the in-flight fan-out.
class CountingSink : public SlotSink {
 public:
  explicit CountingSink(std::atomic<std::uint64_t>* live = nullptr)
      : live_(live) {
    if (live_ != nullptr) {
      live_->fetch_add(1);
    }
  }
  ~CountingSink() override {
    if (live_ != nullptr) {
      live_->fetch_sub(1);
    }
  }

  void on_slot(const SlotResult&) override {
    slots_.fetch_add(1);
    // A few hundred ns of work inside the delivery, so concurrent
    // detaches overlap the fan-out instead of slotting between calls.
    volatile int spin = 0;
    while (spin < 50) {
      spin = spin + 1;
    }
  }
  void on_finish() override { finishes_.fetch_add(1); }

  [[nodiscard]] std::uint64_t slots() const { return slots_.load(); }
  [[nodiscard]] std::uint64_t finishes() const { return finishes_.load(); }

 private:
  std::atomic<std::uint64_t> slots_{0};
  std::atomic<std::uint64_t> finishes_{0};
  std::atomic<std::uint64_t>* live_;
};

SlotResult slot(std::uint64_t index) {
  SlotResult result;
  result.slot = index;
  return result;
}

TEST(SinkChain, DetachRacesInFlightDeliverWithoutLosingSinks) {
  SinkChain chain;
  std::atomic<std::uint64_t> live{0};

  // One stable sink that must see every slot no matter what churns
  // around it.
  auto stable = std::make_shared<CountingSink>(&live);
  ASSERT_EQ(chain.add("stable", stable), "stable");

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> delivered{0};

  // Collector thread: the single deliver_slot() caller.
  std::thread collector([&] {
    std::uint64_t index = 0;
    while (!stop.load()) {
      chain.deliver_slot(slot(index++));
      delivered.fetch_add(1);
    }
  });

  // Churn threads: attach and detach ephemeral sinks as fast as possible
  // while deliveries are in flight.
  std::vector<std::thread> churners;
  std::atomic<std::uint64_t> churned{0};
  for (int t = 0; t < 3; ++t) {
    churners.emplace_back([&, t] {
      const std::string name = "ephemeral" + std::to_string(t);
      while (!stop.load()) {
        const std::string registered =
            chain.add(name, std::make_shared<CountingSink>(&live));
        EXPECT_FALSE(registered.empty());
        EXPECT_TRUE(chain.detach(registered));
        churned.fetch_add(1);
      }
    });
  }

  // Run until the race had thousands of chances to fire.
  while (delivered.load() < 2000 || churned.load() < 2000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  collector.join();
  for (std::thread& churner : churners) {
    churner.join();
  }

  chain.deliver_finish();
  // Only the stable sink remains; every churned sink was destroyed.
  EXPECT_EQ(chain.size(), 1u);
  EXPECT_EQ(live.load(), 1u);
  EXPECT_EQ(stable->slots(), delivered.load());
  EXPECT_EQ(stable->finishes(), 1u);
}

TEST(SinkChain, AutoGeneratedNamesNeverRepeatAcrossDetach) {
  SinkChain chain;
  const std::string first = chain.add({}, std::make_shared<CountingSink>());
  ASSERT_FALSE(first.empty());
  ASSERT_TRUE(chain.detach(first));
  // Re-adding anonymously after a detach must NOT recycle the old name:
  // a metrics reader aggregating `pipeline.sink.<name>.errors` would
  // silently merge two different sinks' histories.
  const std::string second = chain.add({}, std::make_shared<CountingSink>());
  EXPECT_NE(second, first);
  EXPECT_EQ(chain.names(), std::vector<std::string>{second});
}

TEST(SinkChain, DuplicateExplicitNamesGetSuffixesAndFreedNamesAreReusable) {
  SinkChain chain;
  EXPECT_EQ(chain.add("csv", std::make_shared<CountingSink>()), "csv");
  const std::string dup = chain.add("csv", std::make_shared<CountingSink>());
  EXPECT_EQ(dup, "csv#2");
  // Per-sink metrics stay distinct under the suffixed name.
  EXPECT_EQ(chain.size(), 2u);

  // Detaching the original frees its name for an explicit re-add.
  ASSERT_TRUE(chain.detach("csv"));
  EXPECT_EQ(chain.add("csv", std::make_shared<CountingSink>()), "csv");
  ASSERT_EQ(chain.size(), 2u);

  // detach() is by exact registered name; the base name does not match
  // the suffixed entry.
  ASSERT_TRUE(chain.detach("csv"));
  EXPECT_FALSE(chain.detach("csv"));
  EXPECT_TRUE(chain.detach("csv#2"));
  EXPECT_TRUE(chain.empty());
}

TEST(SinkChain, ConcurrentReAddUnderSameNameKeepsCountersDistinct) {
  MetricsRegistry registry;
  SinkChain chain(&registry, "test.");
  std::atomic<bool> stop{false};

  std::thread collector([&] {
    std::uint64_t index = 0;
    while (!stop.load()) {
      chain.deliver_slot(slot(index++));
    }
  });

  // Two threads fight over the SAME explicit name; the suffix rule must
  // keep every registered name unique even under contention.
  std::atomic<std::uint64_t> adds{0};
  std::vector<std::thread> fighters;
  for (int t = 0; t < 2; ++t) {
    fighters.emplace_back([&] {
      while (!stop.load()) {
        const std::string registered =
            chain.add("shared", std::make_shared<CountingSink>());
        ASSERT_FALSE(registered.empty());
        adds.fetch_add(1);
        ASSERT_TRUE(chain.detach(registered));
      }
    });
  }
  while (adds.load() < 2000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  collector.join();
  for (std::thread& fighter : fighters) {
    fighter.join();
  }
  EXPECT_TRUE(chain.empty());
}

}  // namespace
}  // namespace nrs
