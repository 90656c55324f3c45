// Bounds and escalation of the shared jittered-backoff schedule: every
// reconnect path (stream client, fleet worker, standby coordinator) keeps
// one RedialSchedule and relies on the delay never leaving
// [base * (1 - jitter), base] and on the base escalating geometrically to
// the cap.
#include <gtest/gtest.h>

#include <chrono>

#include "common/backoff.h"
#include "common/rng.h"

namespace nrs {
namespace {

TEST(Backoff, BaseDelayEscalatesGeometricallyToCap) {
  const BackoffPolicy policy{0.1, 1.0, 2.0, 0.5};
  EXPECT_DOUBLE_EQ(backoff_base_delay(policy, 0), 0.1);
  EXPECT_DOUBLE_EQ(backoff_base_delay(policy, 1), 0.2);
  EXPECT_DOUBLE_EQ(backoff_base_delay(policy, 2), 0.4);
  EXPECT_DOUBLE_EQ(backoff_base_delay(policy, 3), 0.8);
  EXPECT_DOUBLE_EQ(backoff_base_delay(policy, 4), 1.0);  // capped
  EXPECT_DOUBLE_EQ(backoff_base_delay(policy, 100), 1.0);
}

TEST(Backoff, ZeroJitterIsExact) {
  const BackoffPolicy policy{0.25, 4.0, 2.0, 0.0};
  Rng rng(1);
  for (unsigned attempt = 0; attempt < 8; ++attempt) {
    EXPECT_DOUBLE_EQ(jittered_backoff_delay(policy, attempt, rng),
                     backoff_base_delay(policy, attempt))
        << "attempt " << attempt;
  }
}

TEST(Backoff, JitteredDelayStaysInsideBounds) {
  const BackoffPolicy policy{0.05, 2.0, 2.0, 0.5};
  Rng rng(42);
  for (unsigned attempt = 0; attempt < 12; ++attempt) {
    const double base = backoff_base_delay(policy, attempt);
    for (int i = 0; i < 200; ++i) {
      const double delay = jittered_backoff_delay(policy, attempt, rng);
      EXPECT_GE(delay, base * 0.5) << "attempt " << attempt;
      EXPECT_LE(delay, base) << "attempt " << attempt;
    }
  }
}

TEST(Backoff, JitterActuallySpreadsDelays) {
  // Two workers with different seeds must not redial on the same
  // deterministic schedule — that is the whole point of the jitter.
  const BackoffPolicy policy{0.1, 1.0, 2.0, 0.5};
  Rng a(7);
  Rng b(8);
  int differing = 0;
  for (unsigned attempt = 0; attempt < 20; ++attempt) {
    if (jittered_backoff_delay(policy, attempt, a) !=
        jittered_backoff_delay(policy, attempt, b)) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 15);
}

TEST(Backoff, JitterOutsideUnitIntervalIsClamped) {
  const BackoffPolicy policy{0.5, 0.5, 2.0, 3.0};  // jitter > 1
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const double delay = jittered_backoff_delay(policy, 0, rng);
    EXPECT_GE(delay, 0.0);
    EXPECT_LE(delay, 0.5);
  }
}

TEST(Backoff, RedialScheduleStaysInTheJitterWindowAndRestartsOnSuccess) {
  using Clock = RedialSchedule::Clock;
  const BackoffPolicy policy{0.05, 0.4, 2.0, 0.5};
  RedialSchedule redial(policy);
  const auto t0 = Clock::now();
  EXPECT_TRUE(redial.due(t0)) << "a fresh schedule dials at once";
  const auto after = [&](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  // The next dial is due no earlier than base * (1 - jitter) and no later
  // than base after the back_off() that scheduled it.
  const auto expect_window = [&](double base, unsigned failures) {
    EXPECT_FALSE(redial.due(after(base * 0.5 - 1e-6))) << failures;
    EXPECT_TRUE(redial.due(after(base + 1e-6))) << failures;
  };
  for (unsigned failures = 0; failures < 8; ++failures) {
    ASSERT_EQ(redial.failures(), failures);
    redial.back_off(t0);
    expect_window(backoff_base_delay(policy, failures), failures);
  }
  redial.reset();
  EXPECT_EQ(redial.failures(), 0u);
  redial.back_off(t0);
  expect_window(policy.initial_s, 0);
}

}  // namespace
}  // namespace nrs
