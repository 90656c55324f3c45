// Jittered exponential backoff for reconnect paths.  Every client that
// redials a server (TelemetryStreamClient, FleetWorker, a standby
// coordinator tailing its primary) keeps one RedialSchedule, so a mass
// failover — e.g. a whole fleet of workers losing their coordinator at
// once — spreads its reconnect attempts over a window instead of
// stampeding the new primary on the same deterministic schedule.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "common/rng.h"

namespace nrs {

/// Exponential backoff schedule with multiplicative jitter.  Attempt 0
/// waits `initial_s`; each further consecutive failure multiplies the
/// base delay by `factor` up to `max_s`.  `jitter` in [0, 1] picks the
/// actual delay uniformly from [base * (1 - jitter), base] — full base is
/// the worst case, so existing timeout math stays valid.
struct BackoffPolicy {
  double initial_s = 0.05;
  double max_s = 1.0;
  double factor = 2.0;
  double jitter = 0.5;
};

/// Deterministic (un-jittered) base delay for the given consecutive
/// failure count: initial * factor^attempt, capped at max_s.
inline double backoff_base_delay(const BackoffPolicy& policy,
                                 unsigned attempt) {
  double base = policy.initial_s;
  for (unsigned i = 0; i < attempt && base < policy.max_s; ++i) {
    base *= policy.factor;
  }
  return std::min(base, policy.max_s);
}

/// The actual delay to sleep before reconnect attempt `attempt`:
/// uniformly drawn from [base * (1 - jitter), base].
inline double jittered_backoff_delay(const BackoffPolicy& policy,
                                     unsigned attempt, Rng& rng) {
  const double base = backoff_base_delay(policy, attempt);
  const double jitter = std::clamp(policy.jitter, 0.0, 1.0);
  if (jitter <= 0.0) {
    return base;
  }
  return rng.uniform(base * (1.0 - jitter), base);
}

/// Per-instance jitter seed: the object's address mixed with the
/// monotonic clock, so identically configured peers still draw
/// de-correlated schedules.
inline std::uint64_t derive_jitter_seed(const void* self) {
  return reinterpret_cast<std::uintptr_t>(self) ^
         static_cast<std::uint64_t>(
             std::chrono::steady_clock::now().time_since_epoch().count());
}

/// One peer's redial schedule: the policy, a per-instance jitter RNG, the
/// consecutive-failure count and the time the next dial may start.
class RedialSchedule {
 public:
  using Clock = std::chrono::steady_clock;

  explicit RedialSchedule(const BackoffPolicy& policy)
      : policy_(policy), rng_(derive_jitter_seed(this)) {}

  /// True once the next dial may start (at once for a fresh schedule).
  [[nodiscard]] bool due(Clock::time_point now) const {
    return now >= next_attempt_;
  }
  /// Hold the next dial one jittered delay past `now` and escalate the
  /// delay after it: a failed (or abandoned) dial, or an attempt that
  /// schedules its successor up front.
  void back_off(Clock::time_point now) {
    next_attempt_ = now + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  jittered_backoff_delay(policy_, failures_,
                                                         rng_)));
    ++failures_;
  }
  /// A dial succeeded: the next back_off() starts from the initial delay
  /// again.  The next-attempt time stays where it is.
  void reset() { failures_ = 0; }

  /// Consecutive back_off() calls since the last reset().
  [[nodiscard]] unsigned failures() const { return failures_; }

 private:
  BackoffPolicy policy_;
  Rng rng_;
  unsigned failures_ = 0;
  Clock::time_point next_attempt_{};
};

}  // namespace nrs
