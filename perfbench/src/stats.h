// Window statistics for the whole-chain benchmark: percentiles of raw
// samples, ratios that keep their base, and window differences of
// MetricsRegistry snapshots.  Registry snapshots are only taken at
// quiescent points (pipeline drained), and every histogram window derives
// its count from the difference of the two bucket arrays, so a window
// never mixes a bucket from one moment with a count from another.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"

namespace perfbench {

/// Percentile p in [0, 100] of raw samples, linearly interpolated between
/// order statistics (rank p/100 * (n-1)).  Sorts `samples`; 0 when empty.
double percentile(std::vector<double>& samples, double p);

/// The highest of 99.9, 99, 95, 90, 75 and 50 that leaves at least ten
/// samples above it (50 when even that does not hold).
double tail_percentile(std::uint64_t n);

/// One timing distribution: median, p99 and the highest percentile with
/// at least ten samples beyond it, plus the sample count behind them.
struct Timing {
  std::uint64_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double tail_pct = 50.0;
  double tail = 0.0;
  std::size_t blocks = 1;  ///< > 1: statistics are medians over blocks
};

Timing summarize(std::vector<double> samples);

/// Summaries of consecutive blocks of `block` samples (a short remainder
/// joins the last full block), then the median of each statistic across
/// the blocks.  A burst of interference on the host moves a few blocks, not
/// the reported median.  `n` is the total sample count.
Timing block_summary(const std::vector<double>& samples, std::size_t block);

/// "p50 12.3 us, p99 45.6 us (n=4000)" — the second figure is the highest
/// percentile with at least ten samples beyond it.
std::string describe(const Timing& t, const char* unit);

/// A ratio that keeps its base.
struct Ratio {
  double num = 0.0;
  double den = 0.0;

  [[nodiscard]] double value() const { return den > 0.0 ? num / den : 0.0; }
  /// "0.0123 (123/10000)".
  [[nodiscard]] std::string str() const;
};

/// One histogram's increments between two snapshots.
struct HistogramWindow {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 buckets
  std::uint64_t count = 0;            ///< sum of `counts`
  double sum = 0.0;
  double max = 0.0;  ///< lifetime max: the overflow bucket's upper edge

  /// Percentile interpolated inside the covering bucket; the first
  /// bucket starts at 0 and the overflow bucket ends at `max`.
  [[nodiscard]] double percentile(double p) const;
};

/// Histogram bounds from 1 us to 1 s in 5 % steps.  The registry's
/// default latency buckets are a factor of 2 to 2.5 wide, so a percentile
/// interpolated inside one of them follows the bucket edges, not the
/// latency.  Register a histogram with these bounds before the component
/// that observes it is built (the registry keeps the first bounds).
std::vector<double> fine_latency_bounds_us();

/// `after - before` for one histogram; `before` may be null (window from
/// registration).
HistogramWindow histogram_window(const nrs::HistogramSnapshot* before,
                                 const nrs::HistogramSnapshot& after);

/// The difference of two registry snapshots.
class RegistryWindow {
 public:
  RegistryWindow() = default;
  RegistryWindow(nrs::MetricsSnapshot before, nrs::MetricsSnapshot after);

  /// Counter increment over the window (0 when absent).
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  /// Sum of counter increments over every counter whose name starts with
  /// `prefix` (a family such as net.frames_dropped.*).
  [[nodiscard]] std::uint64_t counter_family(std::string_view prefix) const;
  /// Histogram increments over the window (empty when absent).
  [[nodiscard]] HistogramWindow histogram(std::string_view name) const;

 private:
  nrs::MetricsSnapshot before_;
  nrs::MetricsSnapshot after_;
};

}  // namespace perfbench
