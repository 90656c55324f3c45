#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double tail_percentile(std::uint64_t n) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0 - 1e-9) {
      return p;
    }
  }
  return 50.0;
}

Timing summarize(std::vector<double> samples) {
  Timing t;
  t.n = samples.size();
  if (samples.empty()) {
    return t;
  }
  t.p50 = percentile(samples, 50.0);
  t.p99 = percentile(samples, 99.0);
  t.tail_pct = tail_percentile(t.n);
  t.tail = percentile(samples, t.tail_pct);
  return t;
}

Timing block_summary(const std::vector<double>& samples, std::size_t block) {
  Timing t;
  t.n = samples.size();
  if (samples.empty() || block == 0) {
    return t;
  }
  std::vector<double> p50, p99, tail;
  t.tail_pct = tail_percentile(std::min(block, samples.size()));
  std::size_t begin = 0;
  while (begin < samples.size()) {
    std::size_t end = std::min(begin + block, samples.size());
    if (samples.size() - end < block) {
      end = samples.size();
    }
    std::vector<double> part(
        samples.begin() + static_cast<std::ptrdiff_t>(begin),
        samples.begin() + static_cast<std::ptrdiff_t>(end));
    const Timing b = summarize(part);
    p50.push_back(b.p50);
    p99.push_back(b.p99);
    tail.push_back(percentile(part, t.tail_pct));
    begin = end;
  }
  t.p50 = percentile(p50, 50.0);
  t.p99 = percentile(p99, 50.0);
  t.tail = percentile(tail, 50.0);
  t.blocks = p50.size();
  return t;
}

std::string describe(const Timing& t, const char* unit) {
  char buf[200];
  int len = std::snprintf(buf, sizeof buf,
                          "p50 %.1f %s, p%g %.1f %s (n=%llu", t.p50, unit,
                          t.tail_pct, t.tail, unit,
                          static_cast<unsigned long long>(t.n));
  if (t.blocks > 1 && len > 0) {
    len += std::snprintf(buf + len, sizeof buf - static_cast<std::size_t>(len),
                         ", median of %zu blocks", t.blocks);
  }
  std::snprintf(buf + len, sizeof buf - static_cast<std::size_t>(len), ")");
  return buf;
}

std::string Ratio::str() const {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%.6g (%.0f/%.0f)", value(), num, den);
  return buf;
}

double HistogramWindow::percentile(double p) const {
  if (count == 0) {
    return 0.0;
  }
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) {
      continue;
    }
    if (static_cast<double>(cumulative + counts[i]) >= rank) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double hi = i < bounds.size() ? bounds[i] : std::max(max, lo);
      const double frac = (rank - static_cast<double>(cumulative)) /
                          static_cast<double>(counts[i]);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    cumulative += counts[i];
  }
  return max;
}

std::vector<double> fine_latency_bounds_us() {
  std::vector<double> bounds;
  for (double b = 1.0; b <= 1e6; b *= 1.05) {
    bounds.push_back(b);
  }
  return bounds;
}

HistogramWindow histogram_window(const nrs::HistogramSnapshot* before,
                                 const nrs::HistogramSnapshot& after) {
  HistogramWindow w;
  w.bounds = after.bounds;
  w.counts = after.counts;
  w.sum = after.sum;
  w.max = after.max;
  if (before != nullptr && before->counts.size() == after.counts.size()) {
    for (std::size_t i = 0; i < w.counts.size(); ++i) {
      w.counts[i] -= std::min(w.counts[i], before->counts[i]);
    }
    w.sum -= before->sum;
  }
  for (const std::uint64_t c : w.counts) {
    w.count += c;
  }
  return w;
}

RegistryWindow::RegistryWindow(nrs::MetricsSnapshot before,
                               nrs::MetricsSnapshot after)
    : before_(std::move(before)), after_(std::move(after)) {}

std::uint64_t RegistryWindow::counter(std::string_view name) const {
  const std::uint64_t a = after_.counter_value(name);
  const std::uint64_t b = before_.counter_value(name);
  return a > b ? a - b : 0;
}

std::uint64_t RegistryWindow::counter_family(std::string_view prefix) const {
  std::uint64_t total = 0;
  for (const auto& c : after_.counters) {
    if (std::string_view(c.name).starts_with(prefix)) {
      total += counter(c.name);
    }
  }
  return total;
}

HistogramWindow RegistryWindow::histogram(std::string_view name) const {
  const nrs::HistogramSnapshot* after = after_.find_histogram(name);
  if (after == nullptr) {
    return {};
  }
  return histogram_window(before_.find_histogram(name), *after);
}

}  // namespace perfbench
