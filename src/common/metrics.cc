#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <sstream>

namespace nrs {
namespace {

/// fetch_add for atomic<double> via CAS (fetch_add on atomic<double> is
/// C++20 but not universally lock-free; the CAS loop is portable).
void atomic_add(std::atomic<double>& target, double delta) {
  double old = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(old, old + delta,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& target, double value) {
  double old = target.load(std::memory_order_relaxed);
  while (value < old && !target.compare_exchange_weak(
                            old, value, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double value) {
  double old = target.load(std::memory_order_relaxed);
  while (value > old && !target.compare_exchange_weak(
                            old, value, std::memory_order_relaxed)) {
  }
}

void append_json_number(std::ostringstream& os, double v) {
  if (std::isfinite(v)) {
    os << v;
  } else {
    os << "null";
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  std::sort(bounds_.begin(), bounds_.end());
}

void Histogram::observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto bucket =
      static_cast<std::size_t>(std::distance(bounds_.begin(), it));
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, value);
  atomic_min(min_, value);
  atomic_max(max_, value);
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const auto& c : counts_) {
    total += c.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<double> Histogram::latency_buckets_us() {
  return {1,    2,    5,    10,   20,    50,    100,   200,  500,
          1000, 2000, 5000, 10000, 20000, 50000, 100000};
}

double HistogramSnapshot::percentile(double p) const {
  if (count == 0) {
    return 0.0;
  }
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t in_bucket = counts[i];
    if (in_bucket == 0) {
      continue;
    }
    if (static_cast<double>(cumulative + in_bucket) >= rank) {
      double lo = i == 0 ? std::min(min, bounds.empty() ? min : bounds[0])
                         : bounds[i - 1];
      double hi = i < bounds.size() ? bounds[i] : max;
      lo = std::max(lo, min);
      hi = std::min(std::max(hi, lo), max);
      const double frac =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    cumulative += in_bucket;
  }
  return max;
}

namespace {

/// Exact-name lookup: binary search on sorted snapshots, linear fallback
/// on hand-built ones.
template <typename T>
const T* find_by_name(const std::vector<T>& items, std::string_view name,
                      bool sorted) {
  if (sorted) {
    const auto it = std::lower_bound(
        items.begin(), items.end(), name,
        [](const T& item, std::string_view n) { return item.name < n; });
    return (it != items.end() && it->name == name) ? &*it : nullptr;
  }
  for (const auto& item : items) {
    if (item.name == name) {
      return &item;
    }
  }
  return nullptr;
}

/// Prefix slice: every name starting with `prefix` is contiguous in a
/// sorted vector, so one lower_bound finds the run's start.
template <typename T>
void filter_by_prefix(const std::vector<T>& items, std::string_view prefix,
                      bool sorted, std::vector<T>& out) {
  if (sorted) {
    auto it = std::lower_bound(
        items.begin(), items.end(), prefix,
        [](const T& item, std::string_view p) { return item.name < p; });
    for (; it != items.end() && it->name.starts_with(prefix); ++it) {
      out.push_back(*it);
    }
    return;
  }
  for (const auto& item : items) {
    if (item.name.starts_with(prefix)) {
      out.push_back(item);
    }
  }
}

}  // namespace

const CounterSnapshot* MetricsSnapshot::find_counter(
    std::string_view name) const {
  return find_by_name(counters, name, sorted_by_name);
}

const GaugeSnapshot* MetricsSnapshot::find_gauge(std::string_view name) const {
  return find_by_name(gauges, name, sorted_by_name);
}

const HistogramSnapshot* MetricsSnapshot::find_histogram(
    std::string_view name) const {
  return find_by_name(histograms, name, sorted_by_name);
}

std::uint64_t MetricsSnapshot::counter_value(std::string_view name) const {
  const auto* c = find_counter(name);
  return c != nullptr ? c->value : 0;
}

MetricsSnapshot MetricsSnapshot::filter(std::string_view prefix) const {
  MetricsSnapshot out;
  out.sorted_by_name = sorted_by_name;
  filter_by_prefix(counters, prefix, sorted_by_name, out.counters);
  filter_by_prefix(gauges, prefix, sorted_by_name, out.gauges);
  filter_by_prefix(histograms, prefix, sorted_by_name, out.histograms);
  return out;
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream os;
  os << "{\"counters\":{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    os << (i ? "," : "") << '"' << counters[i].name << "\":"
       << counters[i].value;
  }
  os << "},\"gauges\":{";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    os << (i ? "," : "") << '"' << gauges[i].name << "\":"
       << gauges[i].value;
  }
  os << "},\"histograms\":{";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const auto& h = histograms[i];
    os << (i ? "," : "") << '"' << h.name << "\":{\"count\":" << h.count
       << ",\"sum\":";
    append_json_number(os, h.sum);
    os << ",\"min\":";
    append_json_number(os, h.count ? h.min : 0.0);
    os << ",\"max\":";
    append_json_number(os, h.count ? h.max : 0.0);
    os << ",\"p50\":";
    append_json_number(os, h.p50());
    os << ",\"p95\":";
    append_json_number(os, h.p95());
    os << ",\"p99\":";
    append_json_number(os, h.p99());
    os << ",\"buckets\":[";
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      os << (b ? "," : "") << '['
         << (b < h.bounds.size() ? h.bounds[b]
                                 : std::numeric_limits<double>::max())
         << ',' << h.counts[b] << ']';
    }
    os << "]}";
  }
  os << "}}";
  return os.str();
}

std::string MetricsSnapshot::csv_header() {
  return "metric,kind,value,count,sum,min,max,p50,p95,p99";
}

std::string MetricsSnapshot::to_csv() const {
  std::ostringstream os;
  for (const auto& c : counters) {
    os << c.name << ",counter," << c.value << ",,,,,,,\n";
  }
  for (const auto& g : gauges) {
    os << g.name << ",gauge," << g.value << ",,,,,,,\n";
  }
  for (const auto& h : histograms) {
    os << h.name << ",histogram,," << h.count << ',' << h.sum << ','
       << (h.count ? h.min : 0.0) << ',' << (h.count ? h.max : 0.0) << ','
       << h.p50() << ',' << h.p95() << ',' << h.p99() << '\n';
  }
  return os.str();
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::unique_lock lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) {
    slot = std::make_unique<Counter>();
  }
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::unique_lock lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) {
    slot = std::make_unique<Gauge>();
  }
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  std::unique_lock lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<Histogram>(std::move(bounds));
  }
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::shared_lock lock(mutex_);
  MetricsSnapshot snap;
  snap.sorted_by_name = true;  // std::map iteration is name-ordered
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.bounds = h->bounds();
    hs.counts.resize(hs.bounds.size() + 1);
    hs.count = 0;
    for (std::size_t i = 0; i < hs.counts.size(); ++i) {
      hs.counts[i] = h->bucket_count(i);
      hs.count += hs.counts[i];
    }
    hs.sum = h->sum();
    hs.min = h->min();
    hs.max = h->max();
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

}  // namespace nrs
