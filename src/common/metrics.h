// Lock-cheap metrics for the sniffer pipeline (observability of paper
// section 5.3.2 / Fig. 12): where does each slot's budget go?  Counters and
// gauges are single relaxed atomics; histograms are fixed-bucket arrays of
// atomics, so hot-path updates never take a lock.  A MetricsRegistry hands
// out stable references by name and can be snapshotted at any time from any
// thread; the resulting MetricsSnapshot is plain data that serializes to
// JSON or CSV for external consumption.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

namespace nrs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (queue depth, buffer occupancy, ...).
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket distribution.  `bounds` are ascending inclusive upper
/// bucket edges; one implicit overflow bucket catches everything above the
/// last edge.  Updates are a handful of relaxed atomic ops.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double value);

  /// Sum of the bucket counts.  Derived rather than stored, so a reader
  /// never sees more samples in the buckets than in the count.
  [[nodiscard]] std::uint64_t count() const;

  /// Default bucket edges for latencies in microseconds: roughly
  /// logarithmic from 1 us to 100 ms.
  static std::vector<double> latency_buckets_us();

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double min() const {
    return min_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double max() const {
    return max_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<double> bounds_;
  /// bounds_.size() + 1 buckets; the last one is the overflow bucket.
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// RAII timer: records the enclosed scope's duration (microseconds) into a
/// histogram on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& hist)
      : hist_(&hist), start_(std::chrono::steady_clock::now()) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() { hist_->observe(elapsed_us()); }

  [[nodiscard]] double elapsed_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

// ---- Snapshots: plain data, safe to copy and serialize anywhere. ----

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  std::int64_t value = 0;
};

struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 entries

  [[nodiscard]] double mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
  /// p in [0, 100]; linear interpolation inside the covering bucket.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double p50() const { return percentile(50.0); }
  [[nodiscard]] double p95() const { return percentile(95.0); }
  [[nodiscard]] double p99() const { return percentile(99.0); }
};

/// Point-in-time view of a whole registry.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// True when each of the three vectors is sorted by name.  Registry
  /// snapshots always are (the registry is name-ordered), filter()
  /// preserves the flag (a contiguous slice of a sorted range), and the
  /// wire decoder re-derives it.  Sorted snapshots answer find_*() by
  /// binary search and filter() by one lower_bound + contiguous copy
  /// instead of scanning every metric; hand-built unsorted snapshots
  /// keep the linear fallback.
  bool sorted_by_name = false;

  [[nodiscard]] const CounterSnapshot* find_counter(
      std::string_view name) const;
  [[nodiscard]] const GaugeSnapshot* find_gauge(std::string_view name) const;
  [[nodiscard]] const HistogramSnapshot* find_histogram(
      std::string_view name) const;

  /// Convenience: counter value, or 0 when absent.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;

  [[nodiscard]] std::string to_json() const;

  /// One row per metric: metric,kind,value,count,sum,min,max,p50,p95,p99.
  static std::string csv_header();
  [[nodiscard]] std::string to_csv() const;

  /// Sub-snapshot of the metrics whose name starts with `prefix` — e.g.
  /// filter("fleet.cell3.") is one cell's slice of a fleet registry.
  [[nodiscard]] MetricsSnapshot filter(std::string_view prefix) const;
};

class MetricsNamespace;

/// Name -> metric registry.  Registration takes a lock; returned references
/// stay valid for the registry's lifetime, so hot paths resolve their
/// metrics once and then update lock-free.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds =
                           Histogram::latency_buckets_us());

  /// A MetricsNamespace over this registry (see below): all metrics made
  /// through it get `prefix` prepended to their names.
  [[nodiscard]] MetricsNamespace with_prefix(std::string prefix);

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  mutable std::shared_mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Prefix view over a registry for per-entity metric families: metrics
/// created through the namespace share one prefix ("fleet.cell3."), so
/// call sites register "slots" instead of hand-concatenating the entity
/// name at every site.  Copyable and as cheap as the string it holds; the
/// returned metric references have the registry's lifetime as usual.
class MetricsNamespace {
 public:
  MetricsNamespace(MetricsRegistry& registry, std::string prefix)
      : registry_(&registry), prefix_(std::move(prefix)) {}

  Counter& counter(const std::string& name) {
    return registry_->counter(prefix_ + name);
  }
  Gauge& gauge(const std::string& name) {
    return registry_->gauge(prefix_ + name);
  }
  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds =
                           Histogram::latency_buckets_us()) {
    return registry_->histogram(prefix_ + name, std::move(bounds));
  }

  /// One level deeper: with_prefix("fleet.").nested("cell3.") ==
  /// with_prefix("fleet.cell3.").
  [[nodiscard]] MetricsNamespace nested(const std::string& suffix) const {
    return {*registry_, prefix_ + suffix};
  }

  [[nodiscard]] const std::string& prefix() const { return prefix_; }
  [[nodiscard]] MetricsRegistry& registry() const { return *registry_; }

 private:
  MetricsRegistry* registry_;
  std::string prefix_;
};

inline MetricsNamespace MetricsRegistry::with_prefix(std::string prefix) {
  return {*this, std::move(prefix)};
}

}  // namespace nrs
