// Embedded telemetry history store: the serving substrate behind the wire
// query API (ROADMAP "telemetry history store + query serving layer").
// Decoded telemetry lands as (slot, value) rows in append-only columnar
// segments keyed by (cell, RNTI, metric); retention is a fixed ring of
// segments per series, recycled in place at segment granularity — eviction
// never allocates, never blocks the writer, and never stops ingest.
//
// Concurrency model (the reason queries never block the fan-out path):
//  - exactly ONE writer per series (the owning cell's pipeline engine
//    thread, via HistoryStoreSink).  Appends are lock-free: a relaxed slot
//    and value store followed by a release publish of the row count.
//  - any number of readers.  Each segment is a seqlock: a per-segment
//    generation counter is bumped to odd before the ring recycles it and
//    back to even after, so a reader that raced a recycle sees a changed
//    (or odd) generation, discards its copy, and treats the segment as
//    evicted — which is semantically what just happened to it.
//  - rows are std::atomic<std::uint64_t> (values bit_cast from double), so
//    the race between a recycling writer and a copying reader is data-race
//    free by construction; torn values are impossible and stale ones are
//    rejected by the generation check.
// The store-level series map takes a shared_mutex, exclusively only when a
// series is created — steady-state ingest and queries both read-lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/types.h"

namespace nrs {

/// What a row of a series measures.  Per-UE metrics are keyed by the UE's
/// C-RNTI; cell-level metrics use kStoreCellRnti so a wildcard top-K over
/// UEs can never double-count the cell rollup (and vice versa).
enum class StoreMetric : std::uint8_t {
  kDlBits = 0,     ///< new-data PDSCH TBS (retransmissions excluded)
  kUlBits = 1,     ///< PUSCH TBS
  kMcs = 2,        ///< MCS index of each decoded DCI
  kRetx = 3,       ///< 1 when the DCI was a retransmission, else 0
  kPrbs = 4,       ///< PRBs granted by each decoded DCI
  kCellDcis = 5,      ///< DCIs decoded in the slot (cell-level)
  kCellUsedPrbs = 6,  ///< PRBs granted to anyone in the slot (cell-level)
  kCellSparePrbs = 7, ///< PRBs left over in the slot (spare capacity)
};

inline constexpr std::uint8_t kStoreMetricCount = 8;
/// Pseudo-RNTI under which the cell-level series are filed.
inline constexpr Rnti kStoreCellRnti = 0xFFFD;
/// Wildcard cell index for cross-cell queries (top-K over the fleet).
inline constexpr std::uint32_t kStoreAnyCell = 0xFFFFFFFFu;

const char* to_string(StoreMetric metric);
[[nodiscard]] bool store_metric_valid(std::uint8_t raw);
/// Inverse of to_string (CLI parsing); nullopt on an unknown name.
[[nodiscard]] std::optional<StoreMetric> store_metric_from_string(
    std::string_view name);

/// Series identity: one cell's one RNTI's one metric.
struct SeriesKey {
  std::uint32_t cell = 0;
  Rnti rnti = kInvalidRnti;
  StoreMetric metric = StoreMetric::kDlBits;

  [[nodiscard]] bool operator==(const SeriesKey&) const = default;
  /// Dense total order for the series map (cell, rnti, metric).
  [[nodiscard]] std::uint64_t packed() const {
    return (static_cast<std::uint64_t>(cell) << 24) |
           (static_cast<std::uint64_t>(rnti) << 8) |
           static_cast<std::uint64_t>(metric);
  }
};

/// One (slot, value) observation.
struct StoreRow {
  std::uint64_t slot = 0;
  double value = 0.0;
  [[nodiscard]] bool operator==(const StoreRow&) const = default;
};

struct HistoryStoreConfig {
  /// Rows per columnar segment (the eviction granule).
  std::size_t rows_per_segment = 1024;
  /// Segments in each series' retention ring; a series retains between
  /// (segments-1) and segments full segments of rows.
  std::size_t segments_per_series = 8;
  /// Hard cap on distinct series (bounded memory under RNTI churn).
  std::size_t max_series = 8192;

  /// First violated constraint, or nullopt when usable.
  [[nodiscard]] std::optional<std::string> validate() const;
};

/// One series' segment ring.  Writer methods (append) must only be called
/// from the single owning writer thread; reader methods are safe from any
/// thread at any time.
class StoreSeries {
 public:
  StoreSeries(const SeriesKey& key, const HistoryStoreConfig& config,
              Counter* rows_evicted, Counter* segment_evictions);

  StoreSeries(const StoreSeries&) = delete;
  StoreSeries& operator=(const StoreSeries&) = delete;

  [[nodiscard]] const SeriesKey& key() const { return key_; }

  /// Append one row.  Slots must be non-decreasing (the pipeline delivers
  /// in slot order); lock-free and allocation-free.
  void append(std::uint64_t slot, double value);

  /// Copy every retained row with slot in [from, to) into `out`, oldest
  /// first.  Returns the number of rows appended to `out`.  Rows recycled
  /// mid-read are omitted (they were evicted).
  std::size_t read_range(std::uint64_t from, std::uint64_t to,
                         std::vector<StoreRow>& out) const;

  /// Fold every retained row with slot in [from, to): count, sum, max.
  struct Fold {
    std::uint64_t count = 0;
    double sum = 0.0;
    double max = 0.0;
    std::uint64_t first_slot = 0;
    std::uint64_t last_slot = 0;
  };
  [[nodiscard]] Fold fold_range(std::uint64_t from, std::uint64_t to) const;

  /// Rows currently retained (approximate under concurrent recycling).
  [[nodiscard]] std::size_t row_count() const;
  [[nodiscard]] std::uint64_t rows_appended() const {
    return rows_appended_.load(std::memory_order_relaxed);
  }

 private:
  /// Seqlock header of one segment in the ring.
  struct SegmentState {
    /// Even = stable, odd = being recycled; changes only on recycle.
    std::atomic<std::uint64_t> generation{0};
    /// Published row count (release on append, acquire on read).
    std::atomic<std::uint32_t> count{0};
  };

  /// Visit each stable row in [from, to): returns false if the segment
  /// was recycled mid-read (caller must discard side effects).
  template <typename RowFn>
  bool scan_segment(std::size_t seg, std::uint64_t from, std::uint64_t to,
                    RowFn&& fn) const;

  SeriesKey key_;
  std::size_t rows_per_segment_;
  std::size_t n_segments_;
  std::unique_ptr<SegmentState[]> segments_;
  /// Columnar row storage, n_segments_ * rows_per_segment_ atomics each;
  /// values are doubles bit_cast to u64.
  std::unique_ptr<std::atomic<std::uint64_t>[]> slots_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> values_;
  /// Writer-thread state: the segment being filled.
  std::size_t head_ = 0;
  std::atomic<std::uint64_t> rows_appended_{0};
  Counter* rows_evicted_;
  Counter* segment_evictions_;
};

/// The store: a concurrent map of series plus the store.* metrics.
class HistoryStore {
 public:
  /// `registry` (optional) receives store.rows_ingested,
  /// store.rows_evicted, store.segment_evictions, store.series,
  /// store.segments and store.series_rejected.
  explicit HistoryStore(HistoryStoreConfig config = {},
                        MetricsRegistry* registry = nullptr);

  HistoryStore(const HistoryStore&) = delete;
  HistoryStore& operator=(const HistoryStore&) = delete;

  [[nodiscard]] const HistoryStoreConfig& config() const { return config_; }

  /// Get-or-create the series for `key`.  The returned pointer is stable
  /// for the store's lifetime.  Returns nullptr when the series does not
  /// exist yet and creating it would exceed max_series (counted in
  /// store.series_rejected).  Writers call this once per series and cache
  /// the pointer; creation takes the exclusive lock, lookup is shared.
  StoreSeries* series(const SeriesKey& key);

  /// Lookup only; nullptr when absent.  Safe from any thread.
  [[nodiscard]] const StoreSeries* find_series(const SeriesKey& key) const;

  /// Record one ingested row in store.rows_ingested (writers call this
  /// alongside StoreSeries::append; kept separate so the series stays
  /// registry-agnostic).
  void note_rows_ingested(std::uint64_t n) { m_rows_ingested_->inc(n); }

  /// Snapshot of every live series key (sorted by packed key).
  [[nodiscard]] std::vector<SeriesKey> keys() const;

  /// Visit every series whose key matches (cell or kStoreAnyCell, metric).
  void for_each_series(
      std::uint32_t cell, StoreMetric metric,
      const std::function<void(const StoreSeries&)>& fn) const;

  [[nodiscard]] std::size_t series_count() const;

 private:
  HistoryStoreConfig config_;
  std::unique_ptr<MetricsRegistry> own_registry_;
  mutable std::shared_mutex mutex_;
  std::map<std::uint64_t, std::unique_ptr<StoreSeries>> series_;

  Counter* m_rows_ingested_ = nullptr;
  Counter* m_rows_evicted_ = nullptr;
  Counter* m_segment_evictions_ = nullptr;
  Counter* m_series_rejected_ = nullptr;
  Gauge* m_series_ = nullptr;
  Gauge* m_segments_ = nullptr;
};

}  // namespace nrs
