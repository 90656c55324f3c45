// Allocation-free ingest path from the sniffer pipeline into the history
// store: a SlotSink that translates each delivered SlotResult into store
// rows on the engine thread.  Per-UE series pointers are cached after
// first resolution, so the steady state performs zero heap allocations per
// slot (series creation — a map insert plus the ring preallocation — is
// warm-up, exactly like the pipeline's pool growth; verified by the
// store-attached case in test_alloc_steady_state).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "nrscope/slot_sink.h"
#include "store/history_store.h"

namespace nrs {

struct StoreSinkConfig {
  std::uint32_t cell_index = 0;
  /// Carrier bandwidth; the per-slot spare-capacity row is
  /// max(0, n_prb - granted downlink PRBs) — the PRB-granularity
  /// approximation of the paper's section 5.4.1 RE accounting.
  unsigned n_prb = 51;
};

/// One slot's three cell-level values, the kCellDcis, kCellUsedPrbs and
/// kCellSparePrbs rows at kStoreCellRnti.
struct CellSlotRows {
  double dcis = 0.0;
  double used_prbs = 0.0;   ///< granted downlink PRBs, capped at n_prb
  double spare_prbs = 0.0;  ///< n_prb - used_prbs
};

/// The cell-level rows of `result` for an `n_prb` carrier, or nothing when
/// the engine is not tracking: a resyncing cell must not record its
/// blindness as spare capacity.
[[nodiscard]] std::optional<CellSlotRows> cell_slot_rows(
    const SlotResult& result, unsigned n_prb);

class HistoryStoreSink : public SlotSink {
 public:
  /// `store` must outlive the sink.
  HistoryStoreSink(HistoryStore& store, const StoreSinkConfig& config);

  void on_slot(const SlotResult& result) override;

  [[nodiscard]] std::uint64_t rows_written() const { return rows_written_; }

 private:
  /// Cached per-UE series pointers, one entry per C-RNTI seen (SI and RA
  /// RNTIs get no per-UE series).  Linear scan:
  /// a cell tracks at most a few dozen UEs, and the hit path allocates
  /// nothing.
  struct UeSeries {
    Rnti rnti = kInvalidRnti;
    StoreSeries* dl_bits = nullptr;
    StoreSeries* ul_bits = nullptr;
    StoreSeries* mcs = nullptr;
    StoreSeries* retx = nullptr;
    StoreSeries* prbs = nullptr;
  };

  UeSeries* ue_series(Rnti rnti);

  /// UE-slot cache entries reserved up front (grows on demand; growth is
  /// warm-up, not steady state).
  static constexpr std::size_t kReservedUes = 64;

  HistoryStore* store_;
  StoreSinkConfig config_;
  std::vector<UeSeries> ues_;
  StoreSeries* cell_dcis_ = nullptr;
  StoreSeries* cell_used_ = nullptr;
  StoreSeries* cell_spare_ = nullptr;
  std::uint64_t rows_written_ = 0;
};

}  // namespace nrs
