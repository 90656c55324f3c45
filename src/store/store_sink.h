// Allocation-free ingest path from the sniffer pipeline into the history
// store: a SlotSink that translates each delivered SlotResult into store
// rows on the engine thread.  Per-UE series pointers are cached after
// first resolution, so the steady state performs zero heap allocations per
// slot (series creation — a map insert plus the ring preallocation — is
// warm-up, exactly like the pipeline's pool growth; verified by the
// store-attached case in test_alloc_steady_state).
#pragma once

#include <cstdint>
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
  /// Write the three cell-level series (kCellDcis / kCellUsedPrbs /
  /// kCellSparePrbs) only while the engine is tracking, so a resyncing
  /// cell does not record its blindness as spare capacity.
  bool cell_rows_only_when_tracking = true;
  /// UE-slot cache entries reserved up front (grows on demand; growth is
  /// warm-up, not steady state).
  std::size_t reserve_ues = 64;
};

class HistoryStoreSink : public SlotSink {
 public:
  /// `store` must outlive the sink.
  HistoryStoreSink(HistoryStore& store, const StoreSinkConfig& config);

  void on_slot(const SlotResult& result) override;

  [[nodiscard]] std::uint64_t rows_written() const { return rows_written_; }

 private:
  /// Cached per-UE series pointers, one entry per RNTI seen.  Linear scan:
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

  HistoryStore* store_;
  StoreSinkConfig config_;
  std::vector<UeSeries> ues_;
  StoreSeries* cell_dcis_ = nullptr;
  StoreSeries* cell_used_ = nullptr;
  StoreSeries* cell_spare_ = nullptr;
  std::uint64_t rows_written_ = 0;
};

}  // namespace nrs
