// Cross-cell telemetry fan-in for the fleet orchestrator: every cell's
// pipeline pushes its in-order SlotResults here (from that cell's engine
// thread), and the aggregator maintains restart-surviving lifetime totals —
// per-cell CellCounters, new-data throughput windows, PRB utilization —
// plus each cell's last-seen slot per C-RNTI for the active-UE count.  UEs
// and throughput count plausible C-RNTIs only, as the engine's telemetry
// does; the DCI counters and utilization count every DCI.
// summary() renders a point-in-time FleetSummary (through
// summarize_fleet) with the spare-capacity ranking the paper's section
// 5.4.1 use case asks for, fleet-wide.  All per-cell counters also land in
// the registry under the fleet.cell<N>.* namespace.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/types.h"
#include "net/wire.h"
#include "nr/cell_config.h"
#include "nrscope/nrscope.h"
#include "nrscope/telemetry.h"

namespace nrs {

/// Span of a cell's throughput windows, and how recently a UE must have
/// had a DCI to count as active: one second of air at 30 kHz SCS.
inline constexpr std::uint64_t kFleetRateWindowSlots = 2000;

class FleetAggregator {
 public:
  /// `registry` receives fleet.slots / fleet.dcis / fleet.cell.restarts
  /// plus per-cell fleet.cell<N>.{slots,dcis,retx_dcis,restarts} counters
  /// and the fleet.cell<N>.active_ues gauge.
  explicit FleetAggregator(MetricsRegistry& registry);

  FleetAggregator(const FleetAggregator&) = delete;
  FleetAggregator& operator=(const FleetAggregator&) = delete;

  /// Register a cell before its first on_cell_slot().  The cell config
  /// supplies the capacity model (n_prb, TDD pattern) and the SCS for
  /// rate conversion.
  void add_cell(std::uint32_t cell_index, const CellConfig& cell);

  /// One delivered slot from cell `cell_index`'s pipeline.  Thread-safe:
  /// every cell's engine thread calls in concurrently.
  void on_cell_slot(std::uint32_t cell_index, const SlotResult& result);

  /// The supervisor restarted this cell (counted, surfaced in summaries
  /// and the fleet.cell.restarts metric; lifetime totals are NOT reset).
  void on_cell_restart(std::uint32_t cell_index);

  /// Lifetime slots delivered by one cell (across restarts).
  [[nodiscard]] std::uint64_t cell_slots(std::uint32_t cell_index) const;

  /// Every registered cell's counters and live values (each cell's state
  /// is left 0: supervision is the orchestrator's).
  [[nodiscard]] FleetSummary summary() const;

 private:
  struct CellAgg {
    explicit CellAgg(CellConfig cell_config)
        : cell(std::move(cell_config)), dl_rate(kFleetRateWindowSlots),
          ul_rate(kFleetRateWindowSlots) {}

    CellConfig cell;
    CellCounters counters;
    /// PRB-slot accounting for utilization: offered accumulates the cell's
    /// average DL capacity per slot (n_prb * n_dl / period — a fractional
    /// model so it stays correct across restart-induced TDD phase shifts),
    /// used accumulates granted DL PRBs.
    double used_prb_slots = 0.0;
    double offered_prb_slots = 0.0;
    RateWindow dl_rate;  ///< fed with lifetime slots, so restarts don't
    RateWindow ul_rate;  ///< rewind the window clock
    /// Cell lifetime slot of each RNTI's last DCI.  A UE that re-RACHes
    /// into a new C-RNTI after a restart is a new entry.
    std::map<Rnti, std::uint64_t> last_seen;

    Counter* m_slots = nullptr;
    Counter* m_dcis = nullptr;
    Counter* m_retx = nullptr;
    Counter* m_restarts = nullptr;
    Counter* m_degraded = nullptr;
    Counter* m_resync = nullptr;
    Gauge* m_active_ues = nullptr;
  };

  [[nodiscard]] std::uint32_t active_ues_locked(const CellAgg& agg) const;

  MetricsRegistry* registry_;
  Counter* m_slots_total_;
  Counter* m_dcis_total_;
  Counter* m_restarts_total_;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<CellAgg>> cells_;  ///< indexed by cell_index
};

}  // namespace nrs
