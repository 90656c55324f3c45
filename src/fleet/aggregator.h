// Cross-cell telemetry fan-in for the fleet orchestrator: every cell's
// pipeline pushes its in-order SlotResults here (from that cell's engine
// thread), and the aggregator maintains restart-surviving lifetime totals —
// per-cell slot/DCI counts, new-data throughput windows, retransmission
// rates, PRB utilization — plus per-UE totals keyed by (cell, RNTI), since
// the same C-RNTI can legitimately exist in two cells at once.  rollup()
// renders a point-in-time FleetRollup with the spare-capacity ranking the
// paper's section 5.4.1 use case asks for, fleet-wide.  All per-cell
// counters also land in the registry under the fleet.cell<N>.* namespace.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/types.h"
#include "nr/cell_config.h"
#include "nrscope/nrscope.h"
#include "nrscope/telemetry.h"

namespace nrs {

/// Fleet-wide UE identity: (cell, C-RNTI).
struct FleetUeKey {
  std::uint32_t cell_index = 0;
  Rnti rnti = kInvalidRnti;
  [[nodiscard]] auto operator<=>(const FleetUeKey&) const = default;
};

/// Lifetime totals for one UE (restart-surviving; a UE that re-RACHes into
/// a different C-RNTI after a cell restart starts a new key).
struct FleetUeTotals {
  std::uint64_t dl_bits = 0;  ///< new-data bits only (retx excluded)
  std::uint64_t ul_bits = 0;
  std::uint64_t dcis = 0;
  std::uint64_t retx_dcis = 0;
  std::uint64_t last_seen_slot = 0;  ///< cell lifetime slot of the last DCI
};

/// One cell's slice of a FleetRollup.
struct CellRollup {
  std::uint32_t cell_index = 0;
  std::string name;
  std::uint64_t slots = 0;  ///< lifetime slots delivered (across restarts)
  std::uint64_t dcis = 0;
  std::uint64_t restarts = 0;
  /// Robustness accounting: slots the engine flagged degraded (marginal
  /// sync health) and slots spent in kResync hunting for the cell.
  std::uint64_t degraded_slots = 0;
  std::uint64_t resync_slots = 0;
  std::uint32_t active_ues = 0;  ///< UEs with a DCI inside the rate window
  double dl_mbps = 0.0;
  double ul_mbps = 0.0;
  double retx_rate = 0.0;       ///< retransmission fraction of all DCIs
  double utilization = 0.0;     ///< granted / offered DL PRB fraction
  double spare_prb_rate = 0.0;  ///< unused DL PRBs per slot (ranking key)
};

/// Point-in-time fleet aggregate (what the kFleet wire frame carries).
struct FleetRollup {
  std::uint64_t slot = 0;  ///< max lifetime slot across cells
  std::uint64_t dcis_total = 0;
  std::uint64_t restarts_total = 0;
  double dl_mbps_total = 0.0;
  double ul_mbps_total = 0.0;
  double retx_rate = 0.0;
  /// Cell indices ordered by spare DL capacity, most spare first — the
  /// fleet-level answer to "which cell should the next flow land on?".
  std::vector<std::uint32_t> spare_ranking;
  std::vector<CellRollup> cells;
};

class FleetAggregator {
 public:
  /// `registry` receives fleet.slots / fleet.dcis / fleet.cell.restarts
  /// plus per-cell fleet.cell<N>.{slots,dcis,retx_dcis,restarts} counters
  /// and the fleet.cell<N>.active_ues gauge.  `rate_window_slots` sizes
  /// the throughput windows and the active-UE horizon.
  explicit FleetAggregator(MetricsRegistry& registry,
                           std::uint64_t rate_window_slots = 2000);

  FleetAggregator(const FleetAggregator&) = delete;
  FleetAggregator& operator=(const FleetAggregator&) = delete;

  /// Register a cell before its first on_cell_slot().  The cell config
  /// supplies the capacity model (n_prb, TDD pattern) and the SCS for
  /// rate conversion.
  void add_cell(std::uint32_t cell_index, const CellConfig& cell);

  /// One delivered slot from cell `cell_index`'s pipeline.  Thread-safe:
  /// every cell's engine thread calls in concurrently.
  void on_cell_slot(std::uint32_t cell_index, const SlotResult& result);

  /// The supervisor restarted this cell (counted, surfaced in rollups and
  /// the fleet.cell.restarts metric; lifetime totals are NOT reset).
  void on_cell_restart(std::uint32_t cell_index);

  /// Lifetime slots delivered by one cell (across restarts).
  [[nodiscard]] std::uint64_t cell_slots(std::uint32_t cell_index) const;

  [[nodiscard]] FleetRollup rollup() const;

  /// Per-UE lifetime totals keyed by (cell, RNTI).
  [[nodiscard]] std::map<FleetUeKey, FleetUeTotals> ue_totals() const;

 private:
  struct CellAgg {
    CellAgg(CellConfig cell_config, std::uint64_t window_slots)
        : cell(std::move(cell_config)), dl_rate(window_slots),
          ul_rate(window_slots) {}

    CellConfig cell;
    std::uint64_t lifetime_slots = 0;
    std::uint64_t dcis = 0;
    std::uint64_t retx_dcis = 0;
    std::uint64_t restarts = 0;
    std::uint64_t degraded_slots = 0;
    std::uint64_t resync_slots = 0;
    /// PRB-slot accounting for utilization: offered accumulates the cell's
    /// average DL capacity per slot (n_prb * n_dl / period — a fractional
    /// model so it stays correct across restart-induced TDD phase shifts),
    /// used accumulates granted DL PRBs.
    double used_prb_slots = 0.0;
    double offered_prb_slots = 0.0;
    RateWindow dl_rate;  ///< fed with lifetime slots, so restarts don't
    RateWindow ul_rate;  ///< rewind the window clock
    std::map<Rnti, FleetUeTotals> ues;

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
  std::uint64_t rate_window_slots_;
  Counter* m_slots_total_;
  Counter* m_dcis_total_;
  Counter* m_restarts_total_;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<CellAgg>> cells_;  ///< indexed by cell_index
};

}  // namespace nrs
