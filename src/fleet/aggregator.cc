#include "fleet/aggregator.h"

#include <algorithm>
#include <stdexcept>

#include "common/timing.h"
#include "nr/dci.h"
#include "nr/rach.h"

namespace nrs {

FleetAggregator::FleetAggregator(MetricsRegistry& registry)
    : registry_(&registry),
      m_slots_total_(&registry.counter("fleet.slots")),
      m_dcis_total_(&registry.counter("fleet.dcis")),
      m_restarts_total_(&registry.counter("fleet.cell.restarts")) {}

void FleetAggregator::add_cell(std::uint32_t cell_index,
                               const CellConfig& cell) {
  std::lock_guard lock(mutex_);
  if (cells_.size() <= cell_index) {
    cells_.resize(cell_index + 1);
  }
  if (cells_[cell_index] != nullptr) {
    throw std::invalid_argument("FleetAggregator: cell " +
                                std::to_string(cell_index) +
                                " registered twice");
  }
  auto agg = std::make_unique<CellAgg>(cell);
  MetricsNamespace ns =
      registry_->with_prefix("fleet.cell" + std::to_string(cell_index) + ".");
  agg->m_slots = &ns.counter("slots");
  agg->m_dcis = &ns.counter("dcis");
  agg->m_retx = &ns.counter("retx_dcis");
  agg->m_restarts = &ns.counter("restarts");
  agg->m_degraded = &ns.counter("degraded_slots");
  agg->m_resync = &ns.counter("resync_slots");
  agg->m_active_ues = &ns.gauge("active_ues");
  cells_[cell_index] = std::move(agg);
}

void FleetAggregator::on_cell_slot(std::uint32_t cell_index,
                                   const SlotResult& result) {
  std::lock_guard lock(mutex_);
  CellAgg& agg = *cells_.at(cell_index);
  CellCounters& counters = agg.counters;
  const std::uint64_t slot = ++counters.slots;
  const TddPattern& tdd = agg.cell.tdd;
  agg.offered_prb_slots += static_cast<double>(agg.cell.n_prb) *
                           static_cast<double>(tdd.n_dl) /
                           static_cast<double>(tdd.period);

  std::uint64_t slot_retx = 0;
  for (const DecodedDci& dci : result.dcis) {
    // UEs and their rates count C-RNTIs only (SI/RA broadcasts are not
    // user telemetry); the DCI counters and utilization count every DCI.
    const bool user = is_plausible_crnti(dci.rnti);
    if (user) {
      agg.last_seen[dci.rnti] = slot;
    }
    if (dci.is_retx) {
      ++slot_retx;
    }
    if (is_downlink(dci.dci.format)) {
      agg.used_prb_slots += static_cast<double>(dci.grant.prb_len);
      if (user && !dci.is_retx) {
        agg.dl_rate.add(slot, dci.grant.tbs);
      }
    } else if (user && !dci.is_retx) {
      agg.ul_rate.add(slot, dci.grant.tbs);
    }
  }
  counters.dcis += result.dcis.size();
  counters.retx_dcis += slot_retx;
  if (result.degraded) {
    ++counters.degraded_slots;
    agg.m_degraded->inc();
  }
  if (result.sync_state == SyncState::kResync) {
    ++counters.resync_slots;
    agg.m_resync->inc();
  }

  agg.m_slots->inc();
  m_slots_total_->inc();
  if (!result.dcis.empty()) {
    agg.m_dcis->inc(result.dcis.size());
    m_dcis_total_->inc(result.dcis.size());
  }
  if (slot_retx > 0) {
    agg.m_retx->inc(slot_retx);
  }
}

void FleetAggregator::on_cell_restart(std::uint32_t cell_index) {
  std::lock_guard lock(mutex_);
  CellAgg& agg = *cells_.at(cell_index);
  ++agg.counters.restarts;
  agg.m_restarts->inc();
  m_restarts_total_->inc();
}

std::uint64_t FleetAggregator::cell_slots(std::uint32_t cell_index) const {
  std::lock_guard lock(mutex_);
  return cells_.at(cell_index)->counters.slots;
}

std::uint32_t FleetAggregator::active_ues_locked(const CellAgg& agg) const {
  std::uint32_t active = 0;
  for (const auto& [rnti, last_seen] : agg.last_seen) {
    if (agg.counters.slots - last_seen < kFleetRateWindowSlots) {
      ++active;
    }
  }
  return active;
}

FleetSummary FleetAggregator::summary() const {
  std::lock_guard lock(mutex_);
  std::vector<CellSummary> cells;
  cells.reserve(cells_.size());
  for (std::uint32_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i] == nullptr) {
      continue;
    }
    const CellAgg& agg = *cells_[i];
    CellSummary c;
    c.cell_index = i;
    c.name = agg.cell.name;
    c.counters = agg.counters;
    c.active_ues = active_ues_locked(agg);
    agg.m_active_ues->set(c.active_ues);
    const double slot_s = slot_duration_s(agg.cell.scs);
    c.dl_mbps = agg.dl_rate.rate_bps(agg.counters.slots, slot_s) / 1e6;
    c.ul_mbps = agg.ul_rate.rate_bps(agg.counters.slots, slot_s) / 1e6;
    c.utilization =
        agg.offered_prb_slots > 0.0
            ? std::min(1.0, agg.used_prb_slots / agg.offered_prb_slots)
            : 0.0;
    const double dl_fraction = static_cast<double>(agg.cell.tdd.n_dl) /
                               static_cast<double>(agg.cell.tdd.period);
    c.spare_prb_rate =
        (1.0 - c.utilization) * static_cast<double>(agg.cell.n_prb) *
        dl_fraction;
    cells.push_back(std::move(c));
  }
  return summarize_fleet(std::move(cells));
}

}  // namespace nrs
