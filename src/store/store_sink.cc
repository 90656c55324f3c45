#include "store/store_sink.h"

#include <algorithm>

#include "nr/dci.h"
#include "nr/rach.h"

namespace nrs {

std::optional<CellSlotRows> cell_slot_rows(const SlotResult& result,
                                           unsigned n_prb) {
  if (result.sync_state != SyncState::kTracking) {
    return std::nullopt;
  }
  unsigned used = 0;
  for (const DecodedDci& dci : result.dcis) {
    if (is_downlink(dci.grant.format)) {
      used += dci.grant.prb_len;
    }
  }
  used = std::min(used, n_prb);
  return CellSlotRows{static_cast<double>(result.dcis.size()),
                      static_cast<double>(used),
                      static_cast<double>(n_prb - used)};
}

HistoryStoreSink::HistoryStoreSink(HistoryStore& store,
                                   const StoreSinkConfig& config)
    : store_(&store), config_(config) {
  ues_.reserve(kReservedUes);
  cell_dcis_ = store_->series(
      {config_.cell_index, kStoreCellRnti, StoreMetric::kCellDcis});
  cell_used_ = store_->series(
      {config_.cell_index, kStoreCellRnti, StoreMetric::kCellUsedPrbs});
  cell_spare_ = store_->series(
      {config_.cell_index, kStoreCellRnti, StoreMetric::kCellSparePrbs});
}

HistoryStoreSink::UeSeries* HistoryStoreSink::ue_series(Rnti rnti) {
  for (UeSeries& ue : ues_) {
    if (ue.rnti == rnti) {
      return &ue;  // steady state: cache hit, no allocation
    }
  }
  // First DCI from this RNTI: resolve (and possibly create) its series.
  // This is warm-up work — a map lookup/insert under the store lock plus
  // the ring preallocation — and never recurs for the same RNTI.
  UeSeries ue;
  ue.rnti = rnti;
  const std::uint32_t cell = config_.cell_index;
  ue.dl_bits = store_->series({cell, rnti, StoreMetric::kDlBits});
  ue.ul_bits = store_->series({cell, rnti, StoreMetric::kUlBits});
  ue.mcs = store_->series({cell, rnti, StoreMetric::kMcs});
  ue.retx = store_->series({cell, rnti, StoreMetric::kRetx});
  ue.prbs = store_->series({cell, rnti, StoreMetric::kPrbs});
  if (ue.dl_bits == nullptr || ue.ul_bits == nullptr || ue.mcs == nullptr ||
      ue.retx == nullptr || ue.prbs == nullptr) {
    return nullptr;  // store at max_series: shed this UE, keep ingesting
  }
  ues_.push_back(ue);
  return &ues_.back();
}

void HistoryStoreSink::on_slot(const SlotResult& result) {
  std::uint64_t rows = 0;
  for (const DecodedDci& dci : result.dcis) {
    // Per-UE series for C-RNTIs only: SI/RA broadcasts are not user
    // telemetry (the cell rows below still count them).
    UeSeries* ue =
        is_plausible_crnti(dci.rnti) ? ue_series(dci.rnti) : nullptr;
    if (ue == nullptr) {
      continue;
    }
    if (!dci.is_retx) {
      StoreSeries* bits =
          is_downlink(dci.grant.format) ? ue->dl_bits : ue->ul_bits;
      bits->append(result.slot, static_cast<double>(dci.grant.tbs));
      ++rows;
    }
    ue->mcs->append(result.slot, static_cast<double>(dci.grant.mcs));
    ue->retx->append(result.slot, dci.is_retx ? 1.0 : 0.0);
    ue->prbs->append(result.slot, static_cast<double>(dci.grant.prb_len));
    rows += 3;
  }
  if (const auto cell = cell_slot_rows(result, config_.n_prb)) {
    cell_dcis_->append(result.slot, cell->dcis);
    cell_used_->append(result.slot, cell->used_prbs);
    cell_spare_->append(result.slot, cell->spare_prbs);
    rows += 3;
  }
  rows_written_ += rows;
  store_->note_rows_ingested(rows);
}

}  // namespace nrs
