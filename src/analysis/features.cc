#include "analysis/features.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nr/dci.h"
#include "nr/rach.h"

namespace nrs {

namespace {

constexpr std::array<const char*, kPredictionFeatureCount> kFeatureNames = {
    "dl_mbps_short",     "mcs_mean_short", "prb_rate_short",
    "retx_rate_short",   "dci_rate_short", "dl_mbps_mid",
    "mcs_mean_mid",      "prb_rate_mid",   "retx_rate_mid",
    "dci_rate_mid",      "dl_mbps_long",   "mcs_mean_long",
    "prb_rate_long",     "retx_rate_long", "dci_rate_long",
    "spare_rate_mid",    "prb_share_mid",  "dci_interarrival_mid",
    "slots_since_dci",   "blind_frac_short",
};

}  // namespace

const char* feature_name(std::size_t i) {
  return i < kFeatureNames.size() ? kFeatureNames[i] : "?";
}

std::optional<std::string> FeatureConfig::validate() const {
  if (n_prb == 0) {
    return "n_prb must be positive";
  }
  return std::nullopt;
}

FeatureExtractor::FeatureExtractor(const FeatureConfig& config)
    : config_(config) {
  if (auto err = config.validate()) {
    throw std::invalid_argument("FeatureConfig: " + *err);
  }
  slot_s_ = slot_duration_s(config_.scs);
  const auto to_slots = [&](double seconds) {
    return std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::llround(seconds / slot_s_)));
  };
  windows_ = {to_slots(kFeatureShortWindowS), to_slots(kFeatureMidWindowS),
              to_slots(kFeatureLongWindowS)};
  ues_.reserve(kFeatureMaxUes);
  staged_.reserve(kFeatureMaxUes);
  cell_ring_.assign(windows_[2], CellSample{});
}

std::size_t FeatureExtractor::find(Rnti rnti) const {
  for (std::size_t i = 0; i < ues_.size(); ++i) {
    if (ues_[i].rnti == rnti) {
      return i;
    }
  }
  return npos;
}

FeatureExtractor::UeState* FeatureExtractor::ue_slot(Rnti rnti) {
  const std::size_t i = find(rnti);
  if (i != npos) {
    return &ues_[i];
  }
  if (ues_.size() < kFeatureMaxUes) {
    // Warm-up path: first DCI from this RNTI allocates its ring once.
    UeState ue;
    ue.rnti = rnti;
    ue.generation = ++generation_;
    ue.last_dci_slot = slot_;
    ue.ring.assign(windows_[2], SlotSample{});
    ues_.push_back(std::move(ue));
    staged_.push_back(SlotSample{});
    return &ues_.back();
  }
  // Table full: evict the UE silent the longest and reuse its ring.
  std::size_t victim = 0;
  for (std::size_t j = 1; j < ues_.size(); ++j) {
    if (ues_[j].last_dci_slot < ues_[victim].last_dci_slot) {
      victim = j;
    }
  }
  UeState& ue = ues_[victim];
  ue.rnti = rnti;
  ue.generation = ++generation_;
  ue.last_dci_slot = slot_;
  ue.dl_bits_total = 0;
  std::fill(ue.ring.begin(), ue.ring.end(), SlotSample{});
  ue.sums = {};
  staged_[victim] = SlotSample{};
  ++evictions_;
  return &ue;
}

void FeatureExtractor::roll_ue(UeState& ue, const SlotSample& sample) {
  // Subtract the sample leaving each window *before* overwriting: for the
  // long window the departing slot is exactly the ring position being
  // rewritten this slot.
  for (std::size_t k = 0; k < 3; ++k) {
    if (slot_ < windows_[k]) {
      continue;
    }
    const SlotSample& out = ue.ring[(slot_ - windows_[k]) % windows_[2]];
    WindowSums& s = ue.sums[k];
    s.bits -= out.bits;
    s.prbs -= out.prbs;
    s.mcs_sum -= out.mcs_sum;
    s.dcis -= out.dcis;
    s.retx -= out.retx;
  }
  ue.ring[slot_ % windows_[2]] = sample;
  for (WindowSums& s : ue.sums) {
    s.bits += sample.bits;
    s.prbs += sample.prbs;
    s.mcs_sum += sample.mcs_sum;
    s.dcis += sample.dcis;
    s.retx += sample.retx;
  }
}

void FeatureExtractor::observe_slot(const SlotResult& result) {
  // Stage this slot's activity per UE (multiple DCIs per UE fold in).
  std::fill(staged_.begin(), staged_.end(), SlotSample{});
  unsigned used_prbs = 0;
  for (const DecodedDci& dci : result.dcis) {
    if (!is_plausible_crnti(dci.rnti)) {
      continue;  // broadcast / RA bookkeeping, not a trackable UE
    }
    if (!is_downlink(dci.grant.format)) {
      continue;  // features and the target are downlink-side
    }
    UeState* ue = ue_slot(dci.rnti);
    SlotSample& s = staged_[static_cast<std::size_t>(ue - ues_.data())];
    used_prbs += dci.grant.prb_len;
    s.prbs = static_cast<std::uint16_t>(
        std::min<unsigned>(s.prbs + dci.grant.prb_len, 0xFFFFu));
    s.mcs_sum = static_cast<std::uint16_t>(
        std::min<unsigned>(s.mcs_sum + dci.grant.mcs, 0xFFFFu));
    if (s.dcis < 0xFF) {
      ++s.dcis;
    }
    if (dci.is_retx) {
      if (s.retx < 0xFF) {
        ++s.retx;
      }
    } else {
      s.bits += dci.grant.tbs;
      ue->dl_bits_total += dci.grant.tbs;
    }
    ue->last_dci_slot = slot_;
  }

  for (std::size_t i = 0; i < ues_.size(); ++i) {
    roll_ue(ues_[i], staged_[i]);
  }

  // Cell-level sample: spare capacity only counts when the engine is
  // actually tracking; a blind slot reads as zero spare and flags the
  // blindness fraction instead.
  const bool tracking = result.sync_state == SyncState::kTracking;
  CellSample cell;
  cell.used_prbs = static_cast<std::uint16_t>(
      std::min<unsigned>(used_prbs, config_.n_prb));
  cell.spare_prbs = tracking ? static_cast<std::uint16_t>(
                                   config_.n_prb - cell.used_prbs)
                             : 0;
  cell.blind = (!tracking || result.degraded) ? 1 : 0;
  for (std::size_t k = 0; k < 3; ++k) {
    if (slot_ < windows_[k]) {
      continue;
    }
    const CellSample& out = cell_ring_[(slot_ - windows_[k]) % windows_[2]];
    cell_sums_[k].used_prbs -= out.used_prbs;
    cell_sums_[k].spare_prbs -= out.spare_prbs;
    cell_sums_[k].blind -= out.blind;
  }
  cell_ring_[slot_ % windows_[2]] = cell;
  for (CellSums& s : cell_sums_) {
    s.used_prbs += cell.used_prbs;
    s.spare_prbs += cell.spare_prbs;
    s.blind += cell.blind;
  }

  ++slot_;
}

void FeatureExtractor::features(std::size_t i, FeatureVector& out) const {
  const UeState& ue = ues_[i];
  for (std::size_t k = 0; k < 3; ++k) {
    const std::uint64_t n = std::max<std::uint64_t>(
        1, std::min<std::uint64_t>(slot_, windows_[k]));
    const WindowSums& s = ue.sums[k];
    const double slots = static_cast<double>(n);
    const double dcis = static_cast<double>(std::max<std::uint64_t>(
        1, s.dcis));
    out[5 * k + 0] =
        static_cast<double>(s.bits) / (slots * slot_s_) / 1e6;
    out[5 * k + 1] = static_cast<double>(s.mcs_sum) / dcis;
    out[5 * k + 2] = static_cast<double>(s.prbs) / slots;
    out[5 * k + 3] = static_cast<double>(s.retx) / dcis;
    out[5 * k + 4] = static_cast<double>(s.dcis) / slots;
  }
  const std::uint64_t n_mid = std::max<std::uint64_t>(
      1, std::min<std::uint64_t>(slot_, windows_[1]));
  const std::uint64_t n_short = std::max<std::uint64_t>(
      1, std::min<std::uint64_t>(slot_, windows_[0]));
  out[15] = static_cast<double>(cell_sums_[1].spare_prbs) /
            static_cast<double>(n_mid);
  out[16] = static_cast<double>(ue.sums[1].prbs) /
            static_cast<double>(
                std::max<std::uint64_t>(1, cell_sums_[1].used_prbs));
  out[17] = static_cast<double>(n_mid) /
            static_cast<double>(std::max<std::uint64_t>(1, ue.sums[1].dcis));
  out[18] = static_cast<double>(
      std::min<std::uint64_t>(slot_ - ue.last_dci_slot, windows_[2]));
  out[19] = static_cast<double>(cell_sums_[0].blind) /
            static_cast<double>(n_short);
}

}  // namespace nrs
