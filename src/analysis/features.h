// Streaming feature extraction for the online throughput predictor: the
// per-slot DCI stream is folded into per-UE ring buffers and O(1) running
// sums over three sliding windows (~100 ms / 500 ms / 2 s), from which a
// fixed-size FeatureVector can be read at any slot without allocating.
// This is the feature half of the "ML-Based Real-Time Downlink Performance
// Prediction in Standalone 5G NR" pipeline (PAPERS.md): everything the
// model sees is derivable from decoded DCIs alone — MCS, scheduled PRBs,
// retransmission rate, DCI inter-arrival, and the cell's spare-capacity
// share — so the extractor runs on the sniffer hot path.
//
// Memory discipline matches HistoryStoreSink: the first slot that sees a
// new RNTI allocates that UE's rings (warm-up work), after which
// observe_slot() is allocation-free.  The UE table is bounded at
// kFeatureMaxUes; when full, the UE silent the longest is evicted and its
// rings are reused in place, so churny cells cannot grow the extractor.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/timing.h"
#include "common/types.h"
#include "nrscope/nrscope.h"

namespace nrs {

/// Number of entries in a FeatureVector (see feature_name for the layout).
inline constexpr std::size_t kPredictionFeatureCount = 20;

/// The feature windows are part of the model: tools/train_predictor fits
/// its weights on these, so they are not a setting.  Burst, scheduling and
/// trend scale; the long window is also the ring length.
inline constexpr double kFeatureShortWindowS = 0.1;
inline constexpr double kFeatureMidWindowS = 0.5;
inline constexpr double kFeatureLongWindowS = 2.0;
/// UE table bound; beyond it the UE silent the longest is evicted.
inline constexpr std::size_t kFeatureMaxUes = 64;

/// One UE's model input at one slot.  Fixed-size so predictors can take it
/// by reference with no allocation anywhere.
using FeatureVector = std::array<double, kPredictionFeatureCount>;

/// Stable human-readable name of feature `i` (weights files and debug
/// output use these).  Layout: features 0..14 are five per-window stats
/// [dl_mbps, mcs_mean, prb_rate, retx_rate, dci_rate] for the short, mid
/// and long windows; 15..19 are cross-window/cell features
/// [spare_rate_mid, prb_share_mid, dci_interarrival_mid,
/// slots_since_dci, blind_frac_short].
const char* feature_name(std::size_t i);

struct FeatureConfig {
  Scs scs = Scs::kHz30;
  unsigned n_prb = 51;  ///< cell bandwidth, for spare capacity

  /// Error message when the config is unusable, nullopt when fine.
  [[nodiscard]] std::optional<std::string> validate() const;
};

class FeatureExtractor {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Throws std::invalid_argument when `config.validate()` fails.
  explicit FeatureExtractor(const FeatureConfig& config);

  /// Fold one slot into the windows.  Slots are counted internally (one
  /// per call) so declared stream gaps simply read as silence.
  void observe_slot(const SlotResult& result);

  /// Read the feature vector of the UE at table index `i` into `out`.
  /// Allocation-free; valid any time after at least one observed slot.
  void features(std::size_t i, FeatureVector& out) const;

  [[nodiscard]] std::size_t n_ues() const { return ues_.size(); }
  [[nodiscard]] Rnti rnti_at(std::size_t i) const { return ues_[i].rnti; }
  /// Table index of `rnti`, or npos when untracked.
  [[nodiscard]] std::size_t find(Rnti rnti) const;
  /// Cumulative new-data downlink bits seen for the UE at index `i` since
  /// it (re)entered the table — the counter horizon scoring diffs.
  [[nodiscard]] std::uint64_t dl_bits_total(std::size_t i) const {
    return ues_[i].dl_bits_total;
  }
  /// Evictions bump this; a scorer holding (index, rnti, generation) can
  /// tell "same UE" from "slot reused by a newcomer".
  [[nodiscard]] std::uint64_t generation_at(std::size_t i) const {
    return ues_[i].generation;
  }

  [[nodiscard]] std::uint64_t slots_observed() const { return slot_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }
  [[nodiscard]] const FeatureConfig& config() const { return config_; }
  /// Window lengths in slots (short, mid, long).
  [[nodiscard]] std::array<std::uint64_t, 3> window_slots() const {
    return {windows_[0], windows_[1], windows_[2]};
  }

 private:
  /// One slot's compact per-UE activity (zero == silent slot).
  struct SlotSample {
    std::uint32_t bits = 0;     ///< new-data downlink TBS bits
    std::uint16_t prbs = 0;     ///< downlink PRBs granted
    std::uint16_t mcs_sum = 0;  ///< sum of DL MCS indices over the DCIs
    std::uint8_t dcis = 0;      ///< downlink DCIs this slot
    std::uint8_t retx = 0;      ///< of which retransmissions
  };

  struct WindowSums {
    std::uint64_t bits = 0;
    std::uint64_t prbs = 0;
    std::uint64_t mcs_sum = 0;
    std::uint64_t dcis = 0;
    std::uint64_t retx = 0;
  };

  struct UeState {
    Rnti rnti = 0;
    std::uint64_t generation = 0;
    std::uint64_t last_dci_slot = 0;
    std::uint64_t dl_bits_total = 0;
    std::vector<SlotSample> ring;  ///< long-window length, slot_ % size
    std::array<WindowSums, 3> sums;
  };

  /// Cell-level per-slot activity for spare-capacity / blindness shares.
  struct CellSample {
    std::uint16_t used_prbs = 0;
    std::uint16_t spare_prbs = 0;
    std::uint8_t blind = 0;  ///< not tracking, or tracking degraded
  };

  struct CellSums {
    std::uint64_t used_prbs = 0;
    std::uint64_t spare_prbs = 0;
    std::uint64_t blind = 0;
  };

  UeState* ue_slot(Rnti rnti);
  void roll_ue(UeState& ue, const SlotSample& sample);

  FeatureConfig config_;
  std::array<std::uint64_t, 3> windows_{};  ///< slots: short, mid, long
  double slot_s_ = 0.0;

  std::uint64_t slot_ = 0;  ///< observe_slot() calls so far
  std::uint64_t evictions_ = 0;
  std::uint64_t generation_ = 0;

  std::vector<UeState> ues_;  ///< linear scan; bounded by kFeatureMaxUes
  std::vector<CellSample> cell_ring_;
  std::array<CellSums, 3> cell_sums_{};

  /// Per-slot staging: sample accumulated per tracked UE before rolling.
  std::vector<SlotSample> staged_;
};

}  // namespace nrs
