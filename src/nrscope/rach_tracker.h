// Passive RACH reconstruction (paper section 3.1.2): watch the common
// search space for the MSG2 / MSG4 DCIs of associating UEs and learn each
// one's C-RNTI without any cooperation.  Two modes, both from the paper:
//
//  kMsg2Assisted — compute the RA-RNTI of each PRACH occasion, decode the
//    MSG2 (RAR) PDSCH to read the TC-RNTI, then CRC-verify the MSG4 DCI
//    against it.  Strongest verification; needs the RAR decode.
//
//  kXorRecovery — the paper's headline trick: for a candidate that decodes
//    but matches no known RNTI, XOR the computed CRC with the received one
//    to recover the masking TC-RNTI, filter for plausibility, and verify
//    by decoding the scheduled RRC Setup PDSCH (whose CRC24A then proves
//    the DCI was real).  Once one RRC Setup has been decoded it is cached
//    and later MSG4 PDSCH decodes are skipped — "the RRC Setup is
//    identical among UEs, thus we can skip decoding the PDSCH".
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/metrics.h"
#include "nr/cell_config.h"
#include "nr/pdcch.h"
#include "nr/rrc.h"
#include "nrscope/telemetry.h"
#include "phy/ofdm.h"

namespace nrs {

enum class RachTrackMode : std::uint8_t {
  kMsg2Assisted,
  kXorRecovery,
};

struct RachTrackerConfig {
  RachTrackMode mode = RachTrackMode::kXorRecovery;
  /// Verify MSG4 by decoding the RRC Setup PDSCH until one succeeds.
  bool verify_msg4_pdsch = true;
  /// Keep decoding every MSG4 PDSCH even after one is cached (ablation
  /// for the paper's skip optimization; costs 1-2 ms per RACH).
  bool always_decode_msg4_pdsch = false;
};

/// A UE whose C-RNTI was just learned.
struct NewUe {
  Rnti c_rnti = kInvalidRnti;
  std::uint64_t slot = 0;
  RrcSetup config;
  bool verified = false;  ///< RRC Setup PDSCH CRC checked

  [[nodiscard]] bool operator==(const NewUe&) const = default;
};

class RachTracker {
 public:
  explicit RachTracker(const RachTrackerConfig& config) : config_(config) {}

  /// Called once SIB1 is decoded.
  void set_cell(const CellConfig& cell) { cell_ = cell; }

  /// Mirror the tracker's statistics into rach.* counters of `registry`
  /// (msg2/msg4 matches, C-RNTI discoveries, PDSCH decodes, rejections).
  void bind_metrics(MetricsRegistry& registry);

  /// Scan one slot's common search space, decoding from `estimate` (the
  /// slot's estimate of this cell's CORESET, shared with the blind
  /// decode).  Decoded MSG2/MSG4 DCIs are appended to `decoded` and
  /// completed associations to `new_ues`; all intermediate buffers live in
  /// `scratch` or the tracker, so the steady-state no-RACH path performs
  /// no heap allocation.  `grid` demodulates a RAR or MSG4 grant's rows
  /// only when that PDSCH is decoded.
  /// `slot_index` is the sniffer's feed clock (stamps and bookkeeping);
  /// `air_slot` is the cell's own slot clock, reconstructed from the MIB
  /// SFN and the locked frame phase.  PRACH occasions and RA-RNTIs follow
  /// `air_slot`: after a resync onto a restarted cell the two clocks
  /// diverge, and the gNB derives RA-RNTIs from its own.
  void process_slot(SlotGrid& grid, const SlotPoint& slot,
                    std::uint64_t slot_index, std::uint64_t air_slot,
                    const PdcchEstimate& estimate, PdcchScratch& scratch,
                    std::vector<DecodedDci>& decoded,
                    std::vector<NewUe>& new_ues);

  [[nodiscard]] const std::optional<RrcSetup>& cached_rrc() const {
    return cached_rrc_;
  }

  // Statistics for the ablation benches.
  [[nodiscard]] std::uint64_t msg2_decoded() const { return msg2_decoded_; }
  [[nodiscard]] std::uint64_t msg4_decoded() const { return msg4_decoded_; }
  [[nodiscard]] std::uint64_t pdsch_decodes() const { return pdsch_decodes_; }
  [[nodiscard]] std::uint64_t rejected_recoveries() const {
    return rejected_recoveries_;
  }

 private:
  std::optional<NewUe> handle_msg4(Rnti rnti, const Dci& dci,
                                   SlotGrid& grid,
                                   const SlotPoint& slot,
                                   std::uint64_t slot_index);

  void count(Counter* counter) {
    if (counter != nullptr) {
      counter->inc();
    }
  }

  RachTrackerConfig config_;
  CellConfig cell_;
  std::map<Rnti, std::uint64_t> pending_tc_;  ///< TC-RNTI -> MSG2 slot
  std::vector<Rnti> ra_rntis_;  ///< per-slot scratch, reused across slots
  std::optional<RrcSetup> cached_rrc_;
  std::uint64_t msg2_decoded_ = 0;
  std::uint64_t msg4_decoded_ = 0;
  std::uint64_t pdsch_decodes_ = 0;
  std::uint64_t rejected_recoveries_ = 0;
  Counter* metric_msg2_ = nullptr;
  Counter* metric_msg4_ = nullptr;
  Counter* metric_crnti_ = nullptr;
  Counter* metric_pdsch_ = nullptr;
  Counter* metric_rejected_ = nullptr;
};

}  // namespace nrs
