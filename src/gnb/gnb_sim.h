// The 5G SA gNB simulator: the stand-in for the paper's srsRAN / Mosolabs
// / Amarisoft / T-Mobile base stations (see DESIGN.md).  Slot by slot it
// broadcasts SSB+MIB and SIB1, runs the four-message RACH with arriving
// UEs, schedules downlink data and uplink grants with HARQ and link
// adaptation, encodes everything onto an OFDM resource grid, and logs the
// per-TTI ground truth that the evaluation compares NR-Scope against.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "common/bit_io.h"
#include "common/rng.h"
#include "common/timing.h"
#include "gnb/ground_truth.h"
#include "gnb/scheduler.h"
#include "nr/cell_config.h"
#include "nr/harq.h"
#include "nr/pdcch.h"
#include "nr/pdsch.h"
#include "nr/rach.h"
#include "nr/rrc.h"
#include "phy/resource_grid.h"
#include "ue/ue_sim.h"

namespace nrs {

struct GnbConfig {
  CellConfig cell;
  SchedulerPolicy policy = SchedulerPolicy::kRoundRobin;
  RrcSetup rrc_setup;  ///< dedicated config handed to every UE in MSG4
  unsigned max_harq_tx = 4;
  std::uint64_t seed = 1;
};

class GnbSim {
 public:
  explicit GnbSim(GnbConfig config);

  /// Register a UE; it will start the RACH at the next PRACH occasion.
  unsigned add_ue(UeConfig ue_config);

  /// UE leaves the cell (C-RNTI released, context dropped).
  void remove_ue(unsigned ue_id);

  /// Advance one TTI and build the downlink slot grid.
  const ResourceGrid& step();

  [[nodiscard]] const SlotClock& clock() const { return clock_; }
  [[nodiscard]] const CellConfig& cell() const { return config_.cell; }
  [[nodiscard]] const GroundTruthLog& truth() const { return truth_; }

  /// The UE emulator (for traces / SNR); nullptr if departed.
  [[nodiscard]] const UeEmulator* ue(unsigned ue_id) const;
  [[nodiscard]] UeEmulator* ue(unsigned ue_id);

  /// C-RNTI of a connected UE, kInvalidRnti while still in RACH.
  [[nodiscard]] Rnti ue_rnti(unsigned ue_id) const;

  /// All currently connected C-RNTIs.
  [[nodiscard]] std::vector<Rnti> connected_rntis() const;

  /// Times a DCI could not be sent because every monitored candidate's
  /// CCEs were taken (PDCCH blocking).
  [[nodiscard]] std::uint64_t pdcch_blocked() const { return pdcch_blocked_; }

 private:
  struct DlProcess {
    bool active = false;
    std::uint8_t ndi = 0;
    bool awaiting_retx = false;
    Grant grant;
    std::size_t payload_bytes = 0;
    unsigned packets = 0;
    unsigned tx_count = 0;
  };

  struct UeContext {
    unsigned id = 0;
    std::unique_ptr<UeEmulator> emulator;
    RachStage stage = RachStage::kIdle;
    Rnti rnti = kInvalidRnti;
    std::uint64_t stage_slot = 0;  ///< slot of the last RACH transition
    double olla_db = 0.0;          ///< outer-loop link adaptation offset
    double avg_rate_bps = 1.0;     ///< PF average
    std::array<DlProcess, kMaxHarqProcesses> dl_harq{};
    std::array<std::uint8_t, kMaxHarqProcesses> ul_ndi{};
    unsigned ul_harq_cursor = 0;
  };

  /// Slot-build helpers.
  void broadcast(bool& has_ssb);
  void run_rach(bool allow_tx);
  void schedule_downlink();
  void schedule_uplink();
  bool allocate_pdcch(Rnti rnti, const SearchSpaceConfig& ss,
                      unsigned agg_level, unsigned& cce_start);
  void transmit_dl_grant(UeContext& ue_ctx, DlProcess& process,
                         unsigned harq_id, DciKind kind, unsigned agg,
                         unsigned cce);
  static unsigned agg_level_for(unsigned prb_len);
  unsigned n_data_symbols() const;

  GnbConfig config_;
  SlotClock clock_;
  Rng rng_;
  ResourceGrid grid_;
  GroundTruthLog truth_;
  std::vector<UeContext> ues_;
  unsigned next_ue_id_ = 0;
  Rnti next_tc_rnti_ = kFirstTcRnti;
  std::uint64_t rr_cursor_ = 0;
  std::vector<bool> used_cce_;  ///< per-slot CCE occupancy
  std::vector<bool> ssb_cces_;  ///< CCEs overlapping the SS/PBCH block
  unsigned prb_cursor_ = 0;     ///< per-slot PDSCH PRB allocation cursor
  std::uint64_t pdcch_blocked_ = 0;

  // Per-slot scratch reused across TTIs (hot-path memory discipline,
  // DESIGN.md): payload/padding bits plus the scheduler's inputs and
  // outputs keep their capacity, so a warm steady-state slot build
  // allocates nothing beyond the ground-truth log.
  BitVector payload_scratch_;
  BitVector sib1_payload_;  ///< packed once; the cell config is immutable
  PdcchEncodeScratch pdcch_scratch_;  ///< every DCI (the cell's CORESET)
  PdcchEncodeScratch pbch_scratch_;   ///< the SSB's PBCH
  PdschEncodeScratch pdsch_scratch_;
  std::vector<unsigned> cand_cces_;  ///< allocate_pdcch candidate CCEs
  std::vector<SchedRequest> sched_requests_;
  std::vector<UeContext*> sched_ctx_;
  std::vector<SchedDecision> sched_decisions_;
  SchedScratch sched_scratch_;
  std::vector<UeContext*> uplinkers_;
};

}  // namespace nrs
