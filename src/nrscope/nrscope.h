// NrScope: the public facade of the telemetry tool (paper Fig. 2/4).
// Feed it one slot of IQ samples at a time; it synchronizes to the cell
// (PSS/SSS -> MIB), learns the configuration (SIB1), tracks UE
// associations through the RACH, blind-decodes every known UE's DCIs each
// TTI — one channel decode per PDCCH candidate location, shared by every
// UE that monitors it — and maintains per-UE and cell-wide telemetry.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/timing.h"
#include "common/types.h"
#include "nr/cell_config.h"
#include "nr/mib.h"
#include "nr/pdcch.h"
#include "nr/rrc.h"
#include "nrscope/rach_tracker.h"
#include "nrscope/sync_monitor.h"
#include "nrscope/telemetry.h"
#include "phy/ofdm.h"

namespace nrs {

/// Engine synchronization state.  The happy path is forward-only
/// (kSearching -> kWaitSib1 -> kTracking); the SyncMonitor adds backward
/// edges through kResync when tracking health collapses (DESIGN.md
/// "Failure model and recovery").
enum class SyncState : std::uint8_t {
  kSearching,  ///< hunting for PSS/SSS + MIB
  kWaitSib1,   ///< synchronized; waiting for the SIB1 broadcast
  kTracking,   ///< full telemetry
  kResync,     ///< sync lost; re-running PSS/SSS + MIB, UE state retained
};

const char* to_string(SyncState state);

/// What the sniffer tracks per known UE.
struct UeSearchContext {
  Rnti rnti = kInvalidRnti;
  RrcSetup config;
};

struct NrScopeConfig {
  unsigned n_prb = 51;        ///< carrier bandwidth to demodulate
  Scs scs = Scs::kHz30;
  /// Inert: nothing reads it.  Kept because perfbench/src/chain.cc sets it.
  bool dedupe_candidates = false;
  RachTrackerConfig rach;
  /// Drop UEs with no DCI for this long (ghost/idle cleanup).
  std::uint64_t ue_inactivity_slots = 40000;
  std::uint64_t rate_window_slots = 1000;
  bool keep_capacity_history = false;  ///< per-slot RE accounting (Fig. 14)
  SsbLocation ssb{0};
  /// Sync-health thresholds and the resync grace window.
  SyncMonitorConfig sync;

  /// Sanity-check the configuration; returns a descriptive error for the
  /// first violated constraint, or nullopt when everything is usable.  The
  /// NrScope / NrScopePipeline constructors call this and throw
  /// std::invalid_argument instead of silently accepting nonsense values.
  [[nodiscard]] std::optional<std::string> validate() const;
};

/// Outcome of processing one slot.
struct SlotResult {
  std::uint64_t slot = 0;
  std::vector<DecodedDci> dcis;
  std::vector<NewUe> new_ues;
  std::optional<Mib> mib;
  bool sib1_decoded = false;
  double processing_time_us = 0.0;  ///< signal processing + DCI decoding
  /// Engine state after this slot: lets sinks and the fleet aggregator
  /// distinguish "no traffic" (kTracking, empty dcis) from "blind"
  /// (kResync / degraded).
  SyncState sync_state = SyncState::kSearching;
  /// Tracking continued but health is marginal (fading SSB quality or a
  /// long blind-decode dry spell building up).
  bool degraded = false;

  [[nodiscard]] bool operator==(const SlotResult&) const = default;
};

class NrScope {
 public:
  using State = SyncState;

  explicit NrScope(const NrScopeConfig& config);
  ~NrScope();

  NrScope(const NrScope&) = delete;
  NrScope& operator=(const NrScope&) = delete;

  /// Process one slot of IQ samples (exactly one slot's worth at the
  /// nominal rate) into `result`; the engine's only entry point.  Only
  /// the OFDM symbols some step reads are demodulated: the CORESET in a
  /// tracking slot, plus the SSB or a RAR/MSG4/SIB1 grant's rows when
  /// those are decoded.  The caller owns and reuses the result: its
  /// vectors are cleared, keeping their capacity, so in the steady
  /// tracking state the whole slot path — demodulation, blind decoding,
  /// telemetry — performs zero heap allocations after warm-up (hot-path
  /// memory discipline, DESIGN.md; verified by test_alloc_steady_state).
  void process_slot(std::span<const cf32> samples, SlotResult& result);

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] std::uint16_t pci() const { return pci_; }
  [[nodiscard]] const std::optional<Mib>& mib() const { return mib_; }
  [[nodiscard]] const CellConfig& cell() const { return cell_; }

  /// UEs currently tracked.
  [[nodiscard]] std::vector<Rnti> known_ues() const;
  /// Read-only telemetry view.  Registration of externally-known UEs — the
  /// one legitimate mutation — goes through the named add_ue() method.
  [[nodiscard]] const CellTelemetry& telemetry() const { return telemetry_; }

  /// Point-in-time view of every nrscope.* / rach.* / telemetry.* metric.
  [[nodiscard]] MetricsSnapshot metrics() const {
    return metrics_registry_.snapshot();
  }
  /// The live registry (the pipeline and sinks register into it too).
  [[nodiscard]] MetricsRegistry& metrics_registry() {
    return metrics_registry_;
  }
  [[nodiscard]] const MetricsRegistry& metrics_registry() const {
    return metrics_registry_;
  }

  /// Manually register a UE (e.g. replaying a capture that starts after
  /// the UE's RACH) — mirrors the paper's note that NSA cells need manual
  /// cell info input.
  void add_ue(Rnti rnti, const RrcSetup& config);

  /// RACH-discovered UE: like add_ue, but when the C-RNTI is already
  /// tracked this is the gNB *reusing* a released value for a newcomer —
  /// the old context and its telemetry are dropped and rebound fresh
  /// (counted in nrscope.rnti_evictions) instead of silently inheriting
  /// the predecessor's HARQ/rate state.
  void bind_rach_ue(Rnti rnti, const RrcSetup& config);

  /// Declare `missed` slots lost in the input stream (a known gap, e.g.
  /// an SDR overflow report): the slot clock advances so the frame phase
  /// stays locked across the gap — no resync needed.  Unknown timing
  /// jumps, by contrast, surface as sync-health collapse and resync.
  void note_stream_gap(std::uint64_t missed);

  /// Force the tracking engine into kResync (e.g. an external front-end
  /// event the monitor cannot see).  No-op unless currently kTracking.
  void force_resync();

  /// Sync-health monitor (quality score, loss/resync statistics).
  [[nodiscard]] const SyncMonitor& sync_monitor() const { return sync_; }

  [[nodiscard]] std::uint64_t slots_processed() const { return slot_index_; }
  [[nodiscard]] const RachTracker& rach_tracker() const { return rach_; }
  [[nodiscard]] double slot_duration() const {
    return slot_duration_s(cell_.scs);
  }

 private:
  /// Per-slot working set, reused across slots so the tracking path stays
  /// allocation-free after warm-up.  Every vector is cleared (capacity
  /// kept) or grown-only at the top of each slot.
  struct SlotScratch {
    /// One candidate a UE monitors this slot.
    struct CandidateRef {
      unsigned level;
      unsigned cce;
      unsigned payload_bits;
      std::size_t ue_index;
    };

    std::vector<std::vector<DecodedDci>> per_ue;
    std::vector<DecodedDci> user_dcis;
    std::vector<std::size_t> user_dci_index;  ///< into SlotResult::dcis
    std::vector<CandidateRef> cands;
    /// Distinct locations of one payload size, handed to
    /// decode_pdcch_batch, and where each one's watchers start in `cands`
    /// (plus one past the last).
    std::vector<PdcchCandidateLoc> batch_locs;
    std::vector<std::size_t> batch_first;
  };

  /// A successful PSS/SSS + MIB detection, before any state is mutated
  /// (resync needs to compare the PCI against the tracked cell first).
  struct Acquisition {
    std::uint16_t pci = 0;
    unsigned prb_start = 0;
    Mib mib;
  };

  void search(SlotResult& result);
  void wait_sib1(SlotResult& result);
  void track(SlotResult& result);
  void resync(SlotResult& result);
  [[nodiscard]] std::optional<Acquisition> detect_cell();
  void apply_acquisition(const Acquisition& acq, SlotResult& result);
  void enter_resync();
  void flush_tracked_state();
  [[nodiscard]] float measure_ssb_quality();
  [[nodiscard]] bool ssb_expected(const SlotPoint& now) const;
  void blind_decode(const SlotPoint& now);
  void cleanup_stale_ues();
  [[nodiscard]] SlotPoint slot_point() const;
  /// The cell's own slot clock, reconstructed from the locked frame phase
  /// and the MIB SFN.  Diverges from slot_index_ after a resync onto a
  /// restarted cell; PRACH-occasion math must follow this clock.
  [[nodiscard]] std::uint64_t air_slot_index() const;
  [[nodiscard]] unsigned data_res_total() const;

  NrScopeConfig config_;
  MetricsRegistry metrics_registry_;  ///< before the members that cache into it
  /// The slot being processed; every grid read requests its rows here.
  SlotGrid rx_;
  State state_ = State::kSearching;
  CellConfig cell_;
  std::optional<Mib> mib_;
  std::uint16_t pci_ = 0;
  RachTracker rach_;
  CellTelemetry telemetry_;
  SyncMonitor sync_;
  SyncLossCause resync_cause_ = SyncLossCause::kNone;
  std::uint64_t resync_entered_slot_ = 0;
  bool sib1_seen_ = false;  ///< cell_ carries a full SIB1 configuration
  // Hot-path metric handles, resolved once at construction.
  Counter* m_slots_searching_ = nullptr;
  Counter* m_slots_wait_sib1_ = nullptr;
  Counter* m_slots_tracking_ = nullptr;
  Counter* m_slots_resync_ = nullptr;
  Counter* m_degraded_slots_ = nullptr;
  Counter* m_stream_gap_slots_ = nullptr;
  Counter* m_stale_evictions_ = nullptr;
  Counter* m_rnti_evictions_ = nullptr;
  Counter* m_candidates_ = nullptr;
  Counter* m_candidate_locations_ = nullptr;
  Histogram* m_demod_us_ = nullptr;  ///< one observation per slot
  Counter* m_demod_symbols_ = nullptr;
  Histogram* m_blind_decode_us_ = nullptr;
  std::vector<UeSearchContext> ues_;
  std::vector<std::uint64_t> ue_last_seen_;
  SlotScratch scratch_;
  PdcchScratch pdcch_scratch_;
  std::uint64_t slot_index_ = 0;
  /// Frame phase: slot-in-frame of feed index 0, learned from the SSB.
  std::int64_t frame_phase_ = 0;
  bool phase_locked_ = false;
};

}  // namespace nrs
