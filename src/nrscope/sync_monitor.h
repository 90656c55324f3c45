// Sync-health scoring and resynchronization bookkeeping (robustness
// layer).  While the engine tracks a cell, the monitor ingests two
// signals every slot:
//
//  - the PSS correlation quality at the known SSB location on the slots
//    where the cell is due to transmit an SSB (deep fades, timing jumps
//    and strong CFO all collapse it), and
//  - the blind-decode yield (a cell with tracked UEs that stops producing
//    any user DCI for a long run is being decoded blind — the cell's
//    configuration changed under us even though the SSB still matches).
//
// When either trips, the engine falls back to a kResync state that
// re-runs PSS/SSS + MIB while retaining tracked-UE state for a grace
// window; the monitor records sync losses, completed resyncs, PCI
// changes, abandonments and resync durations in the metrics registry.
//
// Everything here is allocation-free after construction: the monitor
// runs inside the zero-allocation steady-state slot path.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/metrics.h"

namespace nrs {

/// EMA weight of a new SSB observation in the quality score.
inline constexpr double kSsbAlpha = 0.4;
/// A single SSB whose PSS correlation falls below this is "weak".
inline constexpr float kSsbWeakThreshold = 0.25f;
/// Consecutive weak SSBs before sync is declared lost.
inline constexpr unsigned kSsbFailLimit = 3;
/// Quality EMA below this flags the slot degraded (still tracking).
inline constexpr double kDegradedThreshold = 0.5;

struct SyncMonitorConfig {
  /// Consecutive slots with tracked UEs but zero decoded user DCIs
  /// before sync is declared lost (blind decoding: the cell moved on).
  std::uint64_t empty_slot_limit = 2000;
  /// How long kResync keeps the tracked-UE state alive while it hunts
  /// for the cell; expiry flushes and falls back to a cold kSearching.
  std::uint64_t resync_grace_slots = 4000;

  [[nodiscard]] std::optional<std::string> validate() const;
};

/// Why sync was lost — decides where a same-PCI recovery resumes.
enum class SyncLossCause : std::uint8_t {
  kNone,
  kSsbQuality,   ///< channel-level fault; cell config assumed intact
  kBlindDecode,  ///< decodes dried up; re-read SIB1 before tracking
};

const char* to_string(SyncLossCause cause);

enum class SyncHealth : std::uint8_t { kHealthy, kDegraded, kLost };

class SyncMonitor {
 public:
  SyncMonitor(const SyncMonitorConfig& config, MetricsRegistry& registry);

  /// (Re)entering the tracking state: quality starts clean.
  void on_lock();

  /// One PSS-correlation measurement on an expected-SSB slot.
  void observe_ssb(float correlation);

  /// End-of-slot yield: decoded user DCIs and whether UEs are tracked.
  void observe_slot(std::size_t n_user_dcis, bool have_ues);

  /// Verdict for the slot just observed.
  [[nodiscard]] SyncHealth health() const;

  /// Which trigger fired (meaningful when health() == kLost).
  [[nodiscard]] SyncLossCause loss_cause() const;

  // Resync lifecycle (driven by the engine's state machine).
  void resync_started(std::uint64_t slot);
  void resync_finished(std::uint64_t slot, bool pci_changed);
  void resync_abandoned(std::uint64_t slot);

  [[nodiscard]] double quality() const { return quality_; }
  [[nodiscard]] unsigned weak_ssb_run() const { return weak_run_; }
  [[nodiscard]] std::uint64_t empty_slot_run() const { return empty_run_; }
  [[nodiscard]] std::uint64_t sync_losses() const {
    return m_sync_losses_->value();
  }
  [[nodiscard]] std::uint64_t resyncs() const { return m_resyncs_->value(); }
  [[nodiscard]] std::uint64_t pci_changes() const {
    return m_pci_changes_->value();
  }
  [[nodiscard]] std::uint64_t abandoned() const {
    return m_abandoned_->value();
  }

 private:
  SyncMonitorConfig config_;
  double quality_ = 1.0;
  unsigned weak_run_ = 0;
  std::uint64_t empty_run_ = 0;
  std::uint64_t resync_started_slot_ = 0;
  Counter* m_sync_losses_ = nullptr;
  Counter* m_resyncs_ = nullptr;
  Counter* m_pci_changes_ = nullptr;
  Counter* m_abandoned_ = nullptr;
  Histogram* m_resync_duration_ = nullptr;
  Gauge* m_health_ = nullptr;
};

}  // namespace nrs
