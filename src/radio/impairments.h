// Deterministic fault injection for the virtual radio (robustness
// harness).  A FaultSchedule scripts transient impairments against the
// slot clock — deep-fade outages, dropped-sample gaps, IQ glitch bursts,
// timing jumps, CFO steps and slow drift, and mid-run gNB events (cell
// restart with a new PCI, SIB1 change).  The ImpairmentInjector applies
// the IQ-level kinds to captured samples inside VirtualRadio; the
// feeder-level kinds (timing jump, gNB events) are consumed by whoever
// drives the gNB simulator (fleet feeder, tests, benches).
//
// Everything is seeded and replayable: the same schedule + seed produces
// bit-identical corrupted captures, so recovery tests are deterministic.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/types.h"

namespace nrs {

enum class FaultKind : std::uint8_t {
  // IQ-level impairments, applied by the ImpairmentInjector.
  kOutage,      ///< deep fade: SNR collapses by `magnitude` dB
  kSampleGap,   ///< `magnitude` fraction of each slot's samples dropped
  kIqGlitch,    ///< impulsive spikes of amplitude `magnitude`
  kCfoStep,     ///< constant CFO of `magnitude` Hz over the window
  kCfoDrift,    ///< CFO ramping by `magnitude` Hz per slot into the window
  // Feeder-level events, consumed by the gNB driver (see feeder_event_at).
  kTimingJump,   ///< receiver loses `magnitude` slots of stream time
  kCellRestart,  ///< gNB restarts with PCI + `magnitude` (same site)
  kSib1Change,   ///< gNB restarts with the same PCI but a changed SIB1
};

const char* to_string(FaultKind kind);

/// Whether the injector handles this kind on the IQ path (vs the feeder).
[[nodiscard]] bool is_iq_fault(FaultKind kind);

struct FaultEvent {
  FaultKind kind = FaultKind::kOutage;
  std::uint64_t start_slot = 0;
  std::uint64_t duration_slots = 1;
  /// Per-kind meaning, see FaultKind.  Feeder events read it as an
  /// integer (slots to skip / PCI delta); kSib1Change ignores it.
  double magnitude = 0.0;

  [[nodiscard]] std::uint64_t end_slot() const {
    return start_slot + duration_slots;
  }
  [[nodiscard]] bool active_at(std::uint64_t slot) const {
    return slot >= start_slot && slot < end_slot();
  }
};

struct FaultSchedule {
  std::vector<FaultEvent> events;

  /// First violated constraint (zero-length events, NaN/out-of-range
  /// magnitudes, overlapping windows of the same kind) as a descriptive
  /// message, or nullopt when usable.
  [[nodiscard]] std::optional<std::string> validate() const;

  /// Seeded random schedule: `n_events` IQ-level faults (outage, gap,
  /// glitch, CFO step, CFO drift) with non-overlapping windows spread over
  /// [first_slot, horizon_slots).  Deterministic in `seed`.
  static FaultSchedule random(std::uint64_t seed, std::uint64_t first_slot,
                              std::uint64_t horizon_slots,
                              unsigned n_events);

  [[nodiscard]] bool empty() const { return events.empty(); }
  /// The event of `kind` active at `slot`, or nullptr.
  [[nodiscard]] const FaultEvent* find_active(FaultKind kind,
                                              std::uint64_t slot) const;
  [[nodiscard]] bool any_iq_active(std::uint64_t slot) const;
  /// The feeder-level event (timing jump / gNB event) starting exactly at
  /// `slot`, or nullptr.  Point events: duration is ignored.
  [[nodiscard]] const FaultEvent* feeder_event_at(std::uint64_t slot) const;
};

/// Applies the IQ-level faults of a schedule to captured slots, in place
/// and allocation-free.  Stateful: CFO phase accumulates across the slots
/// of a window, and the injector keeps its own slot clock (one apply()
/// call == one slot).
class ImpairmentInjector {
 public:
  ImpairmentInjector() = default;
  ImpairmentInjector(FaultSchedule schedule, double sample_rate,
                     std::uint64_t seed = 1);

  /// Mirror fault activity into radio.* metrics: radio.fault_slots
  /// (slots with any IQ fault active) and radio.fault_active (gauge).
  void bind_metrics(MetricsRegistry& registry);

  /// Corrupt one captured slot according to the schedule, then advance
  /// the slot clock.  No-fault slots are untouched (and draw no RNG).
  void apply(IqBuffer& samples);

  [[nodiscard]] std::uint64_t current_slot() const { return slot_; }
  [[nodiscard]] const FaultSchedule& schedule() const { return schedule_; }

 private:
  void apply_outage(const FaultEvent& ev, IqBuffer& samples);
  void apply_sample_gap(const FaultEvent& ev, IqBuffer& samples);
  void apply_glitch(const FaultEvent& ev, IqBuffer& samples);
  void apply_cfo(double cfo_hz, IqBuffer& samples);

  FaultSchedule schedule_;
  double sample_rate_ = 30.72e6;
  Rng rng_{1};
  double cfo_phase_ = 0.0;
  std::uint64_t slot_ = 0;
  Counter* m_fault_slots_ = nullptr;
  Gauge* m_fault_active_ = nullptr;
};

}  // namespace nrs
