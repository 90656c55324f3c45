// 5G NR frame timing: numerologies (subcarrier spacing), slot indexing and
// TTI durations.  The paper (section 3, Preliminaries) relies on TTIs of
// 1 / 0.5 / 0.25 ms for 15 / 30 / 60 kHz SCS; this module is the single
// source of truth for that arithmetic.
#pragma once

#include <cstdint>
#include <string>

namespace nrs {

/// NR numerology mu (TS 38.211 4.2): SCS = 15 kHz * 2^mu.
enum class Scs : std::uint8_t {
  kHz15 = 0,
  kHz30 = 1,
  kHz60 = 2,
};

/// Subcarrier spacing in Hz.
constexpr double scs_hz(Scs scs) {
  return 15000.0 * static_cast<double>(1u << static_cast<unsigned>(scs));
}

/// Slots per 10 ms radio frame: 10 * 2^mu.
constexpr unsigned slots_per_frame(Scs scs) {
  return 10u * (1u << static_cast<unsigned>(scs));
}

/// TTI (slot) duration in seconds: 1 ms / 2^mu.
constexpr double slot_duration_s(Scs scs) {
  return 1e-3 / static_cast<double>(1u << static_cast<unsigned>(scs));
}

const char* to_string(Scs scs);

/// A point in NR time: system frame number (0..1023) plus slot-in-frame.
/// Also convertible to/from a flat monotonically increasing slot count,
/// which the simulator and the sniffer use to match DCIs against ground
/// truth (paper section 5.2.1 matches on "timestamp and TTI index").
struct SlotPoint {
  Scs scs = Scs::kHz30;
  std::uint32_t sfn = 0;   ///< system frame number, wraps at 1024
  std::uint32_t slot = 0;  ///< slot index within the frame

  /// Flat slot count since sfn 0 / slot 0 (ignoring the 1024 wrap).
  [[nodiscard]] std::uint64_t flat(std::uint64_t wraps = 0) const {
    return (wraps * 1024ull + sfn) * slots_per_frame(scs) + slot;
  }

  /// Advance by one slot, wrapping sfn at 1024.  Returns true on sfn wrap.
  bool advance();

  [[nodiscard]] bool operator==(const SlotPoint& o) const {
    return scs == o.scs && sfn == o.sfn && slot == o.slot;
  }

  [[nodiscard]] std::string to_string() const;
};

/// Monotonic slot clock: produces successive SlotPoints and tracks absolute
/// elapsed time, including sfn wraps.
class SlotClock {
 public:
  explicit SlotClock(Scs scs) : point_{scs, 0, 0} {}

  /// Current slot.
  [[nodiscard]] const SlotPoint& now() const { return point_; }

  /// Absolute slot count since start (never wraps).
  [[nodiscard]] std::uint64_t count() const { return count_; }

  /// Elapsed simulated time in seconds.
  [[nodiscard]] double elapsed_s() const {
    return static_cast<double>(count_) * slot_duration_s(point_.scs);
  }

  /// Step to the next slot.
  void tick();

 private:
  SlotPoint point_;
  std::uint64_t count_ = 0;
};

}  // namespace nrs
