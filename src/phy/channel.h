// Wireless channel models applied to time-domain IQ between the gNB and
// the sniffer (or a UE).  The paper evaluates under real indoor/outdoor/
// moving conditions and under Amarisoft's emulated AWGN / Pedestrian /
// Vehicle / Urban channels (sections 5.2-5.4); these models reproduce that
// set: AWGN plus tapped-delay-line Rayleigh fading with each profile's
// Doppler, and an SNR set-point.  Carrier frequency offset is the fault
// harness's impairment (radio/impairments.h).
//
// SNR convention: `snr_db` is the post-FFT per-resource-element SNR for a
// unit-power constellation symbol, i.e. what the demapper sees after OFDM
// demodulation with FFT size `fft_size`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace nrs {

/// Named fading profiles (paper Fig. 15).
enum class ChannelProfile : std::uint8_t {
  kAwgn,        ///< single tap, no fading
  kPedestrian,  ///< EPA-like taps, ~5 Hz Doppler
  kVehicle,     ///< EVA-like taps, ~300 Hz Doppler
  kUrban,       ///< ETU-like taps, ~70 Hz Doppler
};

const char* to_string(ChannelProfile profile);
ChannelProfile channel_profile_from_string(const std::string& name);

struct ChannelConfig {
  ChannelProfile profile = ChannelProfile::kAwgn;
  double snr_db = 30.0;  ///< post-FFT per-RE SNR set-point
  double sample_rate = 30.72e6;
  unsigned fft_size = 1024;
  std::uint64_t seed = 1;

  /// First violated constraint as a descriptive message, or nullopt when
  /// usable.  ChannelModel's constructor calls this and throws
  /// std::invalid_argument — NaN SNRs and non-positive sample rates
  /// otherwise propagate silently into every downstream statistic.
  [[nodiscard]] std::optional<std::string> validate() const;
};

/// One tap of a tapped-delay-line channel.
struct FadingTap {
  unsigned delay_samples = 0;
  double power = 0.0;  ///< linear; a profile's taps sum to 1
  cf32 gain;           ///< current complex gain
};

/// Most taps apply_multipath takes; every profile has at most 9.
inline constexpr std::size_t kMaxFadingTaps = 16;

/// Multipath FIR in place: x[i] <- sum over taps, in the given order, of
/// gain * x[i - delay] (terms with i < delay omitted), through the kernel
/// layer's multipath entry.  Allocation-free; the result is bit-identical
/// to accumulating into a separate zeroed output buffer, and on every
/// backend.  Throws std::invalid_argument beyond kMaxFadingTaps taps.
void apply_multipath(std::span<cf32> samples,
                     std::span<const FadingTap> taps);

/// Stateful channel: call apply() on consecutive slot buffers; fading
/// evolves across calls.
class ChannelModel {
 public:
  explicit ChannelModel(const ChannelConfig& config);

  /// Apply fading + AWGN to one slot of samples, in place and
  /// without allocating.  The noise of sample i in the n-th call (n from
  /// 0) is a pure function of (seed, n, i): Philox4x32-10 through the
  /// kernel layer's awgn_add, bit-identical across SIMD backends.
  void apply(IqBuffer& samples);

  /// Advance the fading state by one slot without touching samples.  UE
  /// emulators use this: their link quality evolves even though we never
  /// synthesize their IQ (only the sniffer's samples are materialized).
  /// The noise is a stateless function of (seed, slot, sample), so for the
  /// same seed step_slot() and apply() walk through identical per-slot
  /// gain trajectories (the UE CQI path and the sniffer path agree).
  void step_slot();

  /// Instantaneous average tap power (linear); < 1 means the slot is in a
  /// fade.  UEs use this to derive CQI.
  [[nodiscard]] double current_gain() const;

  /// Effective per-RE SNR right now (set-point shifted by the fade), dB.
  [[nodiscard]] double effective_snr_db() const;

  [[nodiscard]] const ChannelConfig& config() const { return config_; }

 private:
  void evolve_taps();

  ChannelConfig config_;
  Rng rng_;  ///< fading evolution only; noise comes from the awgn_add kernel
  std::vector<FadingTap> taps_;
  double rho_ = 1.0;  // AR(1) fading coefficient per slot
  std::uint64_t slots_ = 0;
};

/// Sum of linear tap powers == 1 for every profile; exposed for tests.
std::vector<std::pair<double, double>> profile_taps_ns_db(
    ChannelProfile profile);

/// Default Doppler per profile (Hz).
double profile_default_doppler_hz(ChannelProfile profile);

}  // namespace nrs
