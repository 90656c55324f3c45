#include "phy/channel.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "phy/kernels/kernels.h"

namespace nrs {

const char* to_string(ChannelProfile profile) {
  switch (profile) {
    case ChannelProfile::kAwgn:
      return "AWGN";
    case ChannelProfile::kPedestrian:
      return "Pedestrian";
    case ChannelProfile::kVehicle:
      return "Vehicle";
    case ChannelProfile::kUrban:
      return "Urban";
  }
  return "?";
}

ChannelProfile channel_profile_from_string(const std::string& name) {
  if (name == "AWGN" || name == "awgn") {
    return ChannelProfile::kAwgn;
  }
  if (name == "Pedestrian" || name == "pedestrian") {
    return ChannelProfile::kPedestrian;
  }
  if (name == "Vehicle" || name == "vehicle") {
    return ChannelProfile::kVehicle;
  }
  if (name == "Urban" || name == "urban") {
    return ChannelProfile::kUrban;
  }
  throw std::invalid_argument("unknown channel profile: " + name);
}

std::vector<std::pair<double, double>> profile_taps_ns_db(
    ChannelProfile profile) {
  switch (profile) {
    case ChannelProfile::kAwgn:
      return {{0.0, 0.0}};
    case ChannelProfile::kPedestrian:  // 3GPP EPA delay profile
      return {{0, 0.0},    {30, -1.0},  {70, -2.0},  {90, -3.0},
              {110, -8.0}, {190, -17.2}, {410, -20.8}};
    case ChannelProfile::kVehicle:  // 3GPP EVA delay profile
      return {{0, 0.0},     {30, -1.5},   {150, -1.4},  {310, -3.6},
              {370, -0.6},  {710, -9.1},  {1090, -7.0}, {1730, -12.0},
              {2510, -16.9}};
    case ChannelProfile::kUrban:  // 3GPP ETU delay profile
      return {{0, -1.0},   {50, -1.0},   {120, -1.0},  {200, 0.0},
              {230, 0.0},  {500, 0.0},   {1600, -3.0}, {2300, -5.0},
              {5000, -7.0}};
  }
  throw std::invalid_argument("unknown channel profile");
}

double profile_default_doppler_hz(ChannelProfile profile) {
  switch (profile) {
    case ChannelProfile::kAwgn:
      return 0.0;
    case ChannelProfile::kPedestrian:
      return 5.0;
    case ChannelProfile::kVehicle:
      return 300.0;
    case ChannelProfile::kUrban:
      return 70.0;
  }
  return 0.0;
}

std::optional<std::string> ChannelConfig::validate() const {
  if (std::isnan(snr_db)) {
    return "snr_db must not be NaN";
  }
  if (std::isnan(sample_rate) || sample_rate <= 0.0) {
    return "sample_rate must be a positive number, got " +
           std::to_string(sample_rate);
  }
  if (fft_size == 0) {
    return "fft_size must be > 0";
  }
  return std::nullopt;
}

void apply_multipath(std::span<cf32> samples,
                     std::span<const FadingTap> taps) {
  if (taps.size() > kMaxFadingTaps) {
    throw std::invalid_argument("apply_multipath: more than " +
                                std::to_string(kMaxFadingTaps) + " taps");
  }
  std::array<cf32, kMaxFadingTaps> gains;
  std::array<unsigned, kMaxFadingTaps> delays;
  for (std::size_t t = 0; t < taps.size(); ++t) {
    gains[t] = taps[t].gain;
    delays[t] = taps[t].delay_samples;
  }
  kernels::active().multipath(samples.data(), samples.size(), gains.data(),
                              delays.data(), taps.size());
}

ChannelModel::ChannelModel(const ChannelConfig& config)
    : config_(config), rng_(config.seed) {
  if (auto error = config_.validate()) {
    throw std::invalid_argument("ChannelConfig: " + *error);
  }
  const auto profile = profile_taps_ns_db(config_.profile);
  double total = 0.0;
  for (const auto& [delay_ns, power_db] : profile) {
    total += std::pow(10.0, power_db / 10.0);
  }
  taps_.reserve(profile.size());
  for (const auto& [delay_ns, power_db] : profile) {
    FadingTap tap;
    tap.delay_samples = static_cast<unsigned>(
        std::lround(delay_ns * 1e-9 * config_.sample_rate));
    tap.power = std::pow(10.0, power_db / 10.0) / total;
    // Initial Rayleigh draw (AWGN profile keeps a fixed unit tap).
    if (config_.profile == ChannelProfile::kAwgn) {
      tap.gain = cf32(1.0f, 0.0f);
    } else {
      const double s = std::sqrt(tap.power / 2.0);
      tap.gain = cf32(static_cast<float>(rng_.gaussian(0.0, s)),
                      static_cast<float>(rng_.gaussian(0.0, s)));
    }
    taps_.push_back(tap);
  }
  // AR(1) fading: correlation over one slot from the Clarke model,
  // rho ~= J0(2*pi*fd*T_slot); use the small-angle expansion clamped to
  // [0, 1) so high Doppler still decorrelates monotonically.
  const double fd = profile_default_doppler_hz(config_.profile);
  // Slot duration from the sample rate and a 14-symbol slot is not known
  // here; use 0.5 ms (30 kHz SCS) as the evolution step, which is the TTI
  // the paper's experiments run at.
  const double x = 2.0 * std::numbers::pi * fd * 0.5e-3;
  const double j0 = 1.0 - x * x / 4.0 + x * x * x * x / 64.0;
  rho_ = std::clamp(j0, 0.0, 0.99999);
}

void ChannelModel::evolve_taps() {
  if (config_.profile == ChannelProfile::kAwgn) {
    return;
  }
  const double innov = std::sqrt(std::max(0.0, 1.0 - rho_ * rho_));
  for (auto& tap : taps_) {
    const double s = std::sqrt(tap.power / 2.0);
    const cf32 w(static_cast<float>(rng_.gaussian(0.0, s)),
                 static_cast<float>(rng_.gaussian(0.0, s)));
    tap.gain = static_cast<float>(rho_) * tap.gain +
               static_cast<float>(innov) * w;
  }
}

double ChannelModel::current_gain() const {
  double g = 0.0;
  for (const auto& tap : taps_) {
    g += std::norm(tap.gain);
  }
  return g;
}

double ChannelModel::effective_snr_db() const {
  return config_.snr_db + 10.0 * std::log10(std::max(1e-9, current_gain()));
}

void ChannelModel::step_slot() {
  if (slots_++ > 0) {
    evolve_taps();
  }
}

void ChannelModel::apply(IqBuffer& samples) {
  // Fading evolves block-wise, once per slot.
  const std::uint64_t slot = slots_++;
  if (slot > 0) {
    evolve_taps();
  }

  // Multipath FIR with the current tap gains, in place.
  if (taps_.size() > 1 || taps_[0].delay_samples != 0 ||
      taps_[0].gain != cf32(1.0f, 0.0f)) {
    apply_multipath(samples, taps_);
  }

  // AWGN sized so that the post-FFT per-RE SNR equals the set-point for a
  // unit-power RE: time-domain noise variance = 1 / (fft_size * SNR).  The
  // draws come from the stateless counter-based generator keyed by the
  // seed and indexed by (slot, sample), so they never touch the fading
  // stream.
  const double snr = std::pow(10.0, config_.snr_db / 10.0);
  const double nv = 1.0 / (static_cast<double>(config_.fft_size) * snr);
  const auto sigma = static_cast<float>(std::sqrt(nv / 2.0));
  kernels::active().awgn_add(samples.data(), samples.size(), config_.seed,
                             slot, 0, sigma);
}

}  // namespace nrs
