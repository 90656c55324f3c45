#include "ue/ue_sim.h"

#include <algorithm>
#include <cmath>

namespace nrs {

void PacketTrace::record(std::uint64_t slot, std::size_t bytes,
                         unsigned packets) {
  entries_.push_back(TraceEntry{slot, bytes, packets});
  total_bytes_ += bytes;
}

double PacketTrace::rate_bps(std::uint64_t slot_end,
                             std::uint64_t window_slots,
                             double slot_duration_s) const {
  if (window_slots == 0) {
    return 0.0;
  }
  const std::uint64_t begin =
      slot_end >= window_slots ? slot_end - window_slots : 0;
  std::size_t bytes = 0;
  // Entries are appended in slot order; scan from the back.
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    if (it->slot >= slot_end) {
      continue;
    }
    if (it->slot < begin) {
      break;
    }
    bytes += it->bytes;
  }
  const double window_s =
      static_cast<double>(slot_end - begin) * slot_duration_s;
  return window_s > 0.0 ? static_cast<double>(bytes) * 8.0 / window_s : 0.0;
}

double block_error_probability(double snr_db, double efficiency_bits_per_re,
                               double gap_db) {
  // Required SNR for the target spectral efficiency with an implementation
  // gap, then a sigmoid ~2 dB wide around it (typical LDPC waterfall).
  const double required_db =
      10.0 * std::log10(std::pow(2.0, efficiency_bits_per_re) - 1.0) + gap_db;
  const double margin = snr_db - required_db;
  const double bler = 1.0 / (1.0 + std::exp(2.2 * margin));
  return std::clamp(bler, 1e-5, 1.0 - 1e-5);
}

UeEmulator::UeEmulator(UeConfig config)
    : config_(std::move(config)), channel_(config_.channel),
      rng_(config_.seed) {}

void UeEmulator::step(std::uint64_t /*slot*/, double now_s) {
  channel_.step_slot();
  if (config_.dl_traffic) {
    config_.dl_traffic->advance(now_s);
  }
  if (config_.ul_traffic) {
    config_.ul_traffic->advance(now_s);
  }
}

double UeEmulator::reported_snr_db() const {
  return std::round(snr_db() * 2.0) / 2.0;  // 0.5 dB CQI quantization
}

bool UeEmulator::decide_ack(const Grant& grant) {
  const double eff =
      grant.code_rate * static_cast<double>(bits_per_symbol(grant.modulation));
  return !rng_.chance(block_error_probability(snr_db(), eff));
}

void UeEmulator::deliver(std::uint64_t slot, std::size_t bytes,
                         unsigned packets) {
  trace_.record(slot, bytes, packets);
}

}  // namespace nrs
