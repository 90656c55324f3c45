#include "phy/ofdm.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace nrs {

OfdmConfig make_ofdm_config(unsigned n_prb) {
  OfdmConfig cfg;
  cfg.n_prb = n_prb;
  unsigned fft = 128;
  while (fft < n_prb * 12 + 2) {
    fft <<= 1;
  }
  cfg.fft_size = fft;
  cfg.cp_len = fft / 16 + fft / 64;  // ~7% normal-CP overhead
  return cfg;
}

namespace {
// Map subcarrier index (0..N_sc-1) to FFT bin: subcarriers are centered on
// DC, negative frequencies wrap to the top half of the FFT.
unsigned bin_for_subcarrier(const OfdmConfig& cfg, unsigned sc) {
  const int offset =
      static_cast<int>(sc) - static_cast<int>(cfg.n_subcarriers() / 2);
  const int bin = offset >= 0
                      ? offset
                      : static_cast<int>(cfg.fft_size) + offset;
  return static_cast<unsigned>(bin);
}
}  // namespace

OfdmModulator::OfdmModulator(OfdmConfig config)
    : config_(config), fft_(config.fft_size), freq_(config.fft_size) {
  if (config_.n_subcarriers() + 2 > config_.fft_size) {
    throw std::invalid_argument("OfdmModulator: FFT too small for PRBs");
  }
}

void OfdmModulator::modulate_into(const ResourceGrid& grid, IqBuffer& out) {
  if (grid.n_prb() != config_.n_prb) {
    throw std::invalid_argument("OfdmModulator: grid PRB mismatch");
  }
  out.resize(config_.samples_per_slot());
  for (unsigned sym = 0; sym < grid.n_symbols(); ++sym) {
    std::fill(freq_.begin(), freq_.end(), cf32{});
    const auto row = grid.symbol(sym);
    for (unsigned sc = 0; sc < config_.n_subcarriers(); ++sc) {
      freq_[bin_for_subcarrier(config_, sc)] = row[sc];
    }
    fft_.inverse(freq_);
    cf32* dst = out.data() +
                static_cast<std::size_t>(sym) * config_.samples_per_symbol();
    // Cyclic prefix: last cp_len time samples, then the symbol body.
    for (unsigned i = 0; i < config_.cp_len; ++i) {
      dst[i] = freq_[config_.fft_size - config_.cp_len + i];
    }
    for (unsigned i = 0; i < config_.fft_size; ++i) {
      dst[config_.cp_len + i] = freq_[i];
    }
  }
}

IqBuffer OfdmModulator::modulate(const ResourceGrid& grid) {
  IqBuffer out;
  modulate_into(grid, out);
  return out;
}

OfdmDemodulator::OfdmDemodulator(OfdmConfig config)
    : config_(config), fft_(config.fft_size), freq_(config.fft_size) {
  if (config_.n_subcarriers() + 2 > config_.fft_size) {
    throw std::invalid_argument("OfdmDemodulator: FFT too small for PRBs");
  }
}

void OfdmDemodulator::demodulate_into(std::span<const cf32> samples,
                                      ResourceGrid& grid) {
  for (unsigned sym = 0; sym < kSymbolsPerSlot; ++sym) {
    demodulate_symbol(samples, sym, grid);
  }
}

void OfdmDemodulator::demodulate_symbol(std::span<const cf32> samples,
                                        unsigned sym, ResourceGrid& grid) {
  if (samples.size() < config_.samples_per_slot()) {
    throw std::invalid_argument("OfdmDemodulator: short slot buffer");
  }
  if (grid.n_prb() != config_.n_prb) {
    throw std::invalid_argument("OfdmDemodulator: grid PRB mismatch");
  }
  const cf32* src = samples.data() +
                    static_cast<std::size_t>(sym) *
                        config_.samples_per_symbol() +
                    config_.cp_len;
  std::copy(src, src + config_.fft_size, freq_.begin());
  fft_.forward(freq_);
  // IFFT/FFT round trip leaves a factor of 1 (inverse normalizes); copy
  // the occupied bins back out.
  auto row = grid.symbol(sym);
  for (unsigned sc = 0; sc < config_.n_subcarriers(); ++sc) {
    row[sc] = freq_[bin_for_subcarrier(config_, sc)];
  }
}

ResourceGrid OfdmDemodulator::demodulate(std::span<const cf32> samples) {
  ResourceGrid grid(config_.n_prb);
  demodulate_into(samples, grid);
  return grid;
}

SlotGrid::SlotGrid(OfdmConfig config)
    : demod_(config), grid_(config.n_prb) {}

void SlotGrid::reset(std::span<const cf32> samples) {
  if (samples.size() < demod_.config().samples_per_slot()) {
    throw std::invalid_argument("SlotGrid: short slot buffer");
  }
  samples_ = samples;
  ready_ = 0;
  demodulated_ = 0;
  demod_us_ = 0.0;
}

const ResourceGrid& SlotGrid::symbols(unsigned first, unsigned count) {
  const unsigned end = std::min(first + count, kSymbolsPerSlot);
  const unsigned begin = std::min(first, end);
  // Bits [begin, end) that are not demodulated yet.
  const unsigned missing =
      ((1u << end) - 1u) & ~((1u << begin) - 1u) & ~ready_;
  if (missing == 0) {
    return grid_;
  }
  const auto start = std::chrono::steady_clock::now();
  for (unsigned sym = begin; sym < end; ++sym) {
    if ((missing >> sym) & 1u) {
      demod_.demodulate_symbol(samples_, sym, grid_);
      ++demodulated_;
    }
  }
  ready_ |= missing;
  demod_us_ += std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  return grid_;
}

}  // namespace nrs
