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

// Subcarriers are centered on DC: subcarrier n_sc/2 + i sits in bin i, and
// the n_sc/2 subcarriers below DC wrap to the top bins.  So a grid row maps
// to the bins as two contiguous runs, and the bins between them (the guard
// band) carry nothing.

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
  const unsigned below_dc = config_.n_subcarriers() / 2;
  const unsigned n = config_.fft_size;
  const unsigned cp = config_.cp_len;
  for (unsigned sym = 0; sym < grid.n_symbols(); ++sym) {
    // The guard bins of freq_ are zero since construction: the transform
    // only reads its input, and only the two occupied runs are written.
    const auto row = grid.symbol(sym);
    std::copy(row.begin() + below_dc, row.end(), freq_.begin());
    std::copy(row.begin(), row.begin() + below_dc, freq_.end() - below_dc);
    cf32* dst = out.data() +
                static_cast<std::size_t>(sym) * config_.samples_per_symbol();
    // The symbol body straight into the slot, then the cyclic prefix: a
    // copy of the body's last cp_len samples.
    fft_.inverse(freq_, std::span(dst + cp, n));
    std::copy(dst + n, dst + n + cp, dst);
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
  fft_.forward(std::span(src, config_.fft_size), freq_);
  // IFFT/FFT round trip leaves a factor of 1 (inverse normalizes); copy
  // the occupied bins back out.
  const unsigned below_dc = config_.n_subcarriers() / 2;
  auto row = grid.symbol(sym);
  std::copy(freq_.begin(), freq_.begin() + (row.size() - below_dc),
            row.begin() + below_dc);
  std::copy(freq_.end() - below_dc, freq_.end(), row.begin());
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
