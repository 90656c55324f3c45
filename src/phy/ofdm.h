// CP-OFDM modulation of a slot resource grid to time-domain IQ samples and
// back.  The virtual radio path (gNB IFFT -> channel -> sniffer FFT) runs
// through these two classes, so sniffer decode errors originate from real
// sample-domain impairments rather than injected bit flips.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.h"
#include "phy/fft.h"
#include "phy/resource_grid.h"

namespace nrs {

/// Dimensioning for the OFDM transforms of one carrier.
struct OfdmConfig {
  unsigned n_prb = 51;       ///< carrier bandwidth in PRBs
  unsigned fft_size = 1024;  ///< must exceed n_prb * 12
  unsigned cp_len = 72;      ///< cyclic prefix in samples (normal CP approx.)

  [[nodiscard]] unsigned n_subcarriers() const { return n_prb * 12; }
  [[nodiscard]] unsigned samples_per_symbol() const {
    return fft_size + cp_len;
  }
  [[nodiscard]] unsigned samples_per_slot() const {
    return samples_per_symbol() * kSymbolsPerSlot;
  }
};

/// Pick a sensible FFT size/CP for a PRB count (next pow2 above 12*nprb).
OfdmConfig make_ofdm_config(unsigned n_prb);

/// Grid -> time samples: subcarriers are centered around DC, IFFT per
/// symbol, cyclic prefix prepended.
///
/// The per-symbol frequency-domain staging buffer is a persistent member
/// sized at construction (hot-path memory discipline, DESIGN.md), so a
/// modulator is NOT safe to share between threads; give each thread its
/// own instance (each pipeline's engine thread owns its demodulator).
class OfdmModulator {
 public:
  explicit OfdmModulator(OfdmConfig config);

  /// Modulate a full slot; output has config().samples_per_slot() samples.
  [[nodiscard]] IqBuffer modulate(const ResourceGrid& grid);

  /// Allocation-free variant: `out` is resized to samples_per_slot()
  /// (a no-op reuse when its capacity already covers a slot).
  void modulate_into(const ResourceGrid& grid, IqBuffer& out);

  [[nodiscard]] const OfdmConfig& config() const { return config_; }

 private:
  OfdmConfig config_;
  Fft fft_;
  std::vector<cf32> freq_;  ///< per-symbol staging, reused across slots
};

/// Time samples -> grid: CP removal and forward FFT per symbol.  Same
/// threading rule as OfdmModulator: one instance per thread.
class OfdmDemodulator {
 public:
  explicit OfdmDemodulator(OfdmConfig config);

  /// Demodulate one slot of samples into a grid.
  [[nodiscard]] ResourceGrid demodulate(std::span<const cf32> samples);

  /// Allocation-free variant reusing a caller grid (its PRB count must
  /// match the configuration); every RE is overwritten.
  void demodulate_into(std::span<const cf32> samples, ResourceGrid& grid);

  /// Demodulate OFDM symbol `sym` of one slot's samples into row `sym` of
  /// `grid`, leaving the other rows alone.  A symbol's FFT reads no other
  /// symbol, so the row is bit-identical to demodulate_into's.
  void demodulate_symbol(std::span<const cf32> samples, unsigned sym,
                         ResourceGrid& grid);

  [[nodiscard]] const OfdmConfig& config() const { return config_; }

 private:
  OfdmConfig config_;
  Fft fft_;
  std::vector<cf32> freq_;  ///< per-symbol staging, reused across slots
};

/// The sniffer's received slot, demodulated on demand: a row is FFT'd the
/// first time a reader asks for it, and at most once per slot.  A row that
/// nobody requested still holds an earlier slot's values, so every read
/// goes through symbols().  Same threading rule as OfdmDemodulator.
class SlotGrid {
 public:
  explicit SlotGrid(OfdmConfig config);

  /// Start a new slot.  `samples` must hold at least one slot and outlive
  /// this slot's symbols() calls.
  void reset(std::span<const cf32> samples);

  /// The grid with rows [first, first + count) of this slot demodulated
  /// (rows past the slot's last symbol are ignored).
  [[nodiscard]] const ResourceGrid& symbols(unsigned first, unsigned count);

  /// FFTs run since reset(), and the time they took.
  [[nodiscard]] unsigned demodulated() const { return demodulated_; }
  [[nodiscard]] double demod_us() const { return demod_us_; }

 private:
  OfdmDemodulator demod_;
  ResourceGrid grid_;
  std::span<const cf32> samples_;
  unsigned ready_ = 0;  ///< bit s set once row s holds this slot
  unsigned demodulated_ = 0;
  double demod_us_ = 0.0;
};

}  // namespace nrs
