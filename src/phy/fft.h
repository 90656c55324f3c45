// Radix-2 complex FFT.  This is the per-slot workhorse the paper
// identifies as the main computational cost (section 4: "The major
// computational cost comes from the FFT of each slot...").  Sizes are powers
// of two; OFDM symbol sizes in this codebase are 512/1024/2048.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.h"

namespace nrs {

/// Plans twiddle factors for a fixed power-of-two size; then executes
/// out-of-place forward/inverse transforms (Stockham autosort, through the
/// kernel table's `fft`).
///
/// The transform ping-pongs through a persistent N-point scratch, so an
/// Fft is NOT safe to share between threads; like the OFDM classes that
/// own one, give each thread its own instance.
class Fft {
 public:
  explicit Fft(std::size_t size);

  /// Forward DFT of `in` into `out`.  No normalization.  Both hold size()
  /// points and must not overlap.
  void forward(std::span<const cf32> in, std::span<cf32> out);

  /// Inverse DFT of `in` into `out`, normalized by 1/N.  Same buffer
  /// rules as forward().
  void inverse(std::span<const cf32> in, std::span<cf32> out);

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  void transform(std::span<const cf32> in, std::span<cf32> out,
                 bool inverse);

  std::size_t size_;
  std::vector<cf32> twiddles_;      // forward twiddles, per-stage contiguous
  std::vector<cf32> inv_twiddles_;  // conjugates, same layout
  std::vector<cf32> scratch_;       // the Stockham ping-pong buffer
};

/// True when `n` is a power of two (and nonzero).
constexpr bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

}  // namespace nrs
