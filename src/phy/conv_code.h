// Rate-1/2, constraint-length-7 convolutional code with soft-decision
// Viterbi decoding.
//
// Substitution note (see DESIGN.md): real NR PDSCH uses LDPC (TS 38.212
// 5.3.2); this repo carries PDSCH transport blocks over a convolutional
// code instead.  NR-Scope's telemetry logic never inspects the FEC — it
// needs a data channel whose decoding succeeds or fails realistically with
// SNR (for SIB1 / RRC-Setup reception and the MSG4-decode ablation), which
// this code provides at a fraction of the implementation weight.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bit_io.h"

namespace nrs {

/// Reusable Viterbi workspace (hot-path memory discipline, DESIGN.md):
/// path metrics plus the survivor matrix grow once to the largest
/// transport block seen and are then reused allocation-free.  One decode
/// runs per scheduled PDSCH, so a scratch belongs to one thread at a time.
struct ConvDecodeScratch {
  std::vector<float> metric;
  std::vector<float> next;
  std::vector<std::int32_t> survivors;  ///< steps x 64, flat
};

class ConvolutionalCode {
 public:
  /// Industry-standard K=7 polynomials (171, 133 octal).
  static constexpr unsigned kConstraintLength = 7;
  static constexpr unsigned kNumStates = 1u << (kConstraintLength - 1);
  static constexpr std::uint8_t kPolyA = 0x79;  // 171 octal
  static constexpr std::uint8_t kPolyB = 0x5B;  // 133 octal

  /// Encode with 6 zero tail bits; output size = 2 * (bits + 6).
  [[nodiscard]] static BitVector encode(std::span<const std::uint8_t> bits);

  /// Allocation-free variant: `out.size()` must be coded_size(bits.size()).
  static void encode(std::span<const std::uint8_t> bits,
                     std::span<std::uint8_t> out);

  /// Number of coded bits produced for `payload_bits` input bits.
  [[nodiscard]] static std::size_t coded_size(std::size_t payload_bits) {
    return 2 * (payload_bits + kConstraintLength - 1);
  }

  /// Soft Viterbi decode of `llrs` (positive = bit 0) back to
  /// `payload_bits` bits.  The terminated trellis starts and ends in the
  /// zero state.  Builds a fresh workspace on every call.
  [[nodiscard]] static BitVector decode(std::span<const float> llrs,
                                        std::size_t payload_bits);

  /// Allocation-free variant: identical bits to the overload above,
  /// written into `out` (size exactly `payload_bits`) using the caller's
  /// workspace.  The add-compare-select inner loop dispatches through the
  /// SIMD kernel layer.
  static void decode(std::span<const float> llrs, std::size_t payload_bits,
                     ConvDecodeScratch& scratch,
                     std::span<std::uint8_t> out);
};

/// Rate matching for the simulated shared channel: repeat or puncture the
/// coded bits uniformly to exactly `e` bits, and the inverse (LLR
/// combining) on receive.  This emulates LDPC rate matching's role of
/// fitting one transport block to the scheduled resource allocation.
BitVector rate_match(std::span<const std::uint8_t> coded, std::size_t e);
/// Allocation-free variant: fills all of `out` (E = out.size()).
void rate_match(std::span<const std::uint8_t> coded,
                std::span<std::uint8_t> out);
std::vector<float> rate_dematch(std::span<const float> llrs,
                                std::size_t coded_size);

}  // namespace nrs
