// Constellation mapping / soft demapping for the NR modulation schemes
// (3GPP TS 38.211 5.1).  The demapper produces max-log LLRs, which feed the
// polar and Viterbi decoders; decode failures under noise are what produce
// the DCI miss rates the paper evaluates (Figs. 7 and 13).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bit_io.h"
#include "common/types.h"

namespace nrs {

enum class Modulation : std::uint8_t {
  kBpsk = 1,    // 1 bit/symbol
  kQpsk = 2,    // 2 bits/symbol
  kQam16 = 4,   // 4 bits/symbol
  kQam64 = 6,   // 6 bits/symbol
  kQam256 = 8,  // 8 bits/symbol
};

/// Bits per symbol (the 3GPP "Qm").
constexpr unsigned bits_per_symbol(Modulation m) {
  return static_cast<unsigned>(m);
}

const char* to_string(Modulation m);

/// Map bits to unit-average-power constellation symbols.  `bits.size()`
/// must be a multiple of bits_per_symbol(m).  Every scheme maps through a
/// per-scheme table of its 2^Qm constellation points.
std::vector<cf32> modulate(std::span<const std::uint8_t> bits, Modulation m);

/// Allocation-free variant: `out.size()` must be bits.size() / Qm.
void modulate(std::span<const std::uint8_t> bits, Modulation m,
              std::span<cf32> out);

/// Same mapping from bits packed in words: bit k of `words[w]` is stream
/// bit 32w + k, and out[i] takes stream bits [first_bit + i*Qm,
/// first_bit + (i+1)*Qm) through a 64-bit window, so `words` must hold
/// one spare word past the word with the last of those bits.
void modulate_words(std::span<const std::uint32_t> words,
                    std::size_t first_bit, Modulation m, std::span<cf32> out);

/// Soft demap: per transmitted bit, an LLR with positive = bit 0 (matching
/// the convention of the decoders in this repo).  `noise_var` is the
/// post-equalization noise variance estimate.
std::vector<float> demodulate_llr(std::span<const cf32> symbols, Modulation m,
                                  float noise_var);

/// Soft demap a single resource element with its own noise variance
/// (post-equalization noise differs per RE under frequency-selective
/// fading).  Writes bits_per_symbol(m) LLRs to `out`.
void demodulate_llr_re(cf32 symbol, Modulation m, float noise_var,
                       float* out);

/// Hard decision from LLRs.
BitVector hard_decide(std::span<const float> llrs);

}  // namespace nrs
