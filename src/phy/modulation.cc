#include "phy/modulation.h"

#include <array>
#include <cmath>
#include <stdexcept>

#include "phy/kernels/kernels.h"

namespace nrs {
namespace {

// Per-axis amplitude scale for unit average power (TS 38.211 5.1.3-5.1.6).
float axis_scale(Modulation m) {
  switch (m) {
    case Modulation::kBpsk:
    case Modulation::kQpsk:
      return 1.0f / std::sqrt(2.0f);
    case Modulation::kQam16:
      return 1.0f / std::sqrt(10.0f);
    case Modulation::kQam64:
      return 1.0f / std::sqrt(42.0f);
    case Modulation::kQam256:
      return 1.0f / std::sqrt(170.0f);
  }
  throw std::invalid_argument("unknown modulation");
}

// Gray-mapped PAM amplitude from the per-axis bits, following the nested
// 3GPP formulas, e.g. 64QAM I = (1-2b0)(4-(1-2b2)(2-(1-2b4))).
float pam_amplitude(std::span<const std::uint8_t> axis_bits) {
  // axis_bits[0] is the sign bit; the rest refine the magnitude.
  float magnitude = 1.0f;
  for (std::size_t k = axis_bits.size(); k-- > 1;) {
    const float s = axis_bits[k] ? -1.0f : 1.0f;
    const float level = static_cast<float>(1u << (axis_bits.size() - k));
    magnitude = level - s * magnitude;
  }
  const float sign = axis_bits[0] ? -1.0f : 1.0f;
  return sign * magnitude;
}

/// One constellation indexed by its Qm bits in stream order: bit k of the
/// index is b_k, the k-th bit the symbol carries.  BPSK puts b0 on both
/// axes.  From QPSK up, even bits drive the I axis and odd bits the Q
/// axis; each point is a * pam_amplitude(axis bits).
struct Constellation {
  std::array<cf32, 256> points{};
};

Constellation build_constellation(Modulation m) {
  const unsigned qm = bits_per_symbol(m);
  const unsigned per_axis = qm / 2;
  const float a = axis_scale(m);
  Constellation c;
  if (m == Modulation::kBpsk) {
    c.points[0] = cf32(a, a);
    c.points[1] = cf32(-a, -a);
    return c;
  }
  std::array<std::uint8_t, 4> ibits{};
  std::array<std::uint8_t, 4> qbits{};
  for (unsigned index = 0; index < (1u << qm); ++index) {
    for (unsigned k = 0; k < per_axis; ++k) {
      ibits[k] = static_cast<std::uint8_t>((index >> (2 * k)) & 1u);
      qbits[k] = static_cast<std::uint8_t>((index >> (2 * k + 1)) & 1u);
    }
    c.points[index] = cf32(a * pam_amplitude({ibits.data(), per_axis}),
                           a * pam_amplitude({qbits.data(), per_axis}));
  }
  return c;
}

std::span<const cf32> constellation(Modulation m) {
  static const std::array<Constellation, 5> kTables = {
      build_constellation(Modulation::kBpsk),
      build_constellation(Modulation::kQpsk),
      build_constellation(Modulation::kQam16),
      build_constellation(Modulation::kQam64),
      build_constellation(Modulation::kQam256)};
  const unsigned qm = bits_per_symbol(m);
  return {kTables[qm / 2].points.data(), std::size_t{1} << qm};
}

}  // namespace

const char* to_string(Modulation m) {
  switch (m) {
    case Modulation::kBpsk:
      return "BPSK";
    case Modulation::kQpsk:
      return "QPSK";
    case Modulation::kQam16:
      return "16QAM";
    case Modulation::kQam64:
      return "64QAM";
    case Modulation::kQam256:
      return "256QAM";
  }
  return "?";
}

void modulate(std::span<const std::uint8_t> bits, Modulation m,
              std::span<cf32> out) {
  const unsigned qm = bits_per_symbol(m);
  if (bits.size() % qm != 0 || out.size() != bits.size() / qm) {
    throw std::invalid_argument("modulate: bits not a multiple of Qm");
  }
  const std::span<const cf32> table = constellation(m);
  const std::uint8_t* b = bits.data();
  for (auto& symbol : out) {
    unsigned index = 0;
    for (unsigned k = 0; k < qm; ++k) {
      index |= (b[k] != 0 ? 1u : 0u) << k;
    }
    symbol = table[index];
    b += qm;
  }
}

void modulate_words(std::span<const std::uint32_t> words,
                    std::size_t first_bit, Modulation m,
                    std::span<cf32> out) {
  const unsigned qm = bits_per_symbol(m);
  const std::size_t end = first_bit + out.size() * qm;
  if (!out.empty() && words.size() < (end + 31) / 32 + 1) {
    throw std::invalid_argument("modulate_words: no spare word past the end");
  }
  const std::span<const cf32> table = constellation(m);
  const std::uint32_t mask = (1u << qm) - 1;
  std::size_t bit = first_bit;
  for (auto& symbol : out) {
    const std::uint32_t* w = words.data() + bit / 32;
    const std::uint64_t window = w[0] | std::uint64_t{w[1]} << 32;
    symbol = table[(window >> (bit % 32)) & mask];
    bit += qm;
  }
}

std::vector<cf32> modulate(std::span<const std::uint8_t> bits, Modulation m) {
  const unsigned qm = bits_per_symbol(m);
  if (bits.size() % qm != 0) {
    throw std::invalid_argument("modulate: bits not a multiple of Qm");
  }
  std::vector<cf32> symbols(bits.size() / qm);
  modulate(bits, m, symbols);
  return symbols;
}

std::vector<float> demodulate_llr(std::span<const cf32> symbols, Modulation m,
                                  float noise_var) {
  const unsigned qm = bits_per_symbol(m);
  const float a = axis_scale(m);
  const float nv = std::max(noise_var, 1e-9f);
  const float scale = 4.0f * a / nv;
  std::vector<float> llrs(symbols.size() * qm);

  if (m == Modulation::kBpsk) {
    for (std::size_t i = 0; i < symbols.size(); ++i) {
      llrs[i] = scale * (symbols[i].real() + symbols[i].imag()) * 0.5f;
    }
    return llrs;
  }

  // Max-log LLR recursion for Gray-mapped PAM (positive LLR = bit 0),
  // vectorized across symbols by the kernel layer.
  const unsigned per_axis = qm / 2;
  kernels::active().qam_llr(symbols.data(), symbols.size(), per_axis, a,
                            scale, llrs.data());
  return llrs;
}

void demodulate_llr_re(cf32 symbol, Modulation m, float noise_var,
                       float* out) {
  const unsigned qm = bits_per_symbol(m);
  const float a = axis_scale(m);
  const float nv = std::max(noise_var, 1e-9f);
  const float scale = 4.0f * a / nv;
  if (m == Modulation::kBpsk) {
    out[0] = scale * (symbol.real() + symbol.imag()) * 0.5f;
    return;
  }
  const unsigned per_axis = qm / 2;
  for (unsigned axis = 0; axis < 2; ++axis) {
    float metric = axis == 0 ? symbol.real() : symbol.imag();
    for (unsigned k = 0; k < per_axis; ++k) {
      out[2 * k + axis] = scale * metric;
      const float level = a * static_cast<float>(1u << (per_axis - 1 - k));
      metric = level - std::abs(metric);
    }
  }
}

BitVector hard_decide(std::span<const float> llrs) {
  BitVector bits(llrs.size());
  for (std::size_t i = 0; i < llrs.size(); ++i) {
    bits[i] = llrs[i] < 0.0f ? 1 : 0;
  }
  return bits;
}

}  // namespace nrs
