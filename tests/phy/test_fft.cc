#include "phy/fft.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "phy/kernels/kernels.h"

namespace nrs {
namespace {

TEST(Fft, RejectsNonPowerOfTwo) {
  EXPECT_THROW(Fft(100), std::invalid_argument);
  EXPECT_THROW(Fft(0), std::invalid_argument);
}

TEST(Fft, ImpulseTransformsToFlat) {
  Fft fft(64);
  std::vector<cf32> data(64, cf32{});
  data[0] = cf32(1.0f, 0.0f);
  std::vector<cf32> spectrum(64);
  fft.forward(data, spectrum);
  for (const auto& v : spectrum) {
    EXPECT_NEAR(v.real(), 1.0f, 1e-5f);
    EXPECT_NEAR(v.imag(), 0.0f, 1e-5f);
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  constexpr std::size_t kN = 128;
  constexpr std::size_t kBin = 5;
  Fft fft(kN);
  std::vector<cf32> data(kN);
  for (std::size_t n = 0; n < kN; ++n) {
    const double angle = 2.0 * std::numbers::pi * kBin * n / kN;
    data[n] = cf32(static_cast<float>(std::cos(angle)),
                   static_cast<float>(std::sin(angle)));
  }
  std::vector<cf32> spectrum(kN);
  fft.forward(data, spectrum);
  for (std::size_t k = 0; k < kN; ++k) {
    if (k == kBin) {
      EXPECT_NEAR(std::abs(spectrum[k]), static_cast<float>(kN), 1e-2f);
    } else {
      EXPECT_NEAR(std::abs(spectrum[k]), 0.0f, 1e-2f);
    }
  }
}

TEST(Fft, BufferSizeMismatchThrows) {
  Fft fft(64);
  std::vector<cf32> small(32);
  std::vector<cf32> full(64);
  EXPECT_THROW(fft.forward(small, full), std::invalid_argument);
  EXPECT_THROW(fft.inverse(full, small), std::invalid_argument);
}

TEST(Fft, OverlappingBuffersThrow) {
  Fft fft(64);
  std::vector<cf32> data(96);
  const std::span<cf32> all(data);
  EXPECT_THROW(fft.forward(all.first(64), all.first(64)),
               std::invalid_argument);
  EXPECT_THROW(fft.inverse(all.first(64), all.last(64)),
               std::invalid_argument);
}

// --- bit identity with the bit-reversal transform ---------------------

/// The transform Fft ran before the Stockham kernels: a bit-reversal
/// permutation, then in-place radix-2 DIT stages over the same
/// double-precision twiddles, then a separate 1/N pass for the inverse.
/// The butterfly spells out mul_cplx's operand order; this file is built
/// with -ffp-contract=off, like the kernels.
std::vector<cf32> reference_fft(std::vector<cf32> data, bool inverse) {
  const std::size_t n = data.size();
  std::size_t bits = 0;
  while ((std::size_t{1} << bits) < n) {
    ++bits;
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t rev = 0;
    for (std::size_t b = 0; b < bits; ++b) {
      rev |= ((i >> b) & 1) << (bits - 1 - b);
    }
    if (i < rev) {
      std::swap(data[i], data[rev]);
    }
  }
  for (std::size_t half = 1; half < n; half <<= 1) {
    const std::size_t stride = n / (2 * half);
    for (std::size_t start = 0; start < n; start += 2 * half) {
      for (std::size_t k = 0; k < half; ++k) {
        const double angle = -2.0 * std::numbers::pi *
                             static_cast<double>(k * stride) /
                             static_cast<double>(n);
        cf32 w(static_cast<float>(std::cos(angle)),
               static_cast<float>(std::sin(angle)));
        if (inverse) {
          w = std::conj(w);
        }
        const cf32 odd = data[start + k + half];
        const cf32 p(odd.real() * w.real() - odd.imag() * w.imag(),
                     odd.imag() * w.real() + odd.real() * w.imag());
        const cf32 even = data[start + k];
        data[start + k] = even + p;
        data[start + k + half] = even - p;
      }
    }
  }
  if (inverse) {
    const float s = 1.0f / static_cast<float>(n);
    for (auto& v : data) {
      v = cf32(v.real() * s, v.imag() * s);
    }
  }
  return data;
}

/// Gaussian points; OFDM-like spectra (every bin of a band exactly zero,
/// the rest QPSK); Gaussian points with planted +0 and -0 components; and
/// signed zeros only.
std::vector<std::vector<cf32>> fft_inputs(std::size_t n, Rng& rng) {
  std::vector<std::vector<cf32>> inputs;
  std::vector<cf32> gaussian(n);
  for (auto& v : gaussian) {
    v = cf32(static_cast<float>(rng.gaussian()),
             static_cast<float>(rng.gaussian()));
  }
  inputs.push_back(gaussian);

  // The OFDM modulator's layout: the occupied 60 % of the bins in two
  // runs at the ends, the guard band between them.
  const auto qpsk = [&rng] {
    const float a = 0.70710678f;
    return cf32(rng.chance(0.5) ? a : -a, rng.chance(0.5) ? a : -a);
  };
  const auto signed_zero = [&rng] { return rng.chance(0.5) ? 0.0f : -0.0f; };
  std::vector<cf32> ofdm(n);
  const std::size_t occupied = (n * 3) / 5;
  for (std::size_t i = 0; i < occupied; ++i) {
    ofdm[i < occupied / 2 ? n - occupied / 2 + i : i - occupied / 2] = qpsk();
  }
  inputs.push_back(ofdm);

  // Zeros of random sign: each component with probability 0.4, then
  // every component.  A butterfly whose operands are zeros is where a
  // skipped multiply by W^0 = (1, -0) would flip the sign of a zero, and
  // only an all-zero sub-transform carries that sign to the output.
  for (const double p : {0.4, 1.0}) {
    std::vector<cf32> zeros = gaussian;
    for (auto& v : zeros) {
      v = cf32(rng.chance(p) ? signed_zero() : v.real(),
               rng.chance(p) ? signed_zero() : v.imag());
    }
    inputs.push_back(zeros);
  }
  return inputs;
}

bool same_bits(const std::vector<cf32>& a, const std::vector<cf32>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cf32)) == 0;
}

// Every power of two Fft accepts, from 1 to 4096, forward and inverse,
// under every available kernel table.
TEST(Fft, MatchesBitReversalTransformBitwise) {
  const kernels::Isa dispatch = kernels::active().isa;
  for (const kernels::Isa isa :
       {kernels::Isa::kScalar, kernels::Isa::kAvx2, kernels::Isa::kNeon}) {
    if (!kernels::select(isa)) {
      continue;
    }
    for (std::size_t n = 1; n <= 4096; n *= 2) {
      Fft fft(n);
      Rng rng(n);
      for (const auto& input : fft_inputs(n, rng)) {
        for (const bool inverse : {false, true}) {
          std::vector<cf32> out(n);
          if (inverse) {
            fft.inverse(input, out);
          } else {
            fft.forward(input, out);
          }
          EXPECT_TRUE(same_bits(out, reference_fft(input, inverse)))
              << kernels::to_string(isa) << " n=" << n
              << (inverse ? " inverse" : " forward");
        }
      }
    }
  }
  kernels::select(dispatch);
}

class FftRoundTripTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTripTest, ForwardInverseIsIdentity) {
  const std::size_t n = GetParam();
  Fft fft(n);
  Rng rng(n);
  std::vector<cf32> data(n);
  for (auto& v : data) {
    v = cf32(static_cast<float>(rng.gaussian()),
             static_cast<float>(rng.gaussian()));
  }
  std::vector<cf32> spectrum(n);
  std::vector<cf32> back(n);
  fft.forward(data, spectrum);
  fft.inverse(spectrum, back);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(back[i].real(), data[i].real(), 1e-3f);
    EXPECT_NEAR(back[i].imag(), data[i].imag(), 1e-3f);
  }
}

TEST_P(FftRoundTripTest, ParsevalEnergyConserved) {
  const std::size_t n = GetParam();
  Fft fft(n);
  Rng rng(n + 1);
  std::vector<cf32> data(n);
  double time_energy = 0.0;
  for (auto& v : data) {
    v = cf32(static_cast<float>(rng.gaussian()),
             static_cast<float>(rng.gaussian()));
    time_energy += std::norm(v);
  }
  std::vector<cf32> spectrum(n);
  fft.forward(data, spectrum);
  double freq_energy = 0.0;
  for (const auto& v : spectrum) {
    freq_energy += std::norm(v);
  }
  EXPECT_NEAR(freq_energy / static_cast<double>(n) / time_energy, 1.0, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTripTest,
                         ::testing::Values(16, 64, 256, 512, 1024, 2048));

}  // namespace
}  // namespace nrs
