#include "phy/modulation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"

namespace nrs {
namespace {

BitVector random_bits(Rng& rng, std::size_t n) {
  BitVector bits(n);
  for (auto& b : bits) {
    b = rng.chance(0.5) ? 1 : 0;
  }
  return bits;
}

class ModulationTest : public ::testing::TestWithParam<Modulation> {};

TEST_P(ModulationTest, UnitAveragePower) {
  const Modulation m = GetParam();
  Rng rng(7);
  const BitVector bits = random_bits(rng, 1200 * bits_per_symbol(m));
  const auto symbols = modulate(bits, m);
  double power = 0.0;
  for (const auto& s : symbols) {
    power += std::norm(s);
  }
  power /= static_cast<double>(symbols.size());
  EXPECT_NEAR(power, 1.0, 0.05);
}

TEST_P(ModulationTest, NoiselessDemapRecoversBits) {
  const Modulation m = GetParam();
  Rng rng(8);
  const BitVector bits = random_bits(rng, 240 * bits_per_symbol(m));
  const auto symbols = modulate(bits, m);
  const auto llrs = demodulate_llr(symbols, m, 1e-3f);
  EXPECT_EQ(hard_decide(llrs), bits);
}

TEST_P(ModulationTest, PerReDemapMatchesBulk) {
  const Modulation m = GetParam();
  Rng rng(9);
  const unsigned qm = bits_per_symbol(m);
  const BitVector bits = random_bits(rng, 16 * qm);
  const auto symbols = modulate(bits, m);
  const auto bulk = demodulate_llr(symbols, m, 0.01f);
  float re[8];
  for (std::size_t s = 0; s < symbols.size(); ++s) {
    demodulate_llr_re(symbols[s], m, 0.01f, re);
    for (unsigned k = 0; k < qm; ++k) {
      EXPECT_FLOAT_EQ(re[k], bulk[s * qm + k]);
    }
  }
}

TEST_P(ModulationTest, DemapSurvivesModerateNoise) {
  const Modulation m = GetParam();
  Rng rng(10);
  const BitVector bits = random_bits(rng, 600 * bits_per_symbol(m));
  auto symbols = modulate(bits, m);
  // SNR of 30 dB: even 256QAM should demap nearly error-free.
  const float nv = 1e-3f;
  const float s = std::sqrt(nv / 2.0f);
  for (auto& sym : symbols) {
    sym += cf32(static_cast<float>(rng.gaussian(0, s)),
                static_cast<float>(rng.gaussian(0, s)));
  }
  const auto decided = hard_decide(demodulate_llr(symbols, m, nv));
  std::size_t errors = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    errors += decided[i] != bits[i];
  }
  EXPECT_LT(static_cast<double>(errors) / bits.size(), 0.001);
}

TEST_P(ModulationTest, WordMapperMatchesModulate) {
  const Modulation m = GetParam();
  const unsigned qm = bits_per_symbol(m);
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 300));
    const auto first = static_cast<std::size_t>(rng.uniform_int(0, 100));
    const std::size_t end = first + n * qm;
    // Random words, the spare one included, so bits outside
    // [first, end) are garbage the mapper must not read.
    std::vector<std::uint32_t> words((end + 31) / 32 + 1);
    for (auto& w : words) {
      w = static_cast<std::uint32_t>(rng.engine()());
    }
    BitVector bits(n * qm);
    for (std::size_t i = 0; i < bits.size(); ++i) {
      bits[i] = static_cast<std::uint8_t>(
          (words[(first + i) / 32] >> ((first + i) % 32)) & 1u);
    }
    const std::vector<cf32> expected = modulate(bits, m);
    std::vector<cf32> got(n);
    modulate_words(words, first, m, got);
    ASSERT_EQ(std::memcmp(got.data(), expected.data(), n * sizeof(cf32)), 0)
        << "n " << n << " first " << first;
    words.pop_back();
    EXPECT_THROW(modulate_words(words, first, m, got), std::invalid_argument);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ModulationTest,
                         ::testing::Values(Modulation::kBpsk,
                                           Modulation::kQpsk,
                                           Modulation::kQam16,
                                           Modulation::kQam64,
                                           Modulation::kQam256));

TEST(Modulation, QpskConstellationMatchesSpec) {
  // TS 38.211 5.1.3: d = 1/sqrt(2) [(1-2b0) + j(1-2b1)].
  const BitVector bits = {0, 0, 0, 1, 1, 0, 1, 1};
  const auto symbols = modulate(bits, Modulation::kQpsk);
  const float a = 1.0f / std::sqrt(2.0f);
  ASSERT_EQ(symbols.size(), 4u);
  EXPECT_NEAR(symbols[0].real(), a, 1e-6);
  EXPECT_NEAR(symbols[0].imag(), a, 1e-6);
  EXPECT_NEAR(symbols[1].real(), a, 1e-6);
  EXPECT_NEAR(symbols[1].imag(), -a, 1e-6);
  EXPECT_NEAR(symbols[2].real(), -a, 1e-6);
  EXPECT_NEAR(symbols[2].imag(), a, 1e-6);
  EXPECT_NEAR(symbols[3].real(), -a, 1e-6);
  EXPECT_NEAR(symbols[3].imag(), -a, 1e-6);
}

TEST(Modulation, Qam16AmplitudesMatchSpec) {
  // I = (1-2b0)(2-(1-2b2)) / sqrt(10): b0=0,b2=0 -> 1a; b0=0,b2=1 -> 3a.
  const float a = 1.0f / std::sqrt(10.0f);
  const BitVector inner = {0, 0, 0, 0};
  const BitVector outer = {0, 0, 1, 1};
  EXPECT_NEAR(modulate(inner, Modulation::kQam16)[0].real(), a, 1e-6);
  EXPECT_NEAR(modulate(outer, Modulation::kQam16)[0].real(), 3 * a, 1e-6);
}

TEST(Modulation, BitCountMismatchThrows) {
  const BitVector bits(5, 0);
  EXPECT_THROW(modulate(bits, Modulation::kQpsk), std::invalid_argument);
}

TEST(Modulation, LlrSignConvention) {
  // Positive LLR = bit 0 throughout the codebase.
  const BitVector zero = {0, 0};
  const BitVector one = {1, 1};
  const auto s0 = modulate(zero, Modulation::kQpsk);
  const auto s1 = modulate(one, Modulation::kQpsk);
  const auto l0 = demodulate_llr(s0, Modulation::kQpsk, 0.1f);
  const auto l1 = demodulate_llr(s1, Modulation::kQpsk, 0.1f);
  EXPECT_GT(l0[0], 0.0f);
  EXPECT_GT(l0[1], 0.0f);
  EXPECT_LT(l1[0], 0.0f);
  EXPECT_LT(l1[1], 0.0f);
}

}  // namespace
}  // namespace nrs
