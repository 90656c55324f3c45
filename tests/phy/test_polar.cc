#include "phy/polar.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/crc.h"
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

/// BPSK-map coded bits to LLRs with AWGN at the given Es/N0.
std::vector<float> to_noisy_llrs(const BitVector& coded, double snr_db,
                                 Rng& rng) {
  const double snr = std::pow(10.0, snr_db / 10.0);
  const double sigma = std::sqrt(1.0 / (2.0 * snr));
  std::vector<float> llrs(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    const double tx = coded[i] ? -1.0 : 1.0;
    const double rx = tx + rng.gaussian(0.0, sigma);
    llrs[i] = static_cast<float>(4.0 * snr * rx / 2.0);
  }
  return llrs;
}

TEST(Polar, ReliabilityOrderIsPermutation) {
  for (unsigned n : {32u, 128u, 512u}) {
    const auto order = PolarCode::reliability_order(n);
    ASSERT_EQ(order.size(), n);
    std::vector<bool> seen(n, false);
    for (unsigned idx : order) {
      ASSERT_LT(idx, n);
      EXPECT_FALSE(seen[idx]);
      seen[idx] = true;
    }
  }
}

TEST(Polar, ReliabilityExtremes) {
  // Input 0 is always the least reliable; input N-1 the most reliable.
  const auto order = PolarCode::reliability_order(256);
  EXPECT_EQ(order.front(), 0u);
  EXPECT_EQ(order.back(), 255u);
}

TEST(Polar, RejectsInvalidDimensions) {
  EXPECT_THROW(PolarCode(0, 100), std::invalid_argument);
  EXPECT_THROW(PolarCode(10, 0), std::invalid_argument);
  EXPECT_THROW(PolarCode(120, 108), std::invalid_argument);  // K > capacity
}

struct PolarDims {
  unsigned k;
  unsigned e;
};

class PolarRoundTrip : public ::testing::TestWithParam<PolarDims> {};

TEST_P(PolarRoundTrip, NoiselessDecodeIsExact) {
  const auto [k, e] = GetParam();
  const PolarCode code(k, e);
  Rng rng(k * 31 + e);
  for (int trial = 0; trial < 20; ++trial) {
    const BitVector info = random_bits(rng, k);
    const BitVector coded = code.encode(info);
    ASSERT_EQ(coded.size(), e);
    std::vector<float> llrs(e);
    for (unsigned i = 0; i < e; ++i) {
      llrs[i] = coded[i] ? -10.0f : 10.0f;
    }
    EXPECT_EQ(code.decode(llrs), info);
  }
}

TEST_P(PolarRoundTrip, HighSnrDecodeSucceeds) {
  const auto [k, e] = GetParam();
  const PolarCode code(k, e);
  Rng rng(k * 77 + e);
  int failures = 0;
  constexpr int kTrials = 50;
  for (int trial = 0; trial < kTrials; ++trial) {
    const BitVector info = random_bits(rng, k);
    const BitVector coded = code.encode(info);
    const auto llrs = to_noisy_llrs(coded, 8.0, rng);
    failures += code.decode(llrs) != info;
  }
  EXPECT_LE(failures, 1) << "K=" << k << " E=" << e;
}

// The PDCCH aggregation levels: E = L * 108, K = DCI payload + CRC24.
INSTANTIATE_TEST_SUITE_P(
    PdcchDims, PolarRoundTrip,
    ::testing::Values(PolarDims{52, 108}, PolarDims{64, 216},
                      PolarDims{64, 432}, PolarDims{64, 864},
                      PolarDims{80, 1728}, PolarDims{64, 432 + 24}));

TEST(Polar, LowSnrFailsButCrcCatchesIt) {
  // At very low SNR the SC decode produces wrong bits; an attached CRC
  // must detect (nearly) all of them — this is the sniffer's "DCI miss".
  constexpr unsigned kPayload = 40;
  const PolarCode code(kPayload + 24, 216);
  Rng rng(99);
  int undetected = 0;
  int wrong = 0;
  constexpr int kTrials = 200;
  for (int trial = 0; trial < kTrials; ++trial) {
    BitVector info = random_bits(rng, kPayload);
    kCrc24C.attach(info);
    const BitVector coded = code.encode(info);
    const auto llrs = to_noisy_llrs(coded, -6.0, rng);
    const BitVector decoded = code.decode(llrs);
    if (decoded != info) {
      ++wrong;
      if (kCrc24C.check(decoded)) {
        ++undetected;
      }
    }
  }
  EXPECT_GT(wrong, kTrials / 2) << "-6 dB should break SC decoding";
  EXPECT_LE(undetected, 2) << "CRC24 should catch almost every failure";
}

TEST(Polar, BlerImprovesWithSnr) {
  constexpr unsigned kPayload = 40;
  const PolarCode code(kPayload + 24, 216);
  auto bler_at = [&](double snr_db) {
    Rng rng(static_cast<std::uint64_t>(snr_db * 10) + 1234);
    int errors = 0;
    constexpr int kTrials = 100;
    for (int t = 0; t < kTrials; ++t) {
      const BitVector info = random_bits(rng, kPayload + 24);
      const BitVector coded = code.encode(info);
      errors += code.decode(to_noisy_llrs(coded, snr_db, rng)) != info;
    }
    return static_cast<double>(errors) / kTrials;
  };
  const double low = bler_at(-4.0);
  const double high = bler_at(4.0);
  EXPECT_GT(low, high);
  EXPECT_LT(high, 0.05);
}

TEST(Polar, WrongLlrLengthThrows) {
  const PolarCode code(52, 108);
  std::vector<float> llrs(64, 1.0f);
  EXPECT_THROW(code.decode(llrs), std::invalid_argument);
}

TEST(Polar, WrongInfoLengthThrows) {
  const PolarCode code(52, 108);
  const BitVector info(40, 0);
  EXPECT_THROW(code.encode(info), std::invalid_argument);
}

TEST(Polar, RepetitionGainIsReal) {
  // E = 4N repetition should decode at lower SNR than E = N.
  auto bler = [&](unsigned e, double snr_db) {
    const PolarCode code(60, e);
    Rng rng(e + 5);
    int errors = 0;
    for (int t = 0; t < 60; ++t) {
      const BitVector info = random_bits(rng, 60);
      const BitVector coded = code.encode(info);
      errors += code.decode(to_noisy_llrs(coded, snr_db, rng)) != info;
    }
    return static_cast<double>(errors) / 60.0;
  };
  EXPECT_LT(bler(1024, -2.0), bler(256, -2.0) + 0.01);
}

TEST(Polar, SpanOutDecodeMatchesAllocatingDecode) {
  // A scratch reused across codes and trials must decode bit-identically
  // to the fresh scratch the returning overload builds per call, at clean
  // and noisy SNR alike (including decodes that come out wrong — both
  // paths must be wrong the same way).
  Rng rng(77);
  PolarScratch scratch;
  for (const auto& [k, e] : {std::pair<unsigned, unsigned>{12, 48},
                             {39, 108},
                             {60, 216},
                             {41, 300}}) {
    const PolarCode code(k, e);
    for (int trial = 0; trial < 20; ++trial) {
      const BitVector info = random_bits(rng, k);
      const BitVector coded = code.encode(info);
      const double snr_db = (trial % 2 != 0) ? 1.0 : 8.0;
      const auto llrs = to_noisy_llrs(coded, snr_db, rng);
      const BitVector expected = code.decode(llrs);
      BitVector out(k);
      code.decode(llrs, scratch, out);
      EXPECT_EQ(out, expected) << "k=" << k << " e=" << e << " t=" << trial;
    }
  }
}

TEST(Polar, SpanOutDecodeScratchSurvivesSizeChanges) {
  // One scratch serves interleaved mother-code sizes (the engine's
  // PdcchScratch hops between aggregation levels exactly like this).
  Rng rng(31);
  PolarScratch scratch;
  const PolarCode small(20, 56);
  const PolarCode large(64, 432);
  for (int trial = 0; trial < 10; ++trial) {
    for (const PolarCode* code : {&small, &large, &small}) {
      const BitVector info = random_bits(rng, code->k());
      const BitVector coded = code->encode(info);
      std::vector<float> llrs(coded.size());
      for (std::size_t i = 0; i < coded.size(); ++i) {
        llrs[i] = coded[i] ? -10.0f : 10.0f;
      }
      BitVector out(code->k());
      code->decode(llrs, scratch, out);
      EXPECT_EQ(out, info);
    }
  }
}

TEST(Polar, SpanOutDecodeWrongOutputLengthThrows) {
  const PolarCode code(52, 108);
  PolarScratch scratch;
  std::vector<float> llrs(108, 1.0f);
  BitVector out(51);
  EXPECT_THROW(code.decode(llrs, scratch, out), std::invalid_argument);
}

}  // namespace
}  // namespace nrs
