#include "phy/polar.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/crc.h"
#include "common/rng.h"
#include "phy/kernels/kernels.h"
#include "phy/kernels/kernels_detail.h"

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

// ---- Lane decoder vs the per-codeword recursive SC ---------------------

/// The per-codeword recursive SC decoder the lane decoder replaced, kept
/// as the reference it must match bit for bit: the same information set,
/// dematching, rate-0 pruning and node arithmetic (kernel table above
/// eight values per node, the shared per-element helpers below), one
/// codeword per call and no rate-1 shortcut.
class ReferenceSc {
 public:
  ReferenceSc(unsigned k, unsigned e) : k_(k), e_(e) {
    while (n_ < e_ && n_ < PolarCode::kMaxN) {
      n_ <<= 1;
    }
    const unsigned shortened = e_ < n_ ? n_ - e_ : 0;
    const auto order = PolarCode::reliability_order(n_);
    for (auto it = order.rbegin(); it != order.rend() && info_set_.size() < k_;
         ++it) {
      if (*it < n_ - shortened) {
        info_set_.push_back(*it);
      }
    }
    std::sort(info_set_.begin(), info_set_.end());
    is_info_.assign(n_, 0);
    for (unsigned idx : info_set_) {
      is_info_[idx] = 1;
    }
    info_prefix_.assign(n_ + 1, 0);
    for (unsigned i = 0; i < n_; ++i) {
      info_prefix_[i + 1] = info_prefix_[i] + is_info_[i];
    }
    for (std::size_t len = n_, off = 0; len >= 1; len >>= 1) {
      offset_.push_back(off);
      off += len;
    }
  }

  BitVector decode(std::span<const float> llrs) {
    llr_.assign(2 * n_, 0.0f);
    x_.assign(2 * n_, 0);
    u_.assign(n_, 0);
    if (e_ >= n_) {
      for (unsigned i = 0; i < e_; ++i) {
        llr_[i % n_] += llrs[i];
      }
    } else {
      std::copy(llrs.begin(), llrs.end(), llr_.begin());
      std::fill(llr_.begin() + e_, llr_.begin() + n_, 1e9f);
    }
    sc(n_, 0, 0);
    BitVector info(k_);
    for (unsigned i = 0; i < k_; ++i) {
      info[i] = u_[info_set_[i]];
    }
    return info;
  }

 private:
  void sc(std::size_t n, std::size_t level, std::size_t base) {
    const auto& kt = kernels::active();
    float* llr = llr_.data() + offset_[level];
    std::uint8_t* x = x_.data() + offset_[level];
    if (info_prefix_[base + n] == info_prefix_[base]) {
      std::fill(x, x + n, std::uint8_t{0});
      return;
    }
    if (n == 1) {
      const std::uint8_t bit =
          is_info_[base] ? static_cast<std::uint8_t>(llr[0] < 0.0f) : 0;
      u_[base] = bit;
      x[0] = bit;
      return;
    }
    const std::size_t half = n / 2;
    float* child_llr = llr_.data() + offset_[level + 1];
    std::uint8_t* child_x = x_.data() + offset_[level + 1];
    if (half >= 8) {
      kt.polar_f(llr, llr + half, child_llr, half);
    } else {
      for (std::size_t i = 0; i < half; ++i) {
        child_llr[i] = kernels::detail::polar_f_one(llr[i], llr[i + half]);
      }
    }
    sc(half, level + 1, base);
    std::copy(child_x, child_x + half, x);
    if (half >= 8) {
      kt.polar_g(llr, llr + half, x, child_llr, half);
    } else {
      for (std::size_t i = 0; i < half; ++i) {
        child_llr[i] =
            kernels::detail::polar_g_one(llr[i], llr[i + half], x[i]);
      }
    }
    sc(half, level + 1, base + half);
    if (half >= 8) {
      kt.polar_combine(x, child_x, half);
    } else {
      for (std::size_t i = 0; i < half; ++i) {
        x[i] = static_cast<std::uint8_t>(x[i] ^ child_x[i]);
        x[i + half] = child_x[i];
      }
    }
  }

  unsigned k_;
  unsigned e_;
  unsigned n_ = 32;
  std::vector<unsigned> info_set_;
  std::vector<std::uint8_t> is_info_;
  std::vector<unsigned> info_prefix_;
  std::vector<std::size_t> offset_;
  std::vector<float> llr_;
  std::vector<std::uint8_t> x_;
  std::vector<std::uint8_t> u_;
};

/// Every (K, E) the engine decodes — DCI 1_1 (K = 67) at aggregation
/// levels 1, 2 and 4, DCI 1_0 (K = 61) at 4 and 8 — plus the PBCH
/// (40-bit MIB + CRC over 4 CCEs) and a repetition-heavy level 16.
const std::vector<PolarDims>& lane_dims() {
  static const std::vector<PolarDims> dims = {
      {67, 108}, {67, 216}, {67, 432}, {61, 432},
      {61, 864}, {64, 432}, {67, 1728}};
  return dims;
}

/// Decode `words` in consecutive batches of every tested lane count and
/// require each lane's bits to equal the reference decode of that word.
void expect_lanes_match_reference(const PolarDims& dims,
                                  const std::vector<std::vector<float>>& words,
                                  const char* what) {
  const PolarCode code(dims.k, dims.e);
  ReferenceSc reference(dims.k, dims.e);
  std::vector<BitVector> expected;
  for (const auto& w : words) {
    expected.push_back(reference.decode(w));
  }
  PolarScratch scratch;
  for (std::size_t lanes :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
        std::size_t{5}, std::size_t{6}, PolarCode::kMaxLanes}) {
    std::vector<BitVector> out(words.size(), BitVector(dims.k));
    for (std::size_t w0 = 0; w0 < words.size(); w0 += lanes) {
      const std::size_t n = std::min(lanes, words.size() - w0);
      std::vector<const float*> in;
      std::vector<std::uint8_t*> bits;
      for (std::size_t l = 0; l < n; ++l) {
        in.push_back(words[w0 + l].data());
        bits.push_back(out[w0 + l].data());
      }
      code.decode_lanes(in, scratch, bits);
    }
    for (std::size_t w = 0; w < words.size(); ++w) {
      ASSERT_EQ(out[w], expected[w])
          << what << ": K=" << dims.k << " E=" << dims.e << " L=" << lanes
          << " word " << w;
    }
  }
}

std::vector<float> clean_llrs(const BitVector& coded) {
  std::vector<float> llrs(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    llrs[i] = coded[i] ? -10.0f : 10.0f;
  }
  return llrs;
}

/// LLRs of a codeword quantized to {±1, ±2} with every 7th flipped: f
/// meets exact magnitude ties and g sums to exact zeros, so ±0 reaches
/// the rate-1 nodes; ±0 and, when asked, ±inf are also planted at random
/// positions (two opposite infinities meeting in a sum give NaN).
std::vector<float> adversarial_llrs(const BitVector& coded, Rng& rng,
                                    bool infinities) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  std::vector<float> llrs(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    float v = rng.chance(0.5) ? 1.0f : 2.0f;
    if ((coded[i] != 0) != (i % 7 == 3)) {
      v = -v;
    }
    if (rng.chance(0.05)) {
      v = rng.chance(0.5) ? 0.0f : -0.0f;
    } else if (infinities && rng.chance(0.02)) {
      v = rng.chance(0.5) ? kInf : -kInf;
    }
    llrs[i] = v;
  }
  return llrs;
}

TEST(PolarLanes, NoiselessBatchesMatchReference) {
  Rng rng(2101);
  for (const PolarDims& dims : lane_dims()) {
    const PolarCode code(dims.k, dims.e);
    std::vector<std::vector<float>> words;
    for (int w = 0; w < 19; ++w) {
      words.push_back(clean_llrs(code.encode(random_bits(rng, dims.k))));
    }
    expect_lanes_match_reference(dims, words, "noiseless");
  }
}

TEST(PolarLanes, AwgnBatchesMatchReference) {
  Rng rng(2102);
  for (const PolarDims& dims : lane_dims()) {
    const PolarCode code(dims.k, dims.e);
    std::vector<std::vector<float>> words;
    for (double snr_db = -2.0; snr_db <= 10.0; snr_db += 1.0) {
      for (int w = 0; w < 3; ++w) {
        words.push_back(
            to_noisy_llrs(code.encode(random_bits(rng, dims.k)), snr_db, rng));
      }
    }
    expect_lanes_match_reference(dims, words, "awgn");
  }
}

TEST(PolarLanes, ZerosInfinitiesAndTiesMatchReference) {
  // Half the words carry infinities too, so a batch that could meet a
  // NaN (and decodes one lane at a time) is covered as well.
  Rng rng(2103);
  for (const PolarDims& dims : lane_dims()) {
    const PolarCode code(dims.k, dims.e);
    std::vector<std::vector<float>> words;
    for (int w = 0; w < 24; ++w) {
      words.push_back(adversarial_llrs(code.encode(random_bits(rng, dims.k)),
                                       rng, /*infinities=*/w % 2 == 0));
    }
    expect_lanes_match_reference(dims, words, "adversarial");
  }
}

TEST(PolarLanes, OneDirtyLaneMatchesReference) {
  // Clean high-SNR lanes with one lane of ±0s and ties among them, at
  // every position of a full batch: the dirty lane sends every lane of a
  // rate-1 node through the recursion, which must not change the clean
  // lanes' bits.
  Rng rng(2104);
  for (const PolarDims& dims : lane_dims()) {
    const PolarCode code(dims.k, dims.e);
    std::vector<std::vector<float>> words;
    for (std::size_t dirty = 0; dirty < PolarCode::kMaxLanes; ++dirty) {
      for (std::size_t l = 0; l < PolarCode::kMaxLanes; ++l) {
        const BitVector coded = code.encode(random_bits(rng, dims.k));
        words.push_back(l == dirty
                            ? adversarial_llrs(coded, rng, false)
                            : to_noisy_llrs(coded, 6.0, rng));
      }
    }
    expect_lanes_match_reference(dims, words, "one dirty lane");
  }
}

TEST(PolarLanes, RootPastTheBoundMatchesReference) {
  // Every input stays below the 1e30 batch bound, but two repeated copies
  // of one sign sum past it, so a batch holding such a word decodes one
  // lane at a time; the tree's sums stay finite either way.
  Rng rng(2105);
  for (const PolarDims& dims : lane_dims()) {
    if (dims.e <= PolarCode::kMaxN) {
      continue;  // no position gets two copies
    }
    const PolarCode code(dims.k, dims.e);
    std::vector<std::vector<float>> words;
    for (int w = 0; w < 16; ++w) {
      std::vector<float> llrs =
          to_noisy_llrs(code.encode(random_bits(rng, dims.k)), 4.0, rng);
      if (w % 3 == 0) {
        for (float& v : llrs) {
          v = std::clamp(v * 1e29f, -9e29f, 9e29f);
        }
      }
      words.push_back(std::move(llrs));
    }
    const float* in[3] = {words[0].data(), words[1].data(), words[2].data()};
    std::vector<float> root(code.n() * 3);
    ASSERT_FALSE(kernels::active().polar_interleave(
        in, 3, dims.e, code.n(), 1e9f, 1e30f, root.data()))
        << "the word set must cross the bound";
    expect_lanes_match_reference(dims, words, "root past the bound");
  }
}

TEST(PolarLanes, RejectsBadLaneCounts) {
  const PolarCode code(67, 108);
  PolarScratch scratch;
  std::vector<float> llrs(108, 1.0f);
  std::vector<std::vector<std::uint8_t>> out(PolarCode::kMaxLanes + 1,
                                             std::vector<std::uint8_t>(67));
  std::vector<const float*> in(PolarCode::kMaxLanes + 1, llrs.data());
  std::vector<std::uint8_t*> bits;
  for (auto& o : out) {
    bits.push_back(o.data());
  }
  EXPECT_THROW(code.decode_lanes(std::span(in).first(0), scratch,
                                 std::span(bits).first(0)),
               std::invalid_argument);
  EXPECT_THROW(code.decode_lanes(in, scratch, bits), std::invalid_argument);
  EXPECT_THROW(code.decode_lanes(std::span(in).first(2), scratch,
                                 std::span(bits).first(3)),
               std::invalid_argument);
}

}  // namespace
}  // namespace nrs
