#include <gtest/gtest.h>

#include "common/rng.h"
#include "phy/pss.h"
#include "phy/sss.h"

namespace nrs {
namespace {

TEST(Pss, SequencesAreBpsk) {
  for (unsigned nid2 = 0; nid2 < 3; ++nid2) {
    const auto seq = pss_sequence(nid2);
    for (float v : seq) {
      EXPECT_TRUE(v == 1.0f || v == -1.0f);
    }
  }
}

TEST(Pss, ShiftsAreDistinct) {
  const auto s0 = pss_sequence(0);
  const auto s1 = pss_sequence(1);
  const auto s2 = pss_sequence(2);
  // Cross-correlation of distinct m-sequence shifts is low.
  auto xcorr = [](const auto& a, const auto& b) {
    float acc = 0.0f;
    for (unsigned i = 0; i < kPssLength; ++i) {
      acc += a[i] * b[i];
    }
    return std::abs(acc) / kPssLength;
  };
  EXPECT_LT(xcorr(s0, s1), 0.3f);
  EXPECT_LT(xcorr(s0, s2), 0.3f);
  EXPECT_LT(xcorr(s1, s2), 0.3f);
  EXPECT_NEAR(xcorr(s0, s0), 1.0f, 1e-5f);
}

class PssDetectTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(PssDetectTest, DetectsCorrectNid2AndOffset) {
  const unsigned nid2 = GetParam();
  const auto seq = pss_sequence(nid2);
  constexpr unsigned kOffset = 8;
  std::vector<cf32> res(kOffset + kPssLength + 9, cf32{});
  for (unsigned n = 0; n < kPssLength; ++n) {
    res[kOffset + n] = cf32(seq[n], 0.0f);
  }
  const auto det = detect_pss(res);
  ASSERT_TRUE(det.has_value());
  EXPECT_EQ(det->nid2, nid2);
  EXPECT_EQ(det->sc_offset, kOffset);
  EXPECT_GT(det->correlation, 0.9f);
}

INSTANTIATE_TEST_SUITE_P(AllNid2, PssDetectTest, ::testing::Values(0, 1, 2));

TEST(Pss, DetectsUnderNoise) {
  Rng rng(31);
  const auto seq = pss_sequence(1);
  std::vector<cf32> res(kPssLength + 17, cf32{});
  for (unsigned n = 0; n < kPssLength; ++n) {
    res[5 + n] = cf32(seq[n], 0.0f) +
                 cf32(static_cast<float>(rng.gaussian(0, 0.5)),
                      static_cast<float>(rng.gaussian(0, 0.5)));
  }
  const auto det = detect_pss(res, 0.3f);
  ASSERT_TRUE(det.has_value());
  EXPECT_EQ(det->nid2, 1u);
  EXPECT_EQ(det->sc_offset, 5u);
}

TEST(Pss, PureNoiseRejected) {
  Rng rng(32);
  std::vector<cf32> res(200);
  for (auto& v : res) {
    v = cf32(static_cast<float>(rng.gaussian()),
             static_cast<float>(rng.gaussian()));
  }
  EXPECT_FALSE(detect_pss(res, 0.5f).has_value());
}

TEST(Pss, ShortBufferRejected) {
  std::vector<cf32> res(50);
  EXPECT_FALSE(detect_pss(res).has_value());
}

// Sweep the detector across falling per-RE SNR and characterize where the
// correlation statistic lands.  This anchors the sync monitor's
// kSsbWeakThreshold (0.25, nrscope/sync_monitor.h): a healthy channel
// scores far above it, and a deep fade / outage scores below it, so
// consecutive weak SSBs are a trustworthy loss signal rather than
// threshold noise.
TEST(Pss, CorrelationSweepSeparatesHealthyFromOutage) {
  constexpr float kWeakThreshold = 0.25f;  // the sync monitor's constant
  constexpr int kTrials = 20;
  constexpr unsigned kNid2 = 2;
  const auto seq = pss_sequence(kNid2);
  Rng rng(71);

  const double snrs_db[] = {20.0, 10.0, 0.0, -10.0, -20.0};
  double avg_corr[std::size(snrs_db)] = {};
  int hits_at_threshold[std::size(snrs_db)] = {};
  for (std::size_t s = 0; s < std::size(snrs_db); ++s) {
    const double sigma =
        std::sqrt(std::pow(10.0, -snrs_db[s] / 10.0) / 2.0);
    for (int t = 0; t < kTrials; ++t) {
      std::vector<cf32> res(kPssLength + 12, cf32{});
      for (unsigned n = 0; n < res.size(); ++n) {
        res[n] = cf32(static_cast<float>(rng.gaussian(0.0, sigma)),
                      static_cast<float>(rng.gaussian(0.0, sigma)));
      }
      for (unsigned n = 0; n < kPssLength; ++n) {
        res[4 + n] += cf32(seq[n], 0.0f);
      }
      // Threshold 0 keeps the best candidate so the statistic itself is
      // observable even when it would be rejected in production.
      const auto det = detect_pss(res, 0.0f);
      ASSERT_TRUE(det.has_value());
      avg_corr[s] += det->correlation / kTrials;
      if (det->correlation >= kWeakThreshold && det->nid2 == kNid2 &&
          det->sc_offset == 4u) {
        ++hits_at_threshold[s];
      }
    }
  }

  // Monotone degradation (small tolerance for trial noise).
  for (std::size_t s = 1; s < std::size(snrs_db); ++s) {
    EXPECT_LE(avg_corr[s], avg_corr[s - 1] + 0.05)
        << "correlation must fall with SNR (step " << s << ")";
  }
  // The operating points the sync monitor cares about: clearly healthy at
  // >= 10 dB, clearly below the weak threshold in an outage-deep fade.
  EXPECT_GT(avg_corr[0], 0.9);
  EXPECT_GT(avg_corr[1], 0.8);
  EXPECT_LT(avg_corr[4], kWeakThreshold);
  EXPECT_EQ(hits_at_threshold[0], kTrials);
  EXPECT_EQ(hits_at_threshold[1], kTrials);
  EXPECT_LE(hits_at_threshold[4], kTrials / 5)
      << "a -20 dB slot must not masquerade as a healthy SSB";
}

TEST(Sss, CorrelationSweepDegradesWithSnr) {
  constexpr int kTrials = 20;
  constexpr unsigned kNid1 = 210;
  constexpr unsigned kNid2 = 1;
  const auto seq = sss_sequence(kNid1, kNid2);
  Rng rng(72);

  const double snrs_db[] = {20.0, 0.0, -20.0};
  double avg_corr[std::size(snrs_db)] = {};
  int correct_nid1[std::size(snrs_db)] = {};
  for (std::size_t s = 0; s < std::size(snrs_db); ++s) {
    const double sigma =
        std::sqrt(std::pow(10.0, -snrs_db[s] / 10.0) / 2.0);
    for (int t = 0; t < kTrials; ++t) {
      std::vector<cf32> res(kPssLength);
      for (unsigned n = 0; n < kPssLength; ++n) {
        res[n] = cf32(seq[n] + static_cast<float>(rng.gaussian(0.0, sigma)),
                      static_cast<float>(rng.gaussian(0.0, sigma)));
      }
      const auto det = detect_sss(res, kNid2, 0.0f);
      ASSERT_TRUE(det.has_value());
      avg_corr[s] += det->correlation / kTrials;
      if (det->nid1 == kNid1) {
        ++correct_nid1[s];
      }
    }
  }

  EXPECT_GT(avg_corr[0], 0.9);
  EXPECT_GT(avg_corr[1], avg_corr[2]);
  EXPECT_EQ(correct_nid1[0], kTrials);
  EXPECT_GE(correct_nid1[1], kTrials - 2) << "0 dB should still resolve NID1";
}

TEST(Sss, DetectsNid1) {
  for (unsigned nid1 : {0u, 41u, 167u, 335u}) {
    const auto seq = sss_sequence(nid1, 2);
    std::vector<cf32> res(kPssLength);
    for (unsigned n = 0; n < kPssLength; ++n) {
      res[n] = cf32(seq[n], 0.0f);
    }
    const auto det = detect_sss(res, 2);
    ASSERT_TRUE(det.has_value());
    EXPECT_EQ(det->nid1, nid1);
  }
}

TEST(Sss, DetectsUnderNoise) {
  Rng rng(33);
  const auto seq = sss_sequence(123, 0);
  std::vector<cf32> res(kPssLength);
  for (unsigned n = 0; n < kPssLength; ++n) {
    res[n] = cf32(seq[n], 0.0f) +
             cf32(static_cast<float>(rng.gaussian(0, 0.4)),
                  static_cast<float>(rng.gaussian(0, 0.4)));
  }
  const auto det = detect_sss(res, 0, 0.3f);
  ASSERT_TRUE(det.has_value());
  EXPECT_EQ(det->nid1, 123u);
}

TEST(Sss, WrongNid2HypothesisDegrades) {
  const auto seq = sss_sequence(100, 0);
  std::vector<cf32> res(kPssLength);
  for (unsigned n = 0; n < kPssLength; ++n) {
    res[n] = cf32(seq[n], 0.0f);
  }
  const auto right = detect_sss(res, 0, 0.0f);
  const auto wrong = detect_sss(res, 1, 0.0f);
  ASSERT_TRUE(right.has_value());
  ASSERT_TRUE(wrong.has_value());
  EXPECT_GT(right->correlation, wrong->correlation);
}

}  // namespace
}  // namespace nrs
