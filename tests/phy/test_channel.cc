#include "phy/channel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "phy/kernels/kernels.h"

namespace nrs {
namespace {

IqBuffer constant_block(std::size_t n, cf32 value) {
  return IqBuffer(n, value);
}

TEST(Channel, ProfileNamesRoundTrip) {
  for (auto p : {ChannelProfile::kAwgn, ChannelProfile::kPedestrian,
                 ChannelProfile::kVehicle, ChannelProfile::kUrban}) {
    EXPECT_EQ(channel_profile_from_string(to_string(p)), p);
  }
  EXPECT_THROW(channel_profile_from_string("bogus"), std::invalid_argument);
}

TEST(Channel, TapPowersNormalized) {
  for (auto p : {ChannelProfile::kAwgn, ChannelProfile::kPedestrian,
                 ChannelProfile::kVehicle, ChannelProfile::kUrban}) {
    const auto taps = profile_taps_ns_db(p);
    double total = 0.0;
    for (const auto& [delay, power_db] : taps) {
      total += std::pow(10.0, power_db / 10.0);
    }
    EXPECT_GT(total, 0.0);
    // Normalization happens inside the model; here just sanity-check the
    // profile shape: first tap at zero delay.
    EXPECT_DOUBLE_EQ(taps.front().first, 0.0);
  }
}

TEST(Channel, AwgnAddsExpectedNoisePower) {
  ChannelConfig cfg;
  cfg.profile = ChannelProfile::kAwgn;
  cfg.snr_db = 10.0;
  cfg.fft_size = 1024;
  cfg.seed = 42;
  ChannelModel channel(cfg);
  IqBuffer block = constant_block(16384, cf32{});
  channel.apply(block);
  double power = 0.0;
  for (const auto& s : block) {
    power += std::norm(s);
  }
  power /= static_cast<double>(block.size());
  const double expected = 1.0 / (1024.0 * 10.0);  // 1/(N*SNR)
  EXPECT_NEAR(power / expected, 1.0, 0.1);
}

TEST(Channel, AwgnGainIsUnity) {
  ChannelConfig cfg;
  cfg.profile = ChannelProfile::kAwgn;
  ChannelModel channel(cfg);
  EXPECT_NEAR(channel.current_gain(), 1.0, 1e-9);
  EXPECT_NEAR(channel.effective_snr_db(), cfg.snr_db, 1e-6);
}

TEST(Channel, FadingGainAveragesToUnity) {
  ChannelConfig cfg;
  cfg.profile = ChannelProfile::kVehicle;
  cfg.snr_db = 100.0;  // negligible noise; isolate fading
  cfg.seed = 7;
  ChannelModel channel(cfg);
  IqBuffer block = constant_block(256, cf32(1.0f, 0.0f));
  double gain_acc = 0.0;
  constexpr int kSlots = 2000;
  for (int i = 0; i < kSlots; ++i) {
    IqBuffer b = block;
    channel.apply(b);
    gain_acc += channel.current_gain();
  }
  EXPECT_NEAR(gain_acc / kSlots, 1.0, 0.15);
}

TEST(Channel, PedestrianFadesSlowerThanVehicle) {
  auto decorrelation = [](ChannelProfile p) {
    ChannelConfig cfg;
    cfg.profile = p;
    cfg.snr_db = 100.0;
    cfg.seed = 9;
    ChannelModel channel(cfg);
    IqBuffer block(64, cf32(1.0f, 0.0f));
    const double g0 = channel.current_gain();
    double diff = 0.0;
    for (int i = 0; i < 20; ++i) {
      IqBuffer b = block;
      channel.apply(b);
      diff += std::abs(channel.current_gain() - g0);
    }
    return diff;
  };
  EXPECT_LT(decorrelation(ChannelProfile::kPedestrian),
            decorrelation(ChannelProfile::kVehicle));
}

TEST(Channel, DeterministicForSameSeed) {
  ChannelConfig cfg;
  cfg.profile = ChannelProfile::kUrban;
  cfg.seed = 123;
  ChannelModel a(cfg);
  ChannelModel b(cfg);
  IqBuffer block_a = constant_block(512, cf32(1.0f, 0.5f));
  IqBuffer block_b = block_a;
  a.apply(block_a);
  b.apply(block_b);
  for (std::size_t i = 0; i < block_a.size(); ++i) {
    EXPECT_EQ(block_a[i], block_b[i]);
  }
}

TEST(Channel, StepSlotMatchesApplyGainTrajectory) {
  // The UE CQI path advances fading with step_slot() while the sniffer
  // path runs apply(); with the same seed both must walk through the
  // identical per-slot gain trajectory — the noise draws live on an
  // independent RNG stream precisely so they cannot perturb the fading
  // walk.
  for (auto p : {ChannelProfile::kPedestrian, ChannelProfile::kVehicle,
                 ChannelProfile::kUrban}) {
    ChannelConfig cfg;
    cfg.profile = p;
    cfg.snr_db = 15.0;
    cfg.seed = 77;
    ChannelModel via_apply(cfg);
    ChannelModel via_step(cfg);
    IqBuffer block = constant_block(256, cf32(1.0f, 0.0f));
    for (int slot = 0; slot < 200; ++slot) {
      IqBuffer b = block;
      via_apply.apply(b);
      via_step.step_slot();
      ASSERT_DOUBLE_EQ(via_apply.current_gain(), via_step.current_gain())
          << to_string(p) << " slot " << slot;
      ASSERT_DOUBLE_EQ(via_apply.effective_snr_db(),
                       via_step.effective_snr_db())
          << to_string(p) << " slot " << slot;
    }
  }
}

TEST(Channel, ValidateRejectsUnusableConfigs) {
  ChannelConfig good;
  EXPECT_EQ(good.validate(), std::nullopt);

  auto broken = [](auto&& mutate) {
    ChannelConfig cfg;
    mutate(cfg);
    return cfg;
  };
  EXPECT_NE(broken([](ChannelConfig& c) { c.snr_db = NAN; }).validate(),
            std::nullopt);
  EXPECT_NE(broken([](ChannelConfig& c) { c.sample_rate = 0.0; }).validate(),
            std::nullopt);
  EXPECT_NE(broken([](ChannelConfig& c) { c.sample_rate = -1e6; }).validate(),
            std::nullopt);
  EXPECT_NE(broken([](ChannelConfig& c) { c.sample_rate = NAN; }).validate(),
            std::nullopt);
  EXPECT_NE(broken([](ChannelConfig& c) { c.fft_size = 0; }).validate(),
            std::nullopt);

  // The model refuses to be built on a config validate() rejects.
  ChannelConfig bad;
  bad.sample_rate = -1.0;
  EXPECT_THROW(ChannelModel{bad}, std::invalid_argument);
}

TEST(Channel, MultipathSpreadsEnergyInTime) {
  ChannelConfig cfg;
  cfg.profile = ChannelProfile::kUrban;  // up to 5 us excess delay
  cfg.snr_db = 200.0;
  cfg.sample_rate = 30.72e6;
  cfg.seed = 5;
  ChannelModel channel(cfg);
  IqBuffer impulse(512, cf32{});
  impulse[0] = cf32(1.0f, 0.0f);
  channel.apply(impulse);
  // Energy must appear at delayed taps (ETU has taps out to 5000 ns ~ 153
  // samples at 30.72 Msps).
  float delayed = 0.0f;
  for (std::size_t i = 100; i < 200; ++i) {
    delayed += std::norm(impulse[i]);
  }
  EXPECT_GT(delayed, 0.0f);
}

TEST(Channel, InPlaceMultipathMatchesSeparateOutputFir) {
  // The in-place FIR must reproduce, bit for bit and under every available
  // kernel table, the std::complex FIR that accumulates every tap into a
  // separate zeroed output buffer.
  const kernels::Isa prior = kernels::active().isa;
  for (const kernels::Isa isa :
       {kernels::Isa::kScalar, kernels::Isa::kAvx2, kernels::Isa::kNeon}) {
    if (!kernels::select(isa)) {
      continue;
    }
    Rng rng(17);
    for (int rep = 0; rep < 40; ++rep) {
      const auto n = static_cast<std::size_t>(rng.uniform_int(1, 2000));
      std::vector<FadingTap> taps(
          static_cast<std::size_t>(rng.uniform_int(1, 9)));
      for (auto& tap : taps) {
        // Delays cross the SIMD step and sometimes the buffer's start.
        tap.delay_samples = static_cast<unsigned>(rng.uniform_int(0, 600));
        tap.gain = cf32(static_cast<float>(rng.gaussian()),
                        static_cast<float>(rng.gaussian()));
      }
      IqBuffer input(n);
      for (auto& v : input) {
        v = cf32(static_cast<float>(rng.gaussian()),
                 static_cast<float>(rng.gaussian()));
      }
      IqBuffer expected(n, cf32{});
      for (const auto& tap : taps) {
        for (std::size_t i = tap.delay_samples; i < n; ++i) {
          expected[i] += tap.gain * input[i - tap.delay_samples];
        }
      }
      IqBuffer got = input;
      apply_multipath(got, taps);
      ASSERT_EQ(std::memcmp(got.data(), expected.data(), n * sizeof(cf32)),
                0)
          << kernels::to_string(isa) << " rep " << rep;
    }
  }
  kernels::select(prior);
  IqBuffer samples(64, cf32(1.0f, 0.0f));
  const std::vector<FadingTap> too_many(kMaxFadingTaps + 1);
  EXPECT_THROW(apply_multipath(samples, too_many), std::invalid_argument);
}

TEST(Channel, NoiseIsAFunctionOfSeedSlotAndSample) {
  // AWGN depends only on (seed, slot index, sample index): re-running a
  // slot count reproduces it, and the n-th slot differs from the first.
  ChannelConfig cfg;
  cfg.profile = ChannelProfile::kAwgn;
  cfg.snr_db = 10.0;
  cfg.seed = 99;
  ChannelModel a(cfg);
  ChannelModel b(cfg);
  IqBuffer first_a(1000, cf32{});
  a.apply(first_a);
  IqBuffer second_a(1000, cf32{});
  a.apply(second_a);
  IqBuffer first_b(1000, cf32{});
  b.apply(first_b);
  EXPECT_EQ(first_a, first_b);
  EXPECT_NE(first_a, second_a);
  // A shorter buffer in the same slot is a prefix of the longer one.
  ChannelModel c(cfg);
  IqBuffer prefix(333, cf32{});
  c.apply(prefix);
  EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), first_a.begin()));
}

}  // namespace
}  // namespace nrs
