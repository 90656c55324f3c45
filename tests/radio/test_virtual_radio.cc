#include "radio/virtual_radio.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>

#include "common/rng.h"
#include "gnb/gnb_sim.h"
#include "gnb/presets.h"
#include "phy/modulation.h"
#include "ue/traffic.h"

namespace nrs {
namespace {

ResourceGrid busy_grid(unsigned n_prb, Rng& rng) {
  ResourceGrid grid(n_prb);
  BitVector bits(2 * grid.n_subcarriers());
  for (auto& b : bits) {
    b = rng.chance(0.5);
  }
  const auto symbols = modulate(bits, Modulation::kQpsk);
  for (unsigned sym = 0; sym < grid.n_symbols(); ++sym) {
    for (unsigned sc = 0; sc < grid.n_subcarriers(); ++sc) {
      grid.at(sym, sc) = symbols[sc];
    }
  }
  return grid;
}

TEST(VirtualRadio, CaptureProducesFullSlot) {
  VirtualRadioConfig cfg;
  cfg.n_prb = 51;
  VirtualRadio radio(cfg);
  Rng rng(1);
  const IqBuffer samples = radio.capture(busy_grid(51, rng));
  EXPECT_EQ(samples.size(), radio.ofdm_config().samples_per_slot());
}

TEST(VirtualRadio, AgcNormalizesPower) {
  VirtualRadioConfig cfg;
  cfg.n_prb = 51;
  cfg.enable_agc = true;
  cfg.channel.snr_db = 30.0;
  VirtualRadio radio(cfg);
  Rng rng(2);
  const ResourceGrid grid = busy_grid(51, rng);
  float power = 0.0f;
  for (int i = 0; i < 10; ++i) {
    const IqBuffer samples = radio.capture(grid);
    power = 0.0f;
    for (const auto& s : samples) {
      power += std::norm(s);
    }
    power /= static_cast<float>(samples.size());
  }
  EXPECT_NEAR(power, 1.0f, 0.3f);
}

TEST(VirtualRadio, NoiseScalesWithSnr) {
  auto noise_power_on_empty_grid = [](double snr_db) {
    VirtualRadioConfig cfg;
    cfg.n_prb = 51;
    cfg.enable_agc = false;
    cfg.channel.snr_db = snr_db;
    cfg.channel.seed = 3;
    VirtualRadio radio(cfg);
    const ResourceGrid empty(51);
    const IqBuffer samples = radio.capture(empty);
    float power = 0.0f;
    for (const auto& s : samples) {
      power += std::norm(s);
    }
    return power / static_cast<float>(samples.size());
  };
  EXPECT_NEAR(noise_power_on_empty_grid(10.0) /
                  noise_power_on_empty_grid(20.0),
              10.0, 1.5);
}

TEST(VirtualRadio, ResamplingPathRoundTrips) {
  // Capture at 1.25x the nominal rate and resample back (the TwinRX path):
  // the slot content must survive well enough to correlate with the
  // direct capture.
  Rng rng(4);
  const ResourceGrid grid = busy_grid(51, rng);

  VirtualRadioConfig direct_cfg;
  direct_cfg.n_prb = 51;
  direct_cfg.enable_agc = false;
  direct_cfg.channel.snr_db = 60.0;
  VirtualRadio direct(direct_cfg);

  VirtualRadioConfig resampled_cfg = direct_cfg;
  resampled_cfg.capture_rate_ratio = 1.25;
  VirtualRadio resampled(resampled_cfg);

  const IqBuffer a = direct.capture(grid);
  const IqBuffer b = resampled.capture(grid);
  ASSERT_EQ(a.size(), b.size());
  // Normalized correlation over the middle of the slot (edges suffer
  // from interpolation history).
  cf32 corr{};
  float ea = 0.0f;
  float eb = 0.0f;
  for (std::size_t i = 1000; i + 1000 < a.size(); ++i) {
    corr += a[i] * std::conj(b[i]);
    ea += std::norm(a[i]);
    eb += std::norm(b[i]);
  }
  const float rho = std::abs(corr) / std::sqrt(ea * eb);
  EXPECT_GT(rho, 0.95f);
}

TEST(VirtualRadio, RecorderStoresSlots) {
  IqRecorder recorder;
  recorder.record(IqBuffer(100, cf32(1.0f, 0.0f)));
  recorder.record(IqBuffer(100, cf32(0.0f, 1.0f)));
  ASSERT_EQ(recorder.n_slots(), 2u);
  EXPECT_EQ(recorder.slot(1)[0], cf32(0.0f, 1.0f));
  EXPECT_THROW((void)recorder.slot(2), std::out_of_range);
}

/// One seeded cell whose captured IQ bytes are pinned.
struct PinnedCell {
  CellConfig (*cell)();
  unsigned n_ues;
  ChannelProfile profile;  ///< UE links and the sniffer link alike
  double sniffer_snr_db;
  std::uint64_t seed;
  std::uint64_t hash;  ///< the pin
};

/// FNV-1a 64 over the IQ bytes of 64 captured slots of `c`'s gNB.
std::uint64_t capture_hash(const PinnedCell& c) {
  GnbConfig gnb_cfg;
  gnb_cfg.cell = c.cell();
  gnb_cfg.seed = c.seed;
  GnbSim gnb(std::move(gnb_cfg));
  for (unsigned u = 0; u < c.n_ues; ++u) {
    UeConfig ue;
    ue.id = u;
    ue.channel.profile = c.profile;
    ue.channel.snr_db = 18.0 + (u % 4);
    ue.channel.seed = c.seed * 1000 + u;
    ue.dl_traffic = std::make_unique<CbrSource>(1e6);
    ue.ul_traffic = std::make_unique<CbrSource>(0.25e6);
    ue.seed = c.seed * 2000 + u;
    gnb.add_ue(std::move(ue));
  }
  VirtualRadioConfig radio_cfg;
  radio_cfg.n_prb = gnb.cell().n_prb;
  radio_cfg.channel.profile = c.profile;
  radio_cfg.channel.snr_db = c.sniffer_snr_db;
  radio_cfg.channel.seed = c.seed * 3000;
  VirtualRadio radio(radio_cfg);

  std::uint64_t hash = 0xCBF29CE484222325ull;
  for (int slot = 0; slot < 64; ++slot) {
    const IqBuffer samples = radio.capture(gnb.step());
    for (const cf32& s : samples) {
      unsigned char bytes[sizeof(cf32)];
      std::memcpy(bytes, &s, sizeof bytes);
      for (const unsigned char b : bytes) {
        hash ^= b;
        hash *= 0x100000001B3ull;
      }
    }
  }
  return hash;
}

// The engine golden streams hash decoded fields only; this pins the
// samples themselves (OFDM modulation, channel, AGC), so a change to the
// radio's arithmetic shows here even where no decoded bit moves.
TEST(VirtualRadio, CaptureBytesArePinned) {
  constexpr PinnedCell kCells[] = {
      {amarisoft_cell, 16, ChannelProfile::kAwgn, 28.0, 202,
       0xa4f97e38958c3cc7ull},
      {srsran_cell, 4, ChannelProfile::kPedestrian, 28.0, 101,
       0xdca75dcc316b3b5cull},
      // Nine taps up to 154 samples late: the FIR's long reach across its
      // blocks and the buffer's start.
      {amarisoft_cell, 8, ChannelProfile::kUrban, 28.0, 303,
       0x033e3d9dd4f69ab1ull},
  };
  for (const PinnedCell& c : kCells) {
    const std::uint64_t hash = capture_hash(c);
    EXPECT_EQ(hash, c.hash) << std::hex << "0x" << hash;
  }
}

}  // namespace
}  // namespace nrs
