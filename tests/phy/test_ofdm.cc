#include "phy/ofdm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace nrs {
namespace {

ResourceGrid random_grid(unsigned n_prb, Rng& rng) {
  ResourceGrid grid(n_prb);
  for (unsigned sym = 0; sym < grid.n_symbols(); ++sym) {
    for (unsigned sc = 0; sc < grid.n_subcarriers(); ++sc) {
      grid.at(sym, sc) = cf32(static_cast<float>(rng.gaussian()),
                              static_cast<float>(rng.gaussian()));
    }
  }
  return grid;
}

TEST(Ofdm, ConfigSelectsSufficientFft) {
  for (unsigned n_prb : {24u, 51u, 106u}) {
    const OfdmConfig cfg = make_ofdm_config(n_prb);
    EXPECT_GE(cfg.fft_size, n_prb * 12 + 2);
    EXPECT_EQ(cfg.fft_size & (cfg.fft_size - 1), 0u) << "power of two";
  }
}

TEST(Ofdm, TwentyMhzAt30KhzUsesFft1024) {
  // The paper's lab cells: 51 PRB (20 MHz, 30 kHz SCS).
  const OfdmConfig cfg = make_ofdm_config(51);
  EXPECT_EQ(cfg.fft_size, 1024u);
}

TEST(Ofdm, SamplesPerSlot) {
  const OfdmConfig cfg = make_ofdm_config(51);
  EXPECT_EQ(cfg.samples_per_slot(),
            (cfg.fft_size + cfg.cp_len) * kSymbolsPerSlot);
}

TEST(Ofdm, ModulatorRejectsMismatchedGrid) {
  const OfdmConfig cfg = make_ofdm_config(51);
  OfdmModulator mod(cfg);
  ResourceGrid grid(24);
  EXPECT_THROW(mod.modulate(grid), std::invalid_argument);
}

TEST(Ofdm, DemodulatorRejectsShortBuffer) {
  const OfdmConfig cfg = make_ofdm_config(24);
  OfdmDemodulator demod(cfg);
  IqBuffer samples(100);
  EXPECT_THROW(demod.demodulate(samples), std::invalid_argument);
  SlotGrid lazy(cfg);
  EXPECT_THROW(lazy.reset(samples), std::invalid_argument);
}

class OfdmRoundTrip : public ::testing::TestWithParam<unsigned> {};

TEST_P(OfdmRoundTrip, ModulateDemodulateIsTransparent) {
  const unsigned n_prb = GetParam();
  const OfdmConfig cfg = make_ofdm_config(n_prb);
  OfdmModulator mod(cfg);
  OfdmDemodulator demod(cfg);
  Rng rng(n_prb);
  const ResourceGrid tx = random_grid(n_prb, rng);
  const IqBuffer samples = mod.modulate(tx);
  EXPECT_EQ(samples.size(), cfg.samples_per_slot());
  const ResourceGrid rx = demod.demodulate(samples);
  for (unsigned sym = 0; sym < tx.n_symbols(); ++sym) {
    for (unsigned sc = 0; sc < tx.n_subcarriers(); ++sc) {
      EXPECT_NEAR(rx.at(sym, sc).real(), tx.at(sym, sc).real(), 1e-2f);
      EXPECT_NEAR(rx.at(sym, sc).imag(), tx.at(sym, sc).imag(), 1e-2f);
    }
  }
}

// 10 MHz @ 15 kHz (T-Mobile cell 1), 20 MHz @ 30 kHz (lab cells), wideband.
INSTANTIATE_TEST_SUITE_P(Bandwidths, OfdmRoundTrip,
                         ::testing::Values(24, 51, 52, 106));

TEST(Ofdm, EmptyGridYieldsSilence) {
  const OfdmConfig cfg = make_ofdm_config(24);
  OfdmModulator mod(cfg);
  ResourceGrid grid(24);
  const IqBuffer samples = mod.modulate(grid);
  float energy = 0.0f;
  for (const auto& s : samples) {
    energy += std::norm(s);
  }
  EXPECT_NEAR(energy, 0.0f, 1e-9f);
}

TEST(Ofdm, CyclicPrefixIsCopyOfTail) {
  const OfdmConfig cfg = make_ofdm_config(24);
  OfdmModulator mod(cfg);
  Rng rng(3);
  const ResourceGrid grid = random_grid(24, rng);
  const IqBuffer samples = mod.modulate(grid);
  // First symbol: CP [0, cp) must equal [fft_size, fft_size + cp).
  for (unsigned i = 0; i < cfg.cp_len; ++i) {
    EXPECT_NEAR(samples[i].real(), samples[cfg.fft_size + i].real(), 1e-5f);
    EXPECT_NEAR(samples[i].imag(), samples[cfg.fft_size + i].imag(), 1e-5f);
  }
}

TEST(Ofdm, SlotGridRowsMatchFullDemodInAnyRequestOrder) {
  const OfdmConfig cfg = make_ofdm_config(51);
  OfdmModulator mod(cfg);
  Rng rng(7);
  const IqBuffer stale = mod.modulate(random_grid(51, rng));
  const IqBuffer samples = mod.modulate(random_grid(51, rng));
  ResourceGrid reference(51);
  OfdmDemodulator(cfg).demodulate_into(samples, reference);

  // (first, count) requests: all rows at once, one row at a time from the
  // top down, overlapping ranges (the last one runs past the slot), and
  // the tracking engine's pattern (CORESET twice, then the SSB rows).
  using Requests = std::vector<std::pair<unsigned, unsigned>>;
  Requests descending;
  for (unsigned sym = kSymbolsPerSlot; sym-- > 0;) {
    descending.emplace_back(sym, 1);
  }
  const std::vector<Requests> orders = {
      {{0, kSymbolsPerSlot}},
      descending,
      {{5, 4}, {0, 2}, {3, 6}, {12, 5}},
      {{0, 2}, {0, 2}, {0, 4}},
  };
  SlotGrid lazy(cfg);
  for (const Requests& order : orders) {
    // Fill every row from another slot first: a row the lazy grid failed
    // to refresh would still hold these values.
    lazy.reset(stale);
    (void)lazy.symbols(0, kSymbolsPerSlot);
    lazy.reset(samples);
    EXPECT_EQ(lazy.demodulated(), 0u);
    std::vector<bool> requested(kSymbolsPerSlot, false);
    unsigned distinct = 0;
    for (const auto& [first, count] : order) {
      const ResourceGrid& grid = lazy.symbols(first, count);
      for (unsigned sym = first;
           sym < std::min(first + count, kSymbolsPerSlot); ++sym) {
        distinct += requested[sym] ? 0 : 1;
        requested[sym] = true;
      }
      for (unsigned sym = 0; sym < kSymbolsPerSlot; ++sym) {
        if (!requested[sym]) {
          continue;
        }
        for (unsigned sc = 0; sc < grid.n_subcarriers(); ++sc) {
          ASSERT_EQ(grid.at(sym, sc), reference.at(sym, sc))
              << "row " << sym << " subcarrier " << sc;
        }
      }
      // One FFT per distinct row, however often a row is asked for.
      EXPECT_EQ(lazy.demodulated(), distinct);
    }
  }
}

}  // namespace
}  // namespace nrs
