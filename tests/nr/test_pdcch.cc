#include "nr/pdcch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "pdcch_location.h"

namespace nrs {
namespace {

constexpr unsigned kNPrbBwp = 51;

CoresetConfig make_coreset() {
  CoresetConfig c;
  c.id = 1;
  c.rb_start = 2;
  c.n_prb = 48;
  c.duration = 2;
  c.interleaved = true;
  c.interleaver_rows = 2;
  c.shift = 7;
  c.n_id = 7;
  return c;
}

Dci make_dci() {
  Dci dci;
  dci.format = DciFormat::kDl1_1;
  dci.freq_alloc_riv = riv_encode(5, 20, kNPrbBwp);
  dci.time_alloc = 1;
  dci.mcs = 15;
  dci.ndi = 1;
  dci.rv = 0;
  dci.harq_id = 3;
  return dci;
}

/// Add AWGN to the whole grid at a per-RE noise variance.
void add_noise(ResourceGrid& grid, float nv, Rng& rng) {
  const float s = std::sqrt(nv / 2.0f);
  for (unsigned sym = 0; sym < grid.n_symbols(); ++sym) {
    for (unsigned sc = 0; sc < grid.n_subcarriers(); ++sc) {
      grid.at(sym, sc) += cf32(static_cast<float>(rng.gaussian(0, s)),
                               static_cast<float>(rng.gaussian(0, s)));
    }
  }
}

class PdcchAggLevelTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(PdcchAggLevelTest, CleanRoundTrip) {
  const unsigned level = GetParam();
  const CoresetConfig coreset = make_coreset();
  const SlotPoint slot{Scs::kHz30, 4, 9};
  ResourceGrid grid(kNPrbBwp);
  const Dci dci = make_dci();
  const Rnti rnti = 0x4A31;
  PdcchEncodeScratch enc;
  encode_pdcch(coreset, {rnti, level, 0}, dci, kNPrbBwp, slot, grid, enc);

  const auto result = decode_location(coreset, {level, 0}, DciFormat::kDl1_1,
                                      kNPrbBwp, slot, grid, rnti);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->dci, dci);
  EXPECT_EQ(result->rnti, rnti);
}

INSTANTIATE_TEST_SUITE_P(Levels, PdcchAggLevelTest,
                         ::testing::Values(1, 2, 4, 8, 16));

TEST(Pdcch, WrongRntiRejected) {
  const CoresetConfig coreset = make_coreset();
  const SlotPoint slot{Scs::kHz30, 0, 0};
  ResourceGrid grid(kNPrbBwp);
  PdcchEncodeScratch enc;
  encode_pdcch(coreset, {0x4A31, 4, 0}, make_dci(), kNPrbBwp, slot, grid,
               enc);
  EXPECT_FALSE(decode_location(coreset, {4, 0}, DciFormat::kDl1_1, kNPrbBwp,
                               slot, grid, 0x4A32)
                   .has_value());
}

TEST(Pdcch, WrongCandidateLocationRejected) {
  const CoresetConfig coreset = make_coreset();
  const SlotPoint slot{Scs::kHz30, 0, 0};
  ResourceGrid grid(kNPrbBwp);
  PdcchEncodeScratch enc;
  encode_pdcch(coreset, {0x4A31, 4, 0}, make_dci(), kNPrbBwp, slot, grid,
               enc);
  EXPECT_FALSE(decode_location(coreset, {4, 8}, DciFormat::kDl1_1, kNPrbBwp,
                               slot, grid, 0x4A31)
                   .has_value());
}

TEST(Pdcch, EmptyGridRejected) {
  const CoresetConfig coreset = make_coreset();
  const SlotPoint slot{Scs::kHz30, 0, 0};
  const ResourceGrid grid(kNPrbBwp);
  EXPECT_FALSE(decode_location(coreset, {4, 0}, DciFormat::kDl1_1, kNPrbBwp,
                               slot, grid, 0x4A31)
                   .has_value());
}

TEST(Pdcch, DecodesUnderModerateNoise) {
  const CoresetConfig coreset = make_coreset();
  Rng rng(51);
  PdcchEncodeScratch enc;
  int successes = 0;
  constexpr int kTrials = 30;
  for (int t = 0; t < kTrials; ++t) {
    const SlotPoint slot{Scs::kHz30, 0, static_cast<std::uint32_t>(t % 20)};
    ResourceGrid grid(kNPrbBwp);
    encode_pdcch(coreset, {0x4A31, 4, 4}, make_dci(), kNPrbBwp, slot, grid,
                 enc);
    add_noise(grid, 0.05f, rng);  // ~13 dB per-RE SNR
    successes += decode_location(coreset, {4, 4}, DciFormat::kDl1_1,
                                 kNPrbBwp, slot, grid, 0x4A31)
                     .has_value();
  }
  EXPECT_GE(successes, kTrials - 1);
}

TEST(Pdcch, MissesAtVeryLowSnr) {
  const CoresetConfig coreset = make_coreset();
  Rng rng(52);
  PdcchEncodeScratch enc;
  int successes = 0;
  constexpr int kTrials = 20;
  for (int t = 0; t < kTrials; ++t) {
    const SlotPoint slot{Scs::kHz30, 1, static_cast<std::uint32_t>(t % 20)};
    ResourceGrid grid(kNPrbBwp);
    encode_pdcch(coreset, {0x4A31, 1, 0}, make_dci(), kNPrbBwp, slot, grid,
                 enc);
    add_noise(grid, 4.0f, rng);  // ~ -6 dB: AL1 cannot survive this
    successes += decode_location(coreset, {1, 0}, DciFormat::kDl1_1,
                                 kNPrbBwp, slot, grid, 0x4A31)
                     .has_value();
  }
  EXPECT_LE(successes, 2) << "low SNR should produce DCI misses";
}

TEST(Pdcch, HigherAggregationSurvivesMoreNoise) {
  const CoresetConfig coreset = make_coreset();
  auto success_rate = [&](unsigned level, float nv) {
    Rng rng(level * 100);
    PdcchEncodeScratch enc;
    int ok = 0;
    constexpr int kTrials = 25;
    for (int t = 0; t < kTrials; ++t) {
      const SlotPoint slot{Scs::kHz30, 2,
                           static_cast<std::uint32_t>(t % 20)};
      ResourceGrid grid(kNPrbBwp);
      encode_pdcch(coreset, {0x4A31, level, 0}, make_dci(), kNPrbBwp, slot,
                   grid, enc);
      add_noise(grid, nv, rng);
      ok += decode_location(coreset, {level, 0}, DciFormat::kDl1_1, kNPrbBwp,
                            slot, grid, 0x4A31)
                .has_value();
    }
    return ok;
  };
  const float nv = 0.6f;  // ~2 dB
  EXPECT_GT(success_rate(8, nv), success_rate(1, nv));
}

TEST(Pdcch, RntiRecoveryFindsTheMask) {
  // The paper's MSG4 trick: decode without the RNTI, recover it from the
  // CRC XOR, and verify with the remaining CRC bits.
  const CoresetConfig coreset = make_coreset();
  const SlotPoint slot{Scs::kHz30, 3, 5};
  ResourceGrid grid(kNPrbBwp);
  const Rnti tc_rnti = 0x4601;
  PdcchEncodeScratch enc;
  encode_pdcch(coreset, {tc_rnti, 4, 0}, make_dci(), kNPrbBwp, slot, grid,
               enc);

  const auto recovered = decode_location(coreset, {4, 0}, DciFormat::kDl1_1,
                                         kNPrbBwp, slot, grid);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->rnti, tc_rnti);
  EXPECT_EQ(recovered->dci, make_dci());
}

TEST(Pdcch, RntiRecoveryRejectsEmptyCandidate) {
  const CoresetConfig coreset = make_coreset();
  const SlotPoint slot{Scs::kHz30, 3, 5};
  Rng rng(53);
  ResourceGrid grid(kNPrbBwp);
  add_noise(grid, 1.0f, rng);  // noise-only grid
  int accepted = 0;
  for (unsigned cce = 0; cce + 4 <= coreset.n_cce(); cce += 4) {
    accepted += decode_location(coreset, {4, cce}, DciFormat::kDl1_1,
                                kNPrbBwp, slot, grid)
                    .has_value();
  }
  // 8 unmasked CRC bits leave a ~1/256 false-accept per candidate; with 4
  // candidates, accepting more than one would be suspicious.
  EXPECT_LE(accepted, 1);
}

TEST(Pdcch, TwoUesInOneSlotBothDecode) {
  const CoresetConfig coreset = make_coreset();
  const SlotPoint slot{Scs::kHz30, 6, 2};
  ResourceGrid grid(kNPrbBwp);
  Dci dci_a = make_dci();
  Dci dci_b = make_dci();
  dci_b.mcs = 3;
  dci_b.harq_id = 9;
  PdcchEncodeScratch enc;
  encode_pdcch(coreset, {0x4601, 4, 0}, dci_a, kNPrbBwp, slot, grid, enc);
  encode_pdcch(coreset, {0x4602, 4, 4}, dci_b, kNPrbBwp, slot, grid, enc);

  const auto a = decode_location(coreset, {4, 0}, DciFormat::kDl1_1,
                                 kNPrbBwp, slot, grid, 0x4601);
  const auto b = decode_location(coreset, {4, 4}, DciFormat::kDl1_1,
                                 kNPrbBwp, slot, grid, 0x4602);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->dci, dci_a);
  EXPECT_EQ(b->dci, dci_b);
}

TEST(Pdcch, SnrEstimateIsSane) {
  const CoresetConfig coreset = make_coreset();
  const SlotPoint slot{Scs::kHz30, 0, 0};
  Rng rng(54);
  ResourceGrid grid(kNPrbBwp);
  PdcchEncodeScratch enc;
  encode_pdcch(coreset, {0x4A31, 8, 0}, make_dci(), kNPrbBwp, slot, grid,
               enc);
  add_noise(grid, 0.01f, rng);  // 20 dB
  const auto result = decode_location(coreset, {8, 0}, DciFormat::kDl1_1,
                                      kNPrbBwp, slot, grid, 0x4A31);
  ASSERT_TRUE(result.has_value());
  EXPECT_GT(result->snr_estimate_db, 10.0f);
  EXPECT_LT(result->snr_estimate_db, 35.0f);
}

TEST(PdcchChain, BatchMatchesBatchesOfOne) {
  // One batch mixing every aggregation level, decoded from one shared
  // CORESET estimate, must decode each location exactly as a batch of one
  // at that location would from a fresh estimate of its own: the engine's
  // RACH scan and blind decode share one estimate per slot and mix levels
  // in one batch, and the MIB and the SIB1 wait decode through batches too.
  const CoresetConfig coreset = make_coreset();  // 16 CCEs
  const SlotPoint slot{Scs::kHz30, 2, 7};
  ResourceGrid grid(kNPrbBwp);
  const Dci dci_a = make_dci();
  Dci dci_b = make_dci();
  dci_b.mcs = 3;
  dci_b.harq_id = 9;
  Dci dci_c = make_dci();  // the common search space's format
  dci_c.format = DciFormat::kDl1_0;
  dci_c.mcs = 7;
  PdcchEncodeScratch enc;
  encode_pdcch(coreset, {0x4601, 2, 4}, dci_a, kNPrbBwp, slot, grid, enc);
  encode_pdcch(coreset, {0x4602, 8, 8}, dci_b, kNPrbBwp, slot, grid, enc);
  encode_pdcch(coreset, {0x4603, 4, 0}, dci_c, kNPrbBwp, slot, grid, enc);
  Rng rng(55);
  add_noise(grid, 0.01f, rng);  // 20 dB

  PdcchScratch shared;
  const PdcchEstimate& estimate =
      estimate_coreset(coreset, slot, grid, shared);
  // Decode `locs` at `format`'s size from the shared estimate, and check
  // every location against a batch of one from a fresh estimate.
  const auto decode_and_compare =
      [&](const std::vector<PdcchCandidateLoc>& locs, DciFormat format) {
        const unsigned payload = dci_payload_size(format, kNPrbBwp);
        const unsigned k_bits = payload + kCrc24C.length();
        decode_pdcch_batch(coreset, locs, payload, slot, estimate, shared);
        const auto& batch = shared.batch;
        for (std::size_t i = 0; i < locs.size(); ++i) {
          PdcchScratch own;
          decode_pdcch_batch(coreset, std::span(&locs[i], 1), payload, slot,
                             estimate_coreset(coreset, slot, grid, own), own);
          const auto& one = own.batch;
          SCOPED_TRACE(testing::Message()
                       << "format " << static_cast<int>(format) << " level "
                       << locs[i].agg_level << " cce " << locs[i].cce_start);
          EXPECT_EQ(batch.ok[i], one.ok[0]);
          EXPECT_EQ(std::bit_cast<std::uint32_t>(batch.snr[i]),
                    std::bit_cast<std::uint32_t>(one.snr[0]));
          EXPECT_EQ(batch.rnti[i], one.rnti[0]);
          if (batch.ok[i] != 0 && one.ok[0] != 0) {
            EXPECT_TRUE(std::equal(one.bits.begin(),
                                   one.bits.begin() + k_bits,
                                   batch.bits.begin() + i * k_bits));
          }
        }
      };
  const auto payload_at = [&](std::size_t i, DciFormat format) {
    const unsigned payload = dci_payload_size(format, kNPrbBwp);
    return std::span<const std::uint8_t>(
        shared.batch.bits.data() + i * (payload + kCrc24C.length()),
        payload);
  };

  // DCI A at (2, 4), DCI B at (8, 8), the other levels on top of them or
  // on the other DCIs, and (2, 15) running past the last CCE.
  decode_and_compare({{1, 0}, {2, 4}, {4, 12}, {8, 8}, {16, 0}, {2, 15},
                      {1, 5}},
                     DciFormat::kDl1_1);
  const auto& batch = shared.batch;
  EXPECT_EQ(batch.ok[5], 0) << "a location past the last CCE is skipped";
  ASSERT_EQ(batch.ok[1], 1);
  ASSERT_EQ(batch.ok[3], 1);
  // Each DCI's CRC names its own RNTI, and so passes for no other.
  EXPECT_EQ(batch.rnti[1], Rnti{0x4601});
  EXPECT_NE(batch.rnti[1], Rnti{0x4602});
  EXPECT_EQ(batch.rnti[3], Rnti{0x4602});
  EXPECT_NE(batch.rnti[3], Rnti{0x4601});
  EXPECT_EQ(Dci::unpack(DciFormat::kDl1_1, kNPrbBwp,
                        payload_at(1, DciFormat::kDl1_1)),
            dci_a);
  EXPECT_EQ(Dci::unpack(DciFormat::kDl1_1, kNPrbBwp,
                        payload_at(3, DciFormat::kDl1_1)),
            dci_b);

  // The same estimate serves the other payload size: DCI C (1_0) at (4, 0).
  ASSERT_NE(dci_payload_size(DciFormat::kDl1_0, kNPrbBwp),
            dci_payload_size(DciFormat::kDl1_1, kNPrbBwp));
  decode_and_compare({{4, 0}, {2, 4}, {8, 8}, {1, 3}}, DciFormat::kDl1_0);
  ASSERT_EQ(batch.ok[0], 1);
  EXPECT_EQ(batch.rnti[0], Rnti{0x4603});
  EXPECT_EQ(Dci::unpack(DciFormat::kDl1_0, kNPrbBwp,
                        payload_at(0, DciFormat::kDl1_0)),
            dci_c);

  // An estimate is valid only for the CORESET and slot it was built from.
  const std::vector<PdcchCandidateLoc> locs = {{2, 4}};
  const unsigned payload = dci_payload_size(DciFormat::kDl1_1, kNPrbBwp);
  const PdcchEstimate missing;
  EXPECT_THROW(
      decode_pdcch_batch(coreset, locs, payload, slot, missing, shared),
      std::invalid_argument);
  CoresetConfig other = coreset;
  other.n_id = 8;
  EXPECT_THROW(
      decode_pdcch_batch(other, locs, payload, slot, estimate, shared),
      std::invalid_argument);
  SlotPoint next = slot;
  next.advance();
  EXPECT_THROW(
      decode_pdcch_batch(coreset, locs, payload, next, estimate, shared),
      std::invalid_argument);
}

}  // namespace
}  // namespace nrs
