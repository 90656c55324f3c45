// Property sweep of the full PDCCH chain over CORESET geometries,
// aggregation levels and BWP widths: whatever the cell configuration,
// encode->decode must be the identity and CRC must reject cross-talk.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>

#include "common/rng.h"
#include "nr/pdcch.h"
#include "pdcch_location.h"

namespace nrs {
namespace {

struct ChainParams {
  unsigned n_prb_bwp;
  unsigned coreset_prb;
  unsigned duration;
  bool interleaved;
  unsigned agg_level;
};

// Test IDs embed the printed parameter, so print the fields: gtest's
// fallback dumps the struct's bytes, padding included, and those change
// from build to build.
void PrintTo(const ChainParams& p, std::ostream* os) {
  *os << "(BWP " << p.n_prb_bwp << ", CORESET " << p.coreset_prb << 'x'
      << p.duration << (p.interleaved ? ", interleaved" : ", non-interleaved")
      << ", L" << p.agg_level << ')';
}

class PdcchChainTest : public ::testing::TestWithParam<ChainParams> {};

TEST_P(PdcchChainTest, RoundTripAcrossGeometries) {
  const ChainParams p = GetParam();
  CoresetConfig coreset;
  coreset.rb_start = 0;
  coreset.n_prb = p.coreset_prb;
  coreset.duration = p.duration;
  coreset.interleaved = p.interleaved;
  coreset.n_id = 211;
  coreset.shift = 211;
  if (p.agg_level > coreset.n_cce()) {
    GTEST_SKIP() << "level does not fit";
  }
  Rng rng(p.n_prb_bwp + p.agg_level * 7);
  const SlotPoint slot{Scs::kHz30, 1,
                       static_cast<std::uint32_t>(rng.uniform_int(0, 19))};
  ResourceGrid grid(p.n_prb_bwp);
  Dci dci;
  dci.format = DciFormat::kDl1_1;
  dci.freq_alloc_riv = riv_encode(
      0, static_cast<unsigned>(rng.uniform_int(1, p.n_prb_bwp)),
      p.n_prb_bwp);
  dci.mcs = static_cast<std::uint8_t>(rng.uniform_int(0, 27));
  dci.harq_id = static_cast<std::uint8_t>(rng.uniform_int(0, 15));
  dci.ndi = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
  const Rnti rnti = static_cast<Rnti>(rng.uniform_int(0x4601, 0xFFF0));
  PdcchEncodeScratch enc;
  encode_pdcch(coreset, {rnti, p.agg_level, 0}, dci, p.n_prb_bwp, slot,
               grid, enc);
  const auto result =
      decode_location(coreset, {p.agg_level, 0}, DciFormat::kDl1_1,
                      p.n_prb_bwp, slot, grid, rnti);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->dci, dci);

  // And the CRC must reject every other RNTI we try.
  for (int probe = 0; probe < 8; ++probe) {
    const Rnti wrong = static_cast<Rnti>(rnti + 1 + probe);
    EXPECT_FALSE(decode_location(coreset, {p.agg_level, 0},
                                 DciFormat::kDl1_1, p.n_prb_bwp, slot, grid,
                                 wrong)
                     .has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, PdcchChainTest,
    ::testing::Values(
        // 10 MHz @ 15 kHz (T-Mobile cell 1 shape)
        ChainParams{52, 48, 2, true, 1},
        ChainParams{52, 48, 2, true, 8},
        // 15 MHz @ 15 kHz (T-Mobile cell 2 shape)
        ChainParams{79, 78, 2, true, 4},
        // 20 MHz @ 30 kHz (lab cells)
        ChainParams{51, 48, 2, true, 2},
        ChainParams{51, 48, 2, false, 4},
        // single-symbol CORESET
        ChainParams{51, 48, 1, true, 2},
        ChainParams{51, 48, 1, false, 1},
        // narrow CORESET inside a wide BWP
        ChainParams{106, 24, 2, true, 4},
        ChainParams{106, 96, 2, true, 16}));

TEST(PdcchChain, SoftBitsMatchFullDecode) {
  CoresetConfig coreset;
  coreset.n_prb = 48;
  coreset.n_id = 3;
  coreset.shift = 3;
  const SlotPoint slot{Scs::kHz30, 0, 4};
  ResourceGrid grid(51);
  Dci dci;
  dci.format = DciFormat::kDl1_1;
  dci.freq_alloc_riv = riv_encode(2, 13, 51);
  dci.mcs = 9;
  PdcchEncodeScratch enc;
  encode_pdcch(coreset, {0x4711, 4, 4}, dci, 51, slot, grid, enc);

  const unsigned payload = dci_payload_size(DciFormat::kDl1_1, 51);
  const PdcchCandidateLoc loc{4, 4};
  PdcchScratch scratch;
  ASSERT_EQ(decode_pdcch_batch(coreset, std::span(&loc, 1), payload, slot,
                               estimate_coreset(coreset, slot, grid, scratch),
                               scratch),
            1u);
  // The CRC names the encoding RNTI, so it passes under 0x4711's mask and
  // under no other.
  EXPECT_EQ(scratch.batch.rnti[0], Rnti{0x4711});
  EXPECT_NE(scratch.batch.rnti[0], Rnti{0x4712});
  const Dci unpacked = Dci::unpack(
      DciFormat::kDl1_1, 51,
      std::span<const std::uint8_t>(scratch.batch.bits.data(), payload));
  EXPECT_EQ(unpacked, dci);
}

}  // namespace
}  // namespace nrs
