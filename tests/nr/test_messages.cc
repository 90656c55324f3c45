#include <gtest/gtest.h>

#include "common/rng.h"
#include "nr/mib.h"
#include "nr/rach.h"
#include "nr/rrc.h"
#include "nr/sib1.h"

namespace nrs {
namespace {

TEST(Mib, PackUnpackRoundTrip) {
  Mib mib;
  mib.sfn = 517;
  mib.scs_common = Scs::kHz30;
  mib.coreset0_rb_start = 2;
  mib.coreset0_n_prb6 = 8;
  mib.coreset0_duration = 2;
  mib.searchspace0 = 3;
  mib.cell_barred = false;
  const BitVector bits = mib.pack();
  EXPECT_EQ(bits.size(), mib_payload_size());
  EXPECT_EQ(Mib::unpack(bits), mib);
}

TEST(Mib, SsbEncodeDecodeRoundTrip) {
  const std::uint16_t pci = 3 * 111 + 2;
  const SsbLocation ssb{/*prb_start=*/1};
  Mib mib;
  mib.sfn = 42;
  mib.coreset0_rb_start = 2;
  const SlotPoint slot{Scs::kHz30, 42, 0};
  ResourceGrid grid(51);
  PdcchEncodeScratch enc;
  PdcchScratch dec;
  encode_ssb(pci, ssb, mib, slot, grid, enc);
  const auto decoded = decode_mib(pci, ssb, slot, grid, dec);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, mib);
}

TEST(Mib, WrongPciFailsDecode) {
  const SsbLocation ssb{1};
  Mib mib;
  const SlotPoint slot{Scs::kHz30, 0, 0};
  ResourceGrid grid(51);
  PdcchEncodeScratch enc;
  PdcchScratch dec;
  encode_ssb(100, ssb, mib, slot, grid, enc);
  EXPECT_FALSE(decode_mib(101, ssb, slot, grid, dec).has_value());
}

TEST(Mib, EmptyGridFailsDecode) {
  const SsbLocation ssb{1};
  const SlotPoint slot{Scs::kHz30, 0, 0};
  const ResourceGrid grid(51);
  PdcchScratch dec;
  EXPECT_FALSE(decode_mib(100, ssb, slot, grid, dec).has_value());
}

TEST(Sib1, PackUnpackRoundTrip) {
  CellConfig cell;
  cell.coreset.rb_start = 2;
  cell.coreset.n_prb = 48;
  cell.coreset.n_id = 501;
  cell.tdd = TddPattern{5, 3, 1};
  cell.rach.prach_period_slots = 80;
  cell.pdsch.mcs_table = McsTable::kQam256;
  const Sib1 sib = Sib1::from_cell(cell);
  const BitVector bits = sib.pack();
  const auto decoded = Sib1::unpack(bits);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, sib);
}

TEST(Sib1, ApplyToCellRestoresConfig) {
  CellConfig original;
  original.coreset.n_id = 77;
  original.coreset.shift = 77;
  original.tdd = TddPattern{10, 7, 2};
  original.common_ss.agg_levels = {4, 8, 16};
  const Sib1 sib = Sib1::from_cell(original);

  CellConfig learned;
  sib.apply_to(learned);
  EXPECT_EQ(learned.coreset, original.coreset);
  EXPECT_EQ(learned.tdd, original.tdd);
  EXPECT_EQ(learned.common_ss.agg_levels, original.common_ss.agg_levels);
  EXPECT_EQ(learned.rach, original.rach);
  EXPECT_EQ(learned.pdsch, original.pdsch);
}

TEST(Sib1, TruncatedBitsRejected) {
  const Sib1 sib = Sib1::from_cell(CellConfig{});
  BitVector bits = sib.pack();
  bits.resize(10);
  EXPECT_FALSE(Sib1::unpack(bits).has_value());
}

TEST(Rar, PackUnpackRoundTrip) {
  Rar rar;
  rar.tc_rnti = 0x4601;
  rar.timing_advance = 123;
  rar.msg3_grant = 0x1ABCDEF;
  const BitVector bits = rar.pack();
  EXPECT_EQ(bits.size(), rar_payload_bits());
  const auto decoded = Rar::unpack(bits);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, rar);
}

TEST(RrcSetup, PackUnpackRoundTrip) {
  RrcSetup setup;
  setup.ue_ss.agg_levels = {1, 2, 4, 8};
  setup.ue_ss.candidates_per_level = 3;
  setup.dl_format = DciFormat::kDl1_1;
  setup.mcs_table = McsTable::kQam256;
  setup.max_mimo_layers = 2;
  setup.n_harq_processes = 16;
  const BitVector bits = setup.pack();
  const auto decoded = RrcSetup::unpack(bits);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, setup);
}

TEST(RrcSetup, FallbackFormatEncodes) {
  RrcSetup setup;
  setup.dl_format = DciFormat::kDl1_0;
  const auto decoded = RrcSetup::unpack(setup.pack());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->dl_format, DciFormat::kDl1_0);
}

TEST(Rach, PrachOccasionsPeriodic) {
  RachConfig rach;
  rach.prach_period_slots = 40;
  EXPECT_TRUE(is_prach_occasion(rach, 0));
  EXPECT_FALSE(is_prach_occasion(rach, 1));
  EXPECT_TRUE(is_prach_occasion(rach, 40));
  EXPECT_TRUE(is_prach_occasion(rach, 4000));
}

TEST(Rach, RaRntiInReservedLowRange) {
  RachConfig rach;
  rach.prach_period_slots = 40;
  for (std::uint64_t slot : {0ull, 40ull, 4000ull, 123456780ull}) {
    const Rnti ra = ra_rnti_for_slot(rach, slot);
    EXPECT_GE(ra, 1u);
    EXPECT_LT(ra, kFirstTcRnti);
  }
}

TEST(Rach, CrntiPlausibilityFilter) {
  EXPECT_TRUE(is_plausible_crnti(0x4601));
  EXPECT_TRUE(is_plausible_crnti(0xFFF0));
  EXPECT_FALSE(is_plausible_crnti(0x0000));
  EXPECT_FALSE(is_plausible_crnti(0x0100));  // RA-RNTI range
  EXPECT_FALSE(is_plausible_crnti(kSiRnti));
}

TEST(Rach, StageNames) {
  EXPECT_STREQ(to_string(RachStage::kIdle), "idle");
  EXPECT_STREQ(to_string(RachStage::kConnected), "connected");
}

}  // namespace
}  // namespace nrs
