#include "gnb/gnb_sim.h"

#include <gtest/gtest.h>

#include <set>

#include "gnb/presets.h"
#include "nr/mib.h"
#include "nr/sib1.h"
#include "phy/pss.h"

namespace nrs {
namespace {

GnbConfig config_with_cell(CellConfig cell) {
  GnbConfig cfg;
  cfg.cell = std::move(cell);
  cfg.seed = 11;
  return cfg;
}

UeConfig simple_ue(unsigned seed, double rate = 2e6) {
  UeConfig cfg;
  cfg.channel.snr_db = 24.0;
  cfg.dl_traffic = std::make_unique<CbrSource>(rate);
  cfg.ul_traffic = std::make_unique<CbrSource>(rate / 4);
  cfg.seed = seed;
  return cfg;
}

TEST(GnbSim, BroadcastsDecodableSsb) {
  GnbSim gnb(config_with_cell(srsran_cell()));
  const ResourceGrid& grid = gnb.step();  // slot 0 carries the SSB
  PdcchScratch dec;
  const auto mib = decode_mib(gnb.cell().pci, SsbLocation{0},
                              SlotPoint{gnb.cell().scs, 0, 0}, grid, dec);
  ASSERT_TRUE(mib.has_value());
  EXPECT_EQ(mib->sfn, 0u);
  EXPECT_EQ(mib->coreset0_n_prb6 * 6u, gnb.cell().coreset.n_prb);
}

TEST(GnbSim, TruthLogCoversEverySlot) {
  GnbSim gnb(config_with_cell(srsran_cell()));
  for (int i = 0; i < 50; ++i) {
    gnb.step();
  }
  ASSERT_EQ(gnb.truth().slots().size(), 50u);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(gnb.truth().slots()[i].slot, i);
  }
  EXPECT_TRUE(gnb.truth().slots()[0].has_ssb);
  EXPECT_FALSE(gnb.truth().slots()[1].has_ssb);
  EXPECT_TRUE(gnb.truth().slots()[20].has_ssb);  // next frame
}

TEST(GnbSim, SibScheduledPeriodically) {
  GnbSim gnb(config_with_cell(srsran_cell()));
  for (int i = 0; i < 100; ++i) {
    gnb.step();
  }
  EXPECT_GE(gnb.truth().count(DciKind::kSib), 2u);  // every 2 frames
}

TEST(GnbSim, RachCompletesWithinOneOccasionPeriod) {
  GnbSim gnb(config_with_cell(srsran_cell()));
  const unsigned id = gnb.add_ue(simple_ue(1));
  for (int i = 0; i < 60 && gnb.ue_rnti(id) == kInvalidRnti; ++i) {
    gnb.step();
  }
  EXPECT_NE(gnb.ue_rnti(id), kInvalidRnti);
  EXPECT_EQ(gnb.truth().count(DciKind::kRar), 1u);
  EXPECT_EQ(gnb.truth().count(DciKind::kMsg4), 1u);
}

TEST(GnbSim, DistinctCRntisForManyUes) {
  GnbSim gnb(config_with_cell(amarisoft_cell()));
  std::vector<unsigned> ids;
  for (unsigned i = 0; i < 12; ++i) {
    ids.push_back(gnb.add_ue(simple_ue(i + 1, 5e5)));
  }
  for (int i = 0; i < 400; ++i) {
    gnb.step();
  }
  std::set<Rnti> rntis;
  for (unsigned id : ids) {
    const Rnti rnti = gnb.ue_rnti(id);
    ASSERT_NE(rnti, kInvalidRnti);
    EXPECT_TRUE(rntis.insert(rnti).second) << "duplicate C-RNTI";
  }
}

TEST(GnbSim, NoDataInUplinkSlots) {
  GnbSim gnb(config_with_cell(srsran_cell()));
  gnb.add_ue(simple_ue(1));
  for (int i = 0; i < 200; ++i) {
    gnb.step();
  }
  for (const auto& slot : gnb.truth().slots()) {
    if (gnb.cell().tdd.is_uplink(slot.slot)) {
      EXPECT_TRUE(slot.dcis.empty())
          << "UL slot " << slot.slot << " must carry no PDCCH";
    }
  }
}

TEST(GnbSim, ThroughputMatchesOfferedLoad) {
  GnbSim gnb(config_with_cell(srsran_cell()));
  const unsigned id = gnb.add_ue(simple_ue(1, 2e6));
  constexpr int kSlots = 4000;  // 2 s
  for (int i = 0; i < kSlots; ++i) {
    gnb.step();
  }
  const double delivered =
      static_cast<double>(gnb.ue(id)->trace().total_bytes()) * 8.0;
  EXPECT_NEAR(delivered / 2.0, 2e6, 3e5);  // ~2 Mbit/s served
}

TEST(GnbSim, SaturationFairnessAcrossUes) {
  // The fix for the HARQ-zombie bug: under sustained load every UE keeps
  // receiving (no starvation when PDCCH blocking skips a TTI).
  GnbSim gnb(config_with_cell(amarisoft_cell()));
  std::vector<unsigned> ids;
  for (unsigned i = 0; i < 6; ++i) {
    ids.push_back(gnb.add_ue(simple_ue(i + 1, 1e6)));
  }
  for (int i = 0; i < 3000; ++i) {
    gnb.step();
  }
  for (unsigned id : ids) {
    const double delivered =
        static_cast<double>(gnb.ue(id)->trace().total_bytes());
    EXPECT_GT(delivered, 120000.0) << "UE " << id << " starved";
  }
}

TEST(GnbSim, RetransmissionsForWeakUe) {
  GnbConfig cfg = config_with_cell(srsran_cell());
  GnbSim gnb(std::move(cfg));
  UeConfig weak = simple_ue(3, 2e6);
  weak.channel.snr_db = 10.0;
  weak.channel.profile = ChannelProfile::kVehicle;
  gnb.add_ue(std::move(weak));
  for (int i = 0; i < 2000; ++i) {
    gnb.step();
  }
  std::uint64_t retx = 0;
  std::uint64_t data = 0;
  for (const auto& slot : gnb.truth().slots()) {
    for (const auto& d : slot.dcis) {
      if (d.kind == DciKind::kData) {
        ++data;
        retx += d.is_retx;
      }
    }
  }
  EXPECT_GT(data, 100u);
  EXPECT_GT(retx, 0u);
  // NDI semantics: a retransmission repeats the previous NDI.
  EXPECT_LT(static_cast<double>(retx) / static_cast<double>(data), 0.6);
}

TEST(GnbSim, RemoveUeStopsScheduling) {
  GnbSim gnb(config_with_cell(srsran_cell()));
  const unsigned id = gnb.add_ue(simple_ue(1));
  for (int i = 0; i < 200; ++i) {
    gnb.step();
  }
  const Rnti rnti = gnb.ue_rnti(id);
  ASSERT_NE(rnti, kInvalidRnti);
  gnb.remove_ue(id);
  const std::size_t before = gnb.truth().dcis_for(rnti).size();
  for (int i = 0; i < 100; ++i) {
    gnb.step();
  }
  EXPECT_EQ(gnb.truth().dcis_for(rnti).size(), before);
  EXPECT_EQ(gnb.ue(id), nullptr);
}

TEST(GnbSim, CoresetMustFitBwp) {
  CellConfig cell = srsran_cell();
  cell.coreset.n_prb = 60;  // > 51-PRB BWP
  EXPECT_THROW(GnbSim{config_with_cell(cell)}, std::invalid_argument);
}

TEST(GnbSim, SsbSlotsCarryExactPssWithManyUes) {
  // With many UEs the uplink scheduler also runs in SSB slots; its DCIs
  // must stay off the SS/PBCH block (TS 38.213 10.1), so every SSB slot
  // carries the exact PSS and a decodable PBCH.
  const CellConfig cell = amarisoft_cell();
  GnbSim gnb(config_with_cell(cell));
  for (unsigned i = 0; i < 16; ++i) {
    gnb.add_ue(simple_ue(i + 1));
  }
  const auto pss = pss_sequence(cell.pci % 3);
  // PSS starts (144 - 127) / 2 subcarriers into the 12-PRB SSB window.
  const unsigned sc0 = cell.ssb_prb_start * kSubcarriersPerPrb +
                       (SsbLocation::kNPrb * kSubcarriersPerPrb -
                        kPssLength) / 2;
  PdcchScratch dec;
  unsigned ssb_slots = 0;
  std::size_t ssb_slot_dcis = 0;
  for (unsigned s = 0; s < 3000; ++s) {
    const SlotPoint now = gnb.clock().now();
    const ResourceGrid& grid = gnb.step();
    const SlotTruth& truth = gnb.truth().slots().back();
    if (!truth.has_ssb) {
      continue;
    }
    ++ssb_slots;
    ssb_slot_dcis += truth.dcis.size();
    for (unsigned n = 0; n < kPssLength; ++n) {
      ASSERT_EQ(grid.at(SsbLocation::kPssSymbol, sc0 + n), cf32(pss[n], 0.0f))
          << "slot " << s << " PSS element " << n;
    }
    ASSERT_TRUE(decode_mib(cell.pci, SsbLocation{cell.ssb_prb_start}, now,
                           grid, dec)
                    .has_value())
        << "slot " << s;
  }
  EXPECT_GE(ssb_slots, 140u);
  // Uplink grants still go out in SSB slots, on the CCEs clear of the SSB.
  EXPECT_GT(ssb_slot_dcis, 0u);
}

}  // namespace
}  // namespace nrs
