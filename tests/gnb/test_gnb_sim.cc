#include "gnb/gnb_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>

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

TEST(GnbSim, HarqRetransmitsABlockAtMostFourTimes) {
  // A link far below MCS 0's threshold NACKs nearly every transmission, so
  // blocks run into the gNB's limit of four transmissions per block.
  GnbSim gnb(config_with_cell(srsran_cell()));
  UeConfig weak = simple_ue(3);
  weak.channel.snr_db = -5.0;
  gnb.add_ue(std::move(weak));
  for (int i = 0; i < 2000; ++i) {
    gnb.step();
  }
  // A chain is one block: the DL data DCIs of one (RNTI, HARQ id) between
  // NDI toggles.
  struct Chain {
    std::uint8_t ndi = 0;
    unsigned tx = 0;
  };
  constexpr unsigned kRv[] = {0, 2, 3, 1};
  std::map<std::pair<Rnti, unsigned>, Chain> chains;
  std::uint64_t data = 0;
  unsigned longest = 0;
  for (const auto& slot : gnb.truth().slots()) {
    for (const auto& d : slot.dcis) {
      if (d.kind != DciKind::kData) {
        continue;
      }
      ++data;
      Chain& chain = chains[{d.rnti, d.dci.harq_id}];
      if (chain.tx == 0 || chain.ndi != d.dci.ndi) {
        chain = Chain{d.dci.ndi, 0};
      }
      ++chain.tx;
      ASSERT_LE(chain.tx, 4u) << "slot " << d.slot;
      EXPECT_EQ(d.is_retx, chain.tx > 1) << "slot " << d.slot;
      EXPECT_EQ(d.dci.rv, kRv[chain.tx - 1]) << "slot " << d.slot;
      longest = std::max(longest, chain.tx);
    }
  }
  EXPECT_GT(data, 100u);
  EXPECT_EQ(longest, 4u);
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

/// One seeded cell whose every grid byte is pinned.
struct PinnedGnb {
  CellConfig (*cell)();
  unsigned n_ues;
  std::uint64_t seed;
  std::uint64_t hash;  ///< the pin
};

/// What the truth log says a pinned run sent.
struct GridCoverage {
  std::set<unsigned> qms;      ///< Qm of user-data grants
  std::set<unsigned> symbols;  ///< n_symbols of user-data grants
  std::set<DciKind> kinds;
};

/// FNV-1a 64 over every grid of 500 slots of `c`'s gNB.  The UE links
/// spread from 4 to 26 dB, so link adaptation picks every modulation of
/// the cell's MCS table, and the traffic mixes short packets, 1200-byte
/// CBR and full buffers, so user grants take the 4-, 7- and 12-symbol
/// TDRA rows.
std::uint64_t grid_hash(const PinnedGnb& c, GridCoverage& coverage) {
  GnbConfig cfg;
  cfg.cell = c.cell();
  cfg.seed = c.seed;
  GnbSim gnb(std::move(cfg));
  for (unsigned u = 0; u < c.n_ues; ++u) {
    UeConfig ue;
    ue.id = u;
    ue.channel.snr_db = 4.0 + 22.0 * u / (c.n_ues - 1);
    ue.channel.seed = c.seed * 1000 + u;
    switch (u % 3) {
      case 0:
        ue.dl_traffic = std::make_unique<CbrSource>(2e5, 200);
        break;
      case 1:
        ue.dl_traffic = std::make_unique<CbrSource>(2e6);
        break;
      default:
        ue.dl_traffic = std::make_unique<FullBufferSource>();
        break;
    }
    ue.ul_traffic = std::make_unique<CbrSource>(0.25e6);
    ue.seed = c.seed * 2000 + u;
    gnb.add_ue(std::move(ue));
  }
  std::uint64_t hash = 0xCBF29CE484222325ull;
  for (int slot = 0; slot < 500; ++slot) {
    const ResourceGrid& grid = gnb.step();
    for (unsigned sym = 0; sym < grid.n_symbols(); ++sym) {
      const auto row = grid.symbol(sym);
      const auto* bytes = reinterpret_cast<const unsigned char*>(row.data());
      for (std::size_t i = 0; i < row.size_bytes(); ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001B3ull;
      }
    }
  }
  for (const SlotTruth& slot : gnb.truth().slots()) {
    for (const TruthDci& d : slot.dcis) {
      coverage.kinds.insert(d.kind);
      if (d.kind == DciKind::kData) {
        coverage.qms.insert(bits_per_symbol(d.grant.modulation));
        coverage.symbols.insert(d.grant.n_symbols);
      }
    }
  }
  return hash;
}

// VirtualRadio.CaptureBytesArePinned hashes 64 slots, mostly acquisition;
// this pins the gNB's own grids (every PDCCH, PDSCH and DMRS byte) through
// steady user traffic at every modulation.
TEST(GnbSim, GridBytesArePinned) {
  constexpr PinnedGnb kCells[] = {
      {amarisoft_cell, 16, 404, 0x980c9b02b3e774f4ull},  // 256QAM table
      {srsran_cell, 6, 505, 0xe2285a2a2d98f9c8ull},  // 64QAM table
  };
  for (const PinnedGnb& c : kCells) {
    GridCoverage coverage;
    const std::uint64_t hash = grid_hash(c, coverage);
    EXPECT_EQ(hash, c.hash) << std::hex << "0x" << hash;
    const std::set<unsigned> all_qm =
        c.cell().pdsch.mcs_table == McsTable::kQam256
            ? std::set<unsigned>{2, 4, 6, 8}
            : std::set<unsigned>{2, 4, 6};
    EXPECT_EQ(coverage.qms, all_qm);
    EXPECT_EQ(coverage.symbols, (std::set<unsigned>{4, 7, 12}));
    for (const DciKind kind : {DciKind::kSib, DciKind::kRar, DciKind::kMsg4}) {
      EXPECT_TRUE(coverage.kinds.contains(kind)) << to_string(kind);
    }
  }
}

}  // namespace
}  // namespace nrs
