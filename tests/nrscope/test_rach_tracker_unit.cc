// Unit tests of the RACH tracker against hand-crafted slot grids (the
// integration suite covers it end-to-end; these pin down each mode's
// decision logic in isolation).
#include "nrscope/rach_tracker.h"

#include <gtest/gtest.h>

#include "nr/grant.h"
#include "nr/pdsch.h"
#include "nr/rach.h"
#include "nrscope/nrscope.h"

namespace nrs {
namespace {

CellConfig test_cell() {
  CellConfig cell;
  cell.pci = 7;
  cell.n_prb = 51;
  cell.coreset.rb_start = 0;
  cell.coreset.n_prb = 48;
  cell.coreset.n_id = 7;
  cell.coreset.shift = 7;
  return cell;
}

/// Put a MSG4 (TC-RNTI DCI + RRC Setup PDSCH) on a grid, like the gNB does.
void encode_msg4(const CellConfig& cell, Rnti tc_rnti,
                 const RrcSetup& setup, const SlotPoint& slot,
                 ResourceGrid& grid) {
  const BitVector payload = setup.pack();
  Dci dci;
  dci.format = DciFormat::kDl1_0;
  dci.time_alloc = 2;
  dci.mcs = 2;
  dci.freq_alloc_riv = riv_encode(0, 6, cell.n_prb);
  const auto candidates = pdcch_candidates(
      cell.coreset, cell.common_ss, cell.rach.msg4_agg_level, slot, 0);
  PdcchEncodeScratch enc;
  encode_pdcch(cell.coreset,
               {tc_rnti, cell.rach.msg4_agg_level, candidates.at(0)}, dci,
               cell.n_prb, slot, grid, enc);
  const Grant grant = translate_dci(dci, tc_rnti, cell);
  BitVector padded = payload;
  padded.resize(grant.tbs, 0);
  encode_pdsch(pdsch_allocation(grant, cell.pci), slot, padded, grid);
}

/// Scan one slot of test_cell(), sent through a noiseless OFDM link (feed
/// and air clocks equal: the tracker has listened since the cell booted);
/// returns the UEs that completed association.
std::vector<NewUe> scan(RachTracker& tracker, const ResourceGrid& grid,
                        const SlotPoint& slot, std::uint64_t slot_index,
                        std::vector<DecodedDci>& decoded) {
  const OfdmConfig ofdm = make_ofdm_config(grid.n_prb());
  const IqBuffer samples = OfdmModulator(ofdm).modulate(grid);
  SlotGrid rx(ofdm);
  rx.reset(samples);
  PdcchScratch scratch;
  const CoresetConfig coreset = test_cell().coreset;
  const PdcchEstimate& estimate = estimate_coreset(
      coreset, slot, rx.symbols(0, coreset.duration), scratch);
  std::vector<NewUe> new_ues;
  tracker.process_slot(rx, slot, slot_index, slot_index, estimate, scratch,
                       decoded, new_ues);
  return new_ues;
}

TEST(RachTrackerUnit, XorModeRecoversAndVerifies) {
  const CellConfig cell = test_cell();
  RachTracker tracker(RachTrackerConfig{RachTrackMode::kXorRecovery, true,
                                        false});
  tracker.set_cell(cell);
  RrcSetup setup;
  setup.mcs_table = McsTable::kQam256;
  const SlotPoint slot{Scs::kHz30, 0, 2};
  ResourceGrid grid(cell.n_prb);
  encode_msg4(cell, 0x4601, setup, slot, grid);

  std::vector<DecodedDci> decoded;
  const auto new_ues = scan(tracker, grid, slot, 42, decoded);
  ASSERT_EQ(new_ues.size(), 1u);
  EXPECT_EQ(new_ues[0].c_rnti, 0x4601);
  EXPECT_TRUE(new_ues[0].verified);
  EXPECT_EQ(new_ues[0].config, setup);
  EXPECT_EQ(tracker.cached_rrc(), setup);
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].rnti, 0x4601);
}

TEST(RachTrackerUnit, EmptySlotFindsNothing) {
  const CellConfig cell = test_cell();
  RachTracker tracker(RachTrackerConfig{});
  tracker.set_cell(cell);
  const SlotPoint slot{Scs::kHz30, 0, 3};
  const ResourceGrid grid(cell.n_prb);
  std::vector<DecodedDci> decoded;
  EXPECT_TRUE(scan(tracker, grid, slot, 1, decoded).empty());
  EXPECT_TRUE(decoded.empty());
}

TEST(RachTrackerUnit, SkipModeUsesCachedConfigAfterFirst) {
  const CellConfig cell = test_cell();
  RachTracker tracker(RachTrackerConfig{RachTrackMode::kXorRecovery,
                                        /*verify=*/false, false});
  tracker.set_cell(cell);
  RrcSetup setup;
  setup.max_mimo_layers = 2;

  // First MSG4: must decode the PDSCH to bootstrap the cache.
  ResourceGrid grid1(cell.n_prb);
  const SlotPoint slot1{Scs::kHz30, 0, 2};
  encode_msg4(cell, 0x4601, setup, slot1, grid1);
  std::vector<DecodedDci> decoded;
  auto ues = scan(tracker, grid1, slot1, 10, decoded);
  ASSERT_EQ(ues.size(), 1u);
  EXPECT_EQ(tracker.pdsch_decodes(), 1u);

  // Second MSG4: PDSCH decode skipped, config comes from the cache.
  ResourceGrid grid2(cell.n_prb);
  const SlotPoint slot2{Scs::kHz30, 0, 6};
  encode_msg4(cell, 0x4702, setup, slot2, grid2);
  ues = scan(tracker, grid2, slot2, 20, decoded);
  ASSERT_EQ(ues.size(), 1u);
  EXPECT_EQ(ues[0].c_rnti, 0x4702);
  EXPECT_EQ(ues[0].config.max_mimo_layers, 2u);
  EXPECT_EQ(tracker.pdsch_decodes(), 1u) << "skip optimization active";
}

TEST(RachTrackerUnit, ImplausibleRntiRejected) {
  // A DCI masked with the SI-RNTI must not become a "UE".
  const CellConfig cell = test_cell();
  RachTracker tracker(RachTrackerConfig{RachTrackMode::kXorRecovery, true,
                                        false});
  tracker.set_cell(cell);
  RrcSetup setup;
  ResourceGrid grid(cell.n_prb);
  const SlotPoint slot{Scs::kHz30, 0, 2};
  encode_msg4(cell, kSiRnti, setup, slot, grid);
  std::vector<DecodedDci> decoded;
  EXPECT_TRUE(scan(tracker, grid, slot, 5, decoded).empty());
  EXPECT_GE(tracker.rejected_recoveries(), 1u);
}

TEST(RachTrackerUnit, Msg2ModeIgnoresUnsolicitedMsg4) {
  // Without a preceding MSG2/RAR, the MSG2-assisted mode has no pending
  // TC-RNTI and must not accept the MSG4.
  const CellConfig cell = test_cell();
  RachTracker tracker(RachTrackerConfig{RachTrackMode::kMsg2Assisted, true,
                                        false});
  tracker.set_cell(cell);
  RrcSetup setup;
  ResourceGrid grid(cell.n_prb);
  const SlotPoint slot{Scs::kHz30, 0, 2};
  encode_msg4(cell, 0x4601, setup, slot, grid);
  std::vector<DecodedDci> decoded;
  EXPECT_TRUE(scan(tracker, grid, slot, 5, decoded).empty());
}

TEST(RachTrackerUnit, CrntiReuseRebindsInsteadOfDuplicating) {
  // A RACH handing out an already-tracked C-RNTI (the gNB recycled it
  // after the old subscriber left without the sniffer noticing) must not
  // create a duplicate UE or let the newcomer inherit the old telemetry.
  NrScopeConfig cfg;
  cfg.n_prb = 51;
  cfg.scs = Scs::kHz30;
  NrScope scope(cfg);

  RrcSetup first;
  scope.bind_rach_ue(0x4601, first);
  ASSERT_EQ(scope.known_ues().size(), 1u);
  EXPECT_EQ(scope.metrics_registry().snapshot().counter_value(
                "nrscope.rnti_evictions"),
            0u);

  RrcSetup second;
  second.dl_format = DciFormat::kDl1_0;  // the newcomer's config differs
  scope.bind_rach_ue(0x4601, second);
  EXPECT_EQ(scope.known_ues().size(), 1u) << "rebind, not duplicate";
  EXPECT_EQ(scope.metrics_registry().snapshot().counter_value(
                "nrscope.rnti_evictions"),
            1u);
  const UeTelemetry* ue = scope.telemetry().find(0x4601);
  ASSERT_NE(ue, nullptr);
  EXPECT_EQ(ue->dl_bits(), 0u) << "fresh telemetry after the rebind";

  // A different C-RNTI is a plain add, no eviction counted.
  scope.bind_rach_ue(0x4602, first);
  EXPECT_EQ(scope.known_ues().size(), 2u);
  EXPECT_EQ(scope.metrics_registry().snapshot().counter_value(
                "nrscope.rnti_evictions"),
            1u);
}

}  // namespace
}  // namespace nrs
