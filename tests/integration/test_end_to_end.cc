// End-to-end: gNB simulator -> OFDM IQ -> channel -> NR-Scope sniffer.
// These tests exercise the complete paper pipeline: cell search (PSS/SSS/
// MIB), SIB1 acquisition, RACH tracking / C-RNTI recovery, per-UE DCI
// decoding and telemetry.
#include <gtest/gtest.h>

#include "analysis/matching.h"
#include "gnb/gnb_sim.h"
#include "gnb/presets.h"
#include "nrscope/nrscope.h"
#include "radio/virtual_radio.h"

namespace nrs {
namespace {

UeConfig make_ue(unsigned seed, double snr_db = 25.0,
                 double dl_rate_bps = 2e6) {
  UeConfig cfg;
  cfg.channel.profile = ChannelProfile::kAwgn;
  cfg.channel.snr_db = snr_db;
  cfg.channel.seed = 1000 + seed;
  cfg.dl_traffic = std::make_unique<CbrSource>(dl_rate_bps);
  cfg.ul_traffic = std::make_unique<CbrSource>(dl_rate_bps / 4.0);
  cfg.seed = seed;
  return cfg;
}

struct Harness {
  GnbSim gnb;
  VirtualRadio radio;
  NrScope scope;
  std::vector<DecodedDci> all_dcis;

  Harness(const CellConfig& cell, double sniffer_snr_db,
          const NrScopeConfig& scope_cfg)
      : gnb([&] {
          GnbConfig g;
          g.cell = cell;
          g.seed = 7;
          return g;
        }()),
        radio([&] {
          VirtualRadioConfig r;
          r.n_prb = cell.n_prb;
          r.channel.profile = ChannelProfile::kAwgn;
          r.channel.snr_db = sniffer_snr_db;
          r.channel.seed = 99;
          return r;
        }()),
        scope(scope_cfg) {}

  void run(unsigned n_slots) {
    SlotResult result;
    for (unsigned i = 0; i < n_slots; ++i) {
      const ResourceGrid& grid = gnb.step();
      const IqBuffer samples = radio.capture(grid);
      scope.process_slot(samples, result);
      all_dcis.insert(all_dcis.end(), result.dcis.begin(),
                      result.dcis.end());
    }
  }
};

NrScopeConfig default_scope_config(const CellConfig& cell) {
  NrScopeConfig cfg;
  cfg.n_prb = cell.n_prb;
  cfg.scs = cell.scs;
  return cfg;
}

TEST(EndToEnd, CellSearchFindsPciAndMib) {
  const CellConfig cell = srsran_cell();
  Harness h(cell, 25.0, default_scope_config(cell));
  h.run(25);  // at least one SSB in the first frame
  EXPECT_NE(h.scope.state(), NrScope::State::kSearching);
  EXPECT_EQ(h.scope.pci(), cell.pci);
  ASSERT_TRUE(h.scope.mib().has_value());
  EXPECT_EQ(h.scope.mib()->coreset0_n_prb6 * 6u, cell.coreset.n_prb);
}

TEST(EndToEnd, Sib1LearnedWithinTwoPeriods) {
  const CellConfig cell = srsran_cell();
  Harness h(cell, 25.0, default_scope_config(cell));
  h.run(2 * cell.sib1_period_frames * slots_per_frame(cell.scs) + 25);
  EXPECT_EQ(h.scope.state(), NrScope::State::kTracking);
  EXPECT_EQ(h.scope.cell().coreset, cell.coreset);
  EXPECT_EQ(h.scope.cell().tdd, cell.tdd);
  EXPECT_EQ(h.scope.cell().rach, cell.rach);
}

TEST(EndToEnd, RachTrackerLearnsCrnti) {
  const CellConfig cell = srsran_cell();
  Harness h(cell, 25.0, default_scope_config(cell));
  const unsigned ue_id = h.gnb.add_ue(make_ue(1));
  h.run(300);
  const Rnti true_rnti = h.gnb.ue_rnti(ue_id);
  ASSERT_NE(true_rnti, kInvalidRnti) << "UE should have connected";
  const auto known = h.scope.known_ues();
  ASSERT_EQ(known.size(), 1u);
  EXPECT_EQ(known[0], true_rnti);
}

TEST(EndToEnd, DecodesDataDcisWithLowMissRate) {
  const CellConfig cell = srsran_cell();
  Harness h(cell, 28.0, default_scope_config(cell));
  h.gnb.add_ue(make_ue(1, 25.0, 4e6));
  h.gnb.add_ue(make_ue(2, 22.0, 2e6));
  h.run(1500);
  ASSERT_EQ(h.scope.known_ues().size(), 2u);

  const auto report = compute_miss_rate(h.gnb.truth(), h.all_dcis, 300);
  EXPECT_GT(report.dl_truth, 100u) << "gNB should have scheduled data";
  EXPECT_GT(report.ul_truth, 50u);
  EXPECT_LT(report.dl_miss_rate(), 0.02);
  EXPECT_LT(report.ul_miss_rate(), 0.02);
  EXPECT_LT(report.false_positives, 5u);
}

TEST(EndToEnd, ThroughputEstimateTracksDeliveredBytes) {
  const CellConfig cell = srsran_cell();
  Harness h(cell, 28.0, default_scope_config(cell));
  const unsigned ue_id = h.gnb.add_ue(make_ue(3, 25.0, 3e6));
  h.run(4000);  // 2 seconds at 0.5 ms TTI
  const Rnti rnti = h.gnb.ue_rnti(ue_id);
  ASSERT_NE(rnti, kInvalidRnti);

  const UeTelemetry* telem = h.scope.telemetry().find(rnti);
  ASSERT_NE(telem, nullptr);
  // Sniffer-estimated delivered bits vs. the UE's own packet trace.
  const double est_bits = static_cast<double>(telem->dl_bits());
  const double true_bits =
      static_cast<double>(h.gnb.ue(ue_id)->trace().total_bytes()) * 8.0;
  ASSERT_GT(true_bits, 1e5);
  // TBS includes MAC padding, so the estimate is an upper bound that
  // should sit within ~15% of the applications' delivered bytes.
  EXPECT_GT(est_bits, true_bits * 0.95);
  EXPECT_LT(est_bits, true_bits * 1.3);
}

TEST(EndToEnd, RetransmissionsDetectedUnderFading) {
  const CellConfig cell = srsran_cell();
  Harness h(cell, 30.0, default_scope_config(cell));
  UeConfig ue = make_ue(4, 12.0, 3e6);
  ue.channel.profile = ChannelProfile::kVehicle;  // fading -> NACKs
  const unsigned ue_id = h.gnb.add_ue(std::move(ue));
  h.run(3000);
  const Rnti rnti = h.gnb.ue_rnti(ue_id);
  ASSERT_NE(rnti, kInvalidRnti);
  const UeTelemetry* telem = h.scope.telemetry().find(rnti);
  ASSERT_NE(telem, nullptr);
  EXPECT_GT(telem->harq().retransmissions(), 0u)
      << "a fading UE at 12 dB must NACK sometimes";

  // Cross-check against ground truth retransmission count.
  std::uint64_t truth_retx = 0;
  for (const auto& slot : h.gnb.truth().slots()) {
    for (const auto& d : slot.dcis) {
      truth_retx += d.kind == DciKind::kData && d.is_retx;
    }
  }
  EXPECT_GT(truth_retx, 0u);
  const double est = static_cast<double>(telem->harq().retransmissions());
  EXPECT_NEAR(est / static_cast<double>(truth_retx), 1.0, 0.25);
}

TEST(EndToEnd, LowSnifferSnrProducesMisses) {
  const CellConfig cell = srsran_cell();
  Harness good(cell, 30.0, default_scope_config(cell));
  Harness bad(cell, 3.0, default_scope_config(cell));
  good.gnb.add_ue(make_ue(5, 25.0, 3e6));
  bad.gnb.add_ue(make_ue(5, 25.0, 3e6));
  good.run(1200);
  bad.run(1200);
  const auto good_report =
      compute_miss_rate(good.gnb.truth(), good.all_dcis, 300);
  const auto bad_report =
      compute_miss_rate(bad.gnb.truth(), bad.all_dcis, 300);
  EXPECT_GT(bad_report.dl_miss_rate(), good_report.dl_miss_rate());
}

TEST(EndToEnd, Msg2AssistedModeAlsoFindsUes) {
  const CellConfig cell = srsran_cell();
  NrScopeConfig cfg = default_scope_config(cell);
  cfg.rach.mode = RachTrackMode::kMsg2Assisted;
  Harness h(cell, 25.0, cfg);
  const unsigned ue_id = h.gnb.add_ue(make_ue(6));
  h.run(300);
  ASSERT_NE(h.gnb.ue_rnti(ue_id), kInvalidRnti);
  const auto known = h.scope.known_ues();
  ASSERT_EQ(known.size(), 1u);
  EXPECT_EQ(known[0], h.gnb.ue_rnti(ue_id));
  EXPECT_GT(h.scope.rach_tracker().msg2_decoded(), 0u);
}

TEST(EndToEnd, RegErrorsMostlyZero) {
  const CellConfig cell = srsran_cell();
  Harness h(cell, 28.0, default_scope_config(cell));
  h.gnb.add_ue(make_ue(7, 24.0, 4e6));
  h.run(1500);
  const SampleSet errors =
      compute_reg_errors(h.gnb.truth(), h.all_dcis, 300, 1500);
  ASSERT_GT(errors.size(), 0u);
  EXPECT_GT(errors.cdf(0.5), 0.97) << ">97% of TTIs with zero REG error";
}

TEST(EndToEnd, TmobileFddCellWorksToo) {
  const CellConfig cell = tmobile_cell1();  // 15 kHz FDD, 52 PRB
  NrScopeConfig cfg;
  cfg.n_prb = cell.n_prb;
  cfg.scs = cell.scs;
  Harness h(cell, 25.0, cfg);
  const unsigned ue_id = h.gnb.add_ue(make_ue(8, 22.0, 2e6));
  h.run(600);
  EXPECT_EQ(h.scope.state(), NrScope::State::kTracking);
  ASSERT_NE(h.gnb.ue_rnti(ue_id), kInvalidRnti);
  EXPECT_EQ(h.scope.known_ues().size(), 1u);
}

TEST(EndToEnd, SixteenUesOnCleanAwgnLinkNeverDegrade) {
  // With 16 UEs the gNB schedules uplink DCIs in SSB slots.  They must not
  // corrupt the PSS/PBCH, or the sync monitor's SSB quality collapses and
  // a clean 28 dB link reads as degraded.
  const CellConfig cell = amarisoft_cell();
  Harness h(cell, 28.0, default_scope_config(cell));
  for (unsigned i = 0; i < 16; ++i) {
    h.gnb.add_ue(make_ue(i + 1, 24.0, 2e6));
  }
  bool locked = false;
  unsigned degraded = 0;
  SlotResult result;
  for (unsigned i = 0; i < 3000; ++i) {
    h.scope.process_slot(h.radio.capture(h.gnb.step()), result);
    locked = locked || h.scope.state() == NrScope::State::kTracking;
    if (locked && result.degraded) {
      ++degraded;
    }
  }
  ASSERT_TRUE(locked);
  EXPECT_EQ(degraded, 0u);
}

}  // namespace
}  // namespace nrs
