// Whole-slot golden test for the SIMD kernel layer: the engine must emit
// an *identical* SlotResult stream whether the kernels dispatch to the
// scalar reference or to the CPU's SIMD backend (the bit-exactness
// contract in phy/kernels/kernels.h, lifted from per-kernel outputs to the
// full decode pipeline, the simulated channel included).
#include <gtest/gtest.h>

#include <vector>

#include "gnb/gnb_sim.h"
#include "gnb/presets.h"
#include "nrscope/nrscope.h"
#include "phy/channel.h"
#include "phy/kernels/kernels.h"
#include "radio/virtual_radio.h"
#include "slot_streams.h"

namespace nrs {
namespace {

std::vector<SlotResult> run_scope(kernels::Isa isa, unsigned n_slots,
                                  ChannelProfile sniffer_link) {
  EXPECT_TRUE(kernels::select(isa));
  GnbConfig gnb_cfg;
  gnb_cfg.cell = srsran_cell();
  gnb_cfg.seed = 321;
  GnbSim gnb(std::move(gnb_cfg));
  for (unsigned i = 0; i < 3; ++i) {
    UeConfig ue;
    ue.channel.snr_db = 21.0 + i;
    ue.dl_traffic = std::make_unique<CbrSource>(8e5);
    ue.ul_traffic = std::make_unique<CbrSource>(2e5);
    ue.seed = i + 5;
    gnb.add_ue(std::move(ue));
  }
  VirtualRadioConfig radio_cfg;
  radio_cfg.n_prb = gnb.cell().n_prb;
  radio_cfg.channel.profile = sniffer_link;
  radio_cfg.channel.snr_db = 24.0;
  radio_cfg.channel.seed = 11;
  VirtualRadio radio(radio_cfg);
  NrScopeConfig scope_cfg;
  scope_cfg.n_prb = gnb.cell().n_prb;
  scope_cfg.scs = gnb.cell().scs;
  NrScope scope(scope_cfg);

  std::vector<SlotResult> results(n_slots);
  for (SlotResult& result : results) {
    scope.process_slot(radio.capture(gnb.step()), result);
  }
  return results;
}

class SimdEquivalence : public ::testing::Test {
 protected:
  void SetUp() override {
    prior_ = kernels::active().isa;
    simd_ = kernels::Isa::kScalar;
    for (kernels::Isa isa : {kernels::Isa::kAvx2, kernels::Isa::kNeon}) {
      if (kernels::available(isa)) {
        simd_ = isa;
        break;
      }
    }
    if (simd_ == kernels::Isa::kScalar) {
      GTEST_SKIP() << "no SIMD backend on this machine";
    }
  }
  void TearDown() override { kernels::select(prior_); }

  kernels::Isa prior_ = kernels::Isa::kScalar;
  kernels::Isa simd_ = kernels::Isa::kScalar;
};

TEST_F(SimdEquivalence, DedupedSlotStreamIsIdentical) {
  // The Pedestrian link runs the channel's multipath kernel too.
  for (const ChannelProfile link :
       {ChannelProfile::kAwgn, ChannelProfile::kPedestrian}) {
    SCOPED_TRACE(to_string(link));
    const auto scalar_run = run_scope(kernels::Isa::kScalar, 400, link);
    const auto simd_run = run_scope(simd_, 400, link);
    expect_streams_identical(scalar_run, simd_run);
    // The run must have decoded real traffic, or the test proves nothing.
    std::size_t n_dcis = 0;
    for (const auto& r : scalar_run) {
      n_dcis += r.dcis.size();
    }
    EXPECT_GT(n_dcis, 50u);
  }
}

}  // namespace
}  // namespace nrs
