// FeatureExtractor unit tests: O(1) window sums vs. a naive recompute,
// bounded-table eviction with generation stamps, and the DCI filtering
// rules (C-RNTI plausibility, downlink-only, retx excluded from bits).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "analysis/features.h"
#include "nr/rach.h"

namespace nrs {
namespace {

// At 30 kHz SCS one slot is 0.5 ms, so the 0.1 / 0.5 / 2 s feature windows
// are 200 / 1000 / 4000 slots.
FeatureConfig cell_config() {
  FeatureConfig cfg;
  cfg.scs = Scs::kHz30;
  cfg.n_prb = 51;
  return cfg;
}

constexpr std::uint64_t kLongWindowSlots = 4000;

DecodedDci make_dci(Rnti rnti, unsigned tbs_bits, unsigned prbs = 4,
                    unsigned mcs = 10, bool retx = false,
                    DciFormat format = DciFormat::kDl1_1) {
  DecodedDci dci;
  dci.rnti = rnti;
  dci.grant.rnti = rnti;
  dci.grant.format = format;
  dci.grant.prb_len = prbs;
  dci.grant.mcs = mcs;
  dci.grant.tbs = tbs_bits;
  dci.is_retx = retx;
  return dci;
}

SlotResult make_slot(std::vector<DecodedDci> dcis,
                     SyncState state = SyncState::kTracking,
                     bool degraded = false) {
  SlotResult result;
  result.dcis = std::move(dcis);
  result.sync_state = state;
  result.degraded = degraded;
  return result;
}

TEST(FeatureExtractor, WindowSumsMatchNaiveRecompute) {
  const FeatureConfig cfg = cell_config();
  FeatureExtractor ex(cfg);
  const auto windows = ex.window_slots();
  ASSERT_EQ(windows,
            (std::array<std::uint64_t, 3>{200, 1000, kLongWindowSlots}));
  const Rnti rnti = kFirstTcRnti;
  const double slot_s = slot_duration_s(cfg.scs);

  // Deterministic but non-uniform activity: a DCI on slots where
  // slot % 3 != 2, with slot-dependent tbs/prbs/mcs.
  struct Naive {
    std::uint64_t bits = 0, prbs = 0, mcs = 0, dcis = 0;
  };
  std::vector<Naive> per_slot;
  // Past the long window, so every window has rolled over.
  for (std::uint64_t slot = 0; slot < kLongWindowSlots + 200; ++slot) {
    Naive n;
    if (slot % 3 != 2) {
      const unsigned tbs = 1000 + 100 * static_cast<unsigned>(slot % 7);
      const unsigned prbs = 2 + static_cast<unsigned>(slot % 5);
      const unsigned mcs = 5 + static_cast<unsigned>(slot % 11);
      ex.observe_slot(make_slot({make_dci(rnti, tbs, prbs, mcs)}));
      n = {tbs, prbs, mcs, 1};
    } else {
      ex.observe_slot(make_slot({}));
    }
    per_slot.push_back(n);

    const std::size_t i = ex.find(rnti);
    if (i == FeatureExtractor::npos) {
      continue;
    }
    FeatureVector x{};
    ex.features(i, x);
    for (std::size_t k = 0; k < 3; ++k) {
      Naive sum;
      const std::uint64_t n_slots =
          std::min<std::uint64_t>(per_slot.size(), windows[k]);
      for (std::uint64_t j = per_slot.size() - n_slots; j < per_slot.size();
           ++j) {
        sum.bits += per_slot[j].bits;
        sum.prbs += per_slot[j].prbs;
        sum.mcs += per_slot[j].mcs;
        sum.dcis += per_slot[j].dcis;
      }
      const double slots = static_cast<double>(n_slots);
      EXPECT_NEAR(x[5 * k + 0],
                  static_cast<double>(sum.bits) / (slots * slot_s) / 1e6,
                  1e-9)
          << "dl_mbps window " << k << " at slot " << slot;
      EXPECT_NEAR(x[5 * k + 1],
                  static_cast<double>(sum.mcs) /
                      static_cast<double>(std::max<std::uint64_t>(1,
                                                                  sum.dcis)),
                  1e-9)
          << "mcs_mean window " << k << " at slot " << slot;
      EXPECT_NEAR(x[5 * k + 2], static_cast<double>(sum.prbs) / slots, 1e-9)
          << "prb_rate window " << k << " at slot " << slot;
      EXPECT_NEAR(x[5 * k + 4], static_cast<double>(sum.dcis) / slots, 1e-9)
          << "dci_rate window " << k << " at slot " << slot;
    }
  }
  EXPECT_EQ(ex.evictions(), 0u);
}

TEST(FeatureExtractor, RetxCountedButExcludedFromBits) {
  FeatureExtractor ex(cell_config());
  const Rnti rnti = kFirstTcRnti;
  ex.observe_slot(make_slot({make_dci(rnti, 1000)}));
  ex.observe_slot(make_slot({make_dci(rnti, 1000, 4, 10, /*retx=*/true)}));
  const std::size_t i = ex.find(rnti);
  ASSERT_NE(i, FeatureExtractor::npos);
  EXPECT_EQ(ex.dl_bits_total(i), 1000u);  // the retx added nothing
  FeatureVector x{};
  ex.features(i, x);
  // Two DCIs in the window, one of them a retx.
  EXPECT_NEAR(x[3], 0.5, 1e-9);  // retx_rate_short = retx / dcis
}

TEST(FeatureExtractor, IgnoresBroadcastAndUplink) {
  FeatureExtractor ex(cell_config());
  // SI-RNTI-style (below the TC-RNTI range) and an uplink grant: neither
  // creates a UE.
  ex.observe_slot(make_slot({
      make_dci(0xFFFF, 1000),  // above kLastTcRnti
      make_dci(0x0010, 1000),  // below kFirstTcRnti
      make_dci(kFirstTcRnti, 1000, 4, 10, false, DciFormat::kUl0_1),
  }));
  EXPECT_EQ(ex.n_ues(), 0u);
}

TEST(FeatureExtractor, EvictsLongestSilentAndBumpsGeneration) {
  FeatureExtractor ex(cell_config());
  const Rnti a = kFirstTcRnti;
  const Rnti c = static_cast<Rnti>(kFirstTcRnti + kFeatureMaxUes);

  // a, then the other 63 UEs of a full table, each heard after a.
  ex.observe_slot(make_slot({make_dci(a, 1000)}));
  std::vector<DecodedDci> others;
  for (Rnti r = a + 1; r < c; ++r) {
    others.push_back(make_dci(r, 2000));
  }
  ex.observe_slot(make_slot(others));
  ex.observe_slot(make_slot(others));
  ASSERT_EQ(ex.n_ues(), kFeatureMaxUes);
  EXPECT_EQ(ex.evictions(), 0u);
  const std::size_t slot_a = ex.find(a);
  const std::uint64_t gen_a = ex.generation_at(slot_a);

  // Table full; c arrives; a (silent longest) is evicted in place.
  ex.observe_slot(make_slot({make_dci(c, 3000)}));
  EXPECT_EQ(ex.n_ues(), kFeatureMaxUes);
  EXPECT_EQ(ex.evictions(), 1u);
  EXPECT_EQ(ex.find(a), FeatureExtractor::npos);
  const std::size_t slot_c = ex.find(c);
  ASSERT_NE(slot_c, FeatureExtractor::npos);
  EXPECT_EQ(slot_c, slot_a) << "the evicted UE's rings are reused in place";
  EXPECT_GT(ex.generation_at(slot_c), gen_a);
  EXPECT_EQ(ex.dl_bits_total(slot_c), 3000u)
      << "the newcomer must not inherit the victim's counters";
  FeatureVector x{};
  ex.features(slot_c, x);
  const double slot_s = slot_duration_s(Scs::kHz30);
  EXPECT_NEAR(x[0], 3000.0 / (4.0 * slot_s) / 1e6, 1e-9)
      << "short window must only contain the newcomer's slot";
}

TEST(FeatureExtractor, BlindFractionTracksSyncState) {
  FeatureExtractor ex(cell_config());
  const Rnti rnti = kFirstTcRnti;
  ex.observe_slot(make_slot({make_dci(rnti, 1000)}));
  ex.observe_slot(make_slot({}, SyncState::kResync));
  ex.observe_slot(make_slot({}, SyncState::kTracking, /*degraded=*/true));
  ex.observe_slot(make_slot({}));
  const std::size_t i = ex.find(rnti);
  ASSERT_NE(i, FeatureExtractor::npos);
  FeatureVector x{};
  ex.features(i, x);
  // 2 blind slots (resync + degraded) of the 4 observed, all inside the
  // short window.
  EXPECT_NEAR(x[19], 0.5, 1e-9);
  // slots_since_dci counts from the next slot to observe: the DCI landed
  // on slot 0 and 4 slots have been folded in since.
  EXPECT_NEAR(x[18], 4.0, 1e-9);
}

TEST(FeatureExtractor, ConfigValidation) {
  FeatureConfig cfg = cell_config();
  cfg.n_prb = 0;
  EXPECT_TRUE(cfg.validate().has_value());
  EXPECT_THROW(FeatureExtractor{cfg}, std::invalid_argument);
  EXPECT_FALSE(cell_config().validate().has_value());
}

}  // namespace
}  // namespace nrs
