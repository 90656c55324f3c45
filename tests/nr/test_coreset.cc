#include "nr/coreset.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "common/rng.h"

namespace nrs {
namespace {

CoresetConfig make_coreset(bool interleaved = true) {
  CoresetConfig c;
  c.id = 1;
  c.rb_start = 2;
  c.n_prb = 48;
  c.duration = 2;
  c.interleaved = interleaved;
  c.reg_bundle_size = 6;
  c.interleaver_rows = 2;
  c.shift = 42;
  return c;
}

TEST(Coreset, CceCount) {
  const CoresetConfig c = make_coreset();
  EXPECT_EQ(c.n_reg(), 96u);
  EXPECT_EQ(c.n_cce(), 16u);
}

TEST(Coreset, RegsPerAggregationLevel) {
  const CoresetConfig c = make_coreset();
  for (unsigned level : {1u, 2u, 4u, 8u, 16u}) {
    const auto regs = cce_to_regs(c, 0, level);
    EXPECT_EQ(regs.size(), level * kRegsPerCce);
  }
}

TEST(Coreset, RegsStayInsideCoreset) {
  const CoresetConfig c = make_coreset();
  const auto regs = cce_to_regs(c, 4, 8);
  for (const auto& reg : regs) {
    EXPECT_GE(reg.prb, c.rb_start);
    EXPECT_LT(reg.prb, c.rb_start + c.n_prb);
    EXPECT_LT(reg.symbol, c.duration);
  }
}

TEST(Coreset, DistinctCcesDoNotOverlap) {
  const CoresetConfig c = make_coreset();
  std::set<std::pair<unsigned, unsigned>> seen;
  for (unsigned cce = 0; cce < c.n_cce(); ++cce) {
    for (const auto& reg : cce_to_regs(c, cce, 1)) {
      const auto [it, inserted] = seen.insert({reg.prb, reg.symbol});
      EXPECT_TRUE(inserted) << "REG reused: prb=" << reg.prb
                            << " sym=" << reg.symbol;
    }
  }
  EXPECT_EQ(seen.size(), c.n_reg());
}

TEST(Coreset, InterleavingSpreadsFrequency) {
  // An interleaved multi-CCE candidate should span a wider PRB range than
  // the contiguous non-interleaved mapping (one CCE is a single bundle, so
  // the effect only shows at aggregation level >= 2).
  auto prb_span = [](const CoresetConfig& c) {
    unsigned lo = 1000000;
    unsigned hi = 0;
    for (const auto& reg : cce_to_regs(c, 0, 4)) {
      lo = std::min(lo, reg.prb);
      hi = std::max(hi, reg.prb);
    }
    return hi - lo;
  };
  EXPECT_GT(prb_span(make_coreset(true)), prb_span(make_coreset(false)));
}

TEST(Coreset, OutOfRangeCceThrows) {
  const CoresetConfig c = make_coreset();
  EXPECT_THROW(cce_to_regs(c, 15, 2), std::invalid_argument);
  EXPECT_THROW(cce_to_regs(c, 0, 32), std::invalid_argument);
}

TEST(Coreset, NonMultipleOf6Throws) {
  CoresetConfig c = make_coreset();
  c.n_prb = 47;
  EXPECT_THROW(cce_to_regs(c, 0, 1), std::invalid_argument);
}

TEST(SearchSpace, CommonCandidatesIgnoreRnti) {
  const CoresetConfig c = make_coreset();
  SearchSpaceConfig ss{/*ue_specific=*/false, {4}, 2};
  const SlotPoint slot{Scs::kHz30, 3, 7};
  const auto a = pdcch_candidates(c, ss, 4, slot, 0x4601);
  const auto b = pdcch_candidates(c, ss, 4, slot, 0x9999);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

TEST(SearchSpace, UeCandidatesDependOnRntiAndSlot) {
  const CoresetConfig c = make_coreset();
  SearchSpaceConfig ss{/*ue_specific=*/true, {1}, 4};
  const SlotPoint slot1{Scs::kHz30, 0, 1};
  const SlotPoint slot2{Scs::kHz30, 0, 2};
  const auto a = pdcch_candidates(c, ss, 1, slot1, 0x4601);
  const auto b = pdcch_candidates(c, ss, 1, slot1, 0x4602);
  const auto d = pdcch_candidates(c, ss, 1, slot2, 0x4601);
  EXPECT_TRUE(a != b || a != d) << "hashing should move candidates";
}

TEST(SearchSpace, CandidatesAreAlignedAndInRange) {
  const CoresetConfig c = make_coreset();
  SearchSpaceConfig ss{/*ue_specific=*/true, {1, 2, 4, 8}, 4};
  const SlotPoint slot{Scs::kHz30, 5, 11};
  for (unsigned level : ss.agg_levels) {
    for (unsigned cce : pdcch_candidates(c, ss, level, slot, 0x4711)) {
      EXPECT_EQ(cce % level, 0u);
      EXPECT_LE(cce + level, c.n_cce());
    }
  }
}

TEST(SearchSpace, OversizedLevelYieldsNothing) {
  const CoresetConfig c = make_coreset();
  SearchSpaceConfig ss{/*ue_specific=*/true, {32}, 2};
  const SlotPoint slot{Scs::kHz30, 0, 0};
  EXPECT_TRUE(pdcch_candidates(c, ss, 32, slot, 0x4601).empty());
}

TEST(SearchSpace, HashMatchesRecurrence) {
  // Y_ns = (A_p * Y_{ns-1}) mod 65537 with Y_{-1} = RNTI (TS 38.213 10.1),
  // A_p = 39827, 39829, 39839 for p = id mod 3, at every slot of every
  // numerology's frame.
  constexpr std::uint64_t kA[3] = {39827, 39829, 39839};
  Rng rng(128);
  std::vector<Rnti> rntis = {1, 0x4601, 0xFFFF};
  for (int r = 0; r < 8; ++r) {
    rntis.push_back(static_cast<Rnti>(rng.uniform_int(1, 0xFFFF)));
  }
  for (const Scs scs : {Scs::kHz15, Scs::kHz30, Scs::kHz60}) {
    for (unsigned id = 0; id < 3; ++id) {
      for (const Rnti rnti : rntis) {
        std::uint64_t y = rnti;
        for (std::uint32_t ns = 0; ns < slots_per_frame(scs); ++ns) {
          y = (kA[id] * y) % 65537ull;
          const SlotPoint slot{scs, 7, ns};
          ASSERT_EQ(pdcch_hash_y(id, slot, rnti), y)
              << to_string(scs) << " p=" << id << " RNTI " << rnti
              << " slot " << ns;
        }
      }
    }
  }
}

TEST(SearchSpace, ZeroRntiHashIsZero) {
  const SlotPoint slot{Scs::kHz30, 0, 5};
  EXPECT_EQ(pdcch_hash_y(0, slot, 0), 0u);
}

}  // namespace
}  // namespace nrs
