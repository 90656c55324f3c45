#include "gnb/scheduler.h"

#include <gtest/gtest.h>

namespace nrs {
namespace {

SchedRequest request(Rnti rnti, std::size_t backlog, double snr = 20.0,
                     bool full = false) {
  SchedRequest r;
  r.rnti = rnti;
  r.backlog_bytes = backlog;
  r.snr_db = snr;
  r.full_buffer = full;
  return r;
}

TEST(Scheduler, EmptyRequestsYieldNothing) {
  EXPECT_TRUE(schedule_tti({}, 51, McsTable::kQam64, 0).empty());
}

TEST(Scheduler, IdleUesSkipped) {
  std::vector<SchedRequest> reqs = {request(1, 0), request(2, 5000)};
  const auto d = schedule_tti(reqs, 51, McsTable::kQam64, 0);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].rnti, 2u);
}

TEST(Scheduler, AllocationsAreDisjointAndInRange) {
  std::vector<SchedRequest> reqs;
  for (Rnti r = 1; r <= 6; ++r) {
    reqs.push_back(request(r, 100000));
  }
  const auto d = schedule_tti(reqs, 51, McsTable::kQam64, 3);
  ASSERT_EQ(d.size(), 6u);
  unsigned total = 0;
  unsigned expected_start = 0;
  for (const auto& dec : d) {
    EXPECT_EQ(dec.prb_start, expected_start);
    expected_start += dec.prb_len;
    total += dec.prb_len;
  }
  EXPECT_LE(total, 51u);
}

TEST(Scheduler, SmallBacklogGetsSmallAllocation) {
  std::vector<SchedRequest> reqs = {request(1, 200, 25.0)};
  const auto d = schedule_tti(reqs, 51, McsTable::kQam64, 0);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_LE(d[0].prb_len, 3u);
}

TEST(Scheduler, FullBufferTakesWholeBandAlone) {
  std::vector<SchedRequest> reqs = {request(1, 0, 20.0, true)};
  const auto d = schedule_tti(reqs, 51, McsTable::kQam64, 0);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].prb_len, 51u);
}

TEST(Scheduler, TwoFullBuffersSplitEvenly) {
  // The paper's Fig. 14 premise: two saturating UEs get equal shares.
  std::vector<SchedRequest> reqs = {request(1, 0, 20.0, true),
                                    request(2, 0, 20.0, true)};
  const auto d = schedule_tti(reqs, 50, McsTable::kQam64, 0);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0].prb_len, 25u);
  EXPECT_EQ(d[1].prb_len, 25u);
}

TEST(Scheduler, RoundRobinRotates) {
  std::vector<SchedRequest> reqs = {request(1, 1u << 20),
                                    request(2, 1u << 20),
                                    request(3, 1u << 20)};
  const auto d0 = schedule_tti(reqs, 51, McsTable::kQam64, 0);
  const auto d1 = schedule_tti(reqs, 51, McsTable::kQam64, 1);
  ASSERT_FALSE(d0.empty());
  ASSERT_FALSE(d1.empty());
  EXPECT_NE(d0[0].rnti, d1[0].rnti);
}

TEST(Scheduler, McsTracksSnr) {
  std::vector<SchedRequest> reqs = {request(1, 1u << 20, 2.0),
                                    request(2, 1u << 20, 28.0)};
  const auto d = schedule_tti(reqs, 51, McsTable::kQam64, 0);
  ASSERT_EQ(d.size(), 2u);
  unsigned mcs_low = 0;
  unsigned mcs_high = 0;
  for (const auto& dec : d) {
    (dec.rnti == 1 ? mcs_low : mcs_high) = dec.mcs;
  }
  EXPECT_LT(mcs_low, mcs_high);
}

}  // namespace
}  // namespace nrs
