#include "ue/traffic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.h"

namespace nrs {
namespace {

TEST(Traffic, FullBufferNeverEmpties) {
  FullBufferSource source;
  source.advance(1.0);
  EXPECT_TRUE(source.is_full_buffer());
  EXPECT_GT(source.backlog_bytes(), 1u << 20);
  (void)source.drain(500000);
  source.advance(2.0);
  EXPECT_GT(source.backlog_bytes(), 1u << 20);
}

TEST(Traffic, CbrRateIsAccurate) {
  CbrSource source(8e6);  // 1 MB/s
  source.advance(2.0);
  EXPECT_NEAR(static_cast<double>(source.backlog_bytes()), 2e6, 2e4);
}

TEST(Traffic, CbrPacketization) {
  CbrSource source(8e6, 1000);
  source.advance(0.01);  // 10 KB -> 10 packets
  const DrainResult r = source.drain(100000);
  EXPECT_EQ(r.packets_completed, 10u);
  EXPECT_EQ(r.bytes, 10000u);
}

TEST(Traffic, DrainPartialPacket) {
  CbrSource source(8e6, 1000);
  source.advance(0.001);  // one packet
  DrainResult r = source.drain(400);
  EXPECT_EQ(r.bytes, 400u);
  EXPECT_EQ(r.packets_completed, 0u);  // 600 bytes still pending
  r = source.drain(10000);
  EXPECT_EQ(r.bytes, 600u);
  EXPECT_EQ(r.packets_completed, 1u);
}

TEST(Traffic, AdvanceIsMonotone) {
  CbrSource source(8e6);
  source.advance(1.0);
  const std::size_t backlog = source.backlog_bytes();
  source.advance(0.5);  // going backwards must be a no-op
  EXPECT_EQ(source.backlog_bytes(), backlog);
}

TEST(Traffic, VideoOnOffPattern) {
  VideoSource source(4e6, 1, 30.0, /*on_s=*/1.0, /*off_s=*/1.0);
  source.advance(1.0);  // the "on" second
  const std::size_t after_on = source.backlog_bytes();
  EXPECT_GT(after_on, 300000u);  // ~ 500 KB at 4 Mbit/s
  source.advance(2.0);  // the "off" second adds nothing
  EXPECT_EQ(source.backlog_bytes(), after_on);
  source.advance(2.5);  // back on
  EXPECT_GT(source.backlog_bytes(), after_on);
}

TEST(Traffic, DownloadBurstsThenIdles) {
  FileDownloadSource source(100000, 10.0, 3);
  source.advance(0.01);
  EXPECT_GE(source.backlog_bytes(), 100000u);
  const std::size_t first = source.backlog_bytes();
  source.advance(1.0);  // within think time
  EXPECT_EQ(source.backlog_bytes(), first);
}

TEST(Traffic, PoissonMeanRate) {
  PoissonSource source(100.0, 1000, 7);  // ~100 KB/s
  source.advance(10.0);
  EXPECT_NEAR(static_cast<double>(source.backlog_bytes()), 1e6, 3e5);
}

TEST(Traffic, PoissonDeterministicPerSeed) {
  PoissonSource a(50.0, 800, 42);
  PoissonSource b(50.0, 800, 42);
  a.advance(1.0);
  b.advance(1.0);
  EXPECT_EQ(a.backlog_bytes(), b.backlog_bytes());
}

TEST(Traffic, BacklogFollowsEnqueueAndDrain) {
  std::vector<std::unique_ptr<TrafficSource>> sources;
  sources.push_back(std::make_unique<FullBufferSource>());
  sources.push_back(std::make_unique<CbrSource>(4e6, 700));
  sources.push_back(std::make_unique<VideoSource>(6e6, 3));
  sources.push_back(std::make_unique<FileDownloadSource>(300000, 0.05, 4));
  sources.push_back(std::make_unique<PoissonSource>(800.0, 900, 5));
  Rng rng(17);
  for (auto& source : sources) {
    double now = 0.0;
    for (int step = 0; step < 400; ++step) {
      const std::size_t before_advance = source->backlog_bytes();
      now += rng.uniform(0.0, 0.01);
      source->advance(now);
      ASSERT_GE(source->backlog_bytes(), before_advance) << source->name();
      for (int k = 0; k < 3; ++k) {
        const std::size_t before = source->backlog_bytes();
        const auto ask = static_cast<std::size_t>(rng.uniform_int(0, 20000));
        const DrainResult r = source->drain(ask);
        ASSERT_EQ(r.bytes, std::min(ask, before)) << source->name();
        ASSERT_EQ(source->backlog_bytes(), before - r.bytes)
            << source->name();
      }
    }
    // The running count is what the queue holds: draining it all takes
    // exactly that many bytes and leaves nothing.
    const std::size_t backlog = source->backlog_bytes();
    EXPECT_EQ(source->drain(backlog + 12345).bytes, backlog) << source->name();
    EXPECT_EQ(source->backlog_bytes(), 0u) << source->name();
  }
}

}  // namespace
}  // namespace nrs
