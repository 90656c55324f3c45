// Tests of NrScopeConfig::validate() (the constructors must reject
// nonsense values with a descriptive error instead of silently accepting
// them) and of the MetricsCsvSink serialization.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "nrscope/pipeline.h"
#include "nrscope/slot_sink.h"

namespace nrs {
namespace {

NrScopeConfig valid_config() {
  NrScopeConfig cfg;
  cfg.n_prb = 51;
  cfg.scs = Scs::kHz30;
  return cfg;
}

TEST(ConfigValidate, DefaultIsValid) {
  EXPECT_FALSE(valid_config().validate().has_value());
}

TEST(ConfigValidate, RejectsBadPrbCount) {
  auto cfg = valid_config();
  cfg.n_prb = 0;
  auto err = cfg.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("n_prb"), std::string::npos);
  cfg.n_prb = 11;  // smaller than the 12-PRB SSB window
  EXPECT_TRUE(cfg.validate().has_value());
  cfg.n_prb = 276;  // beyond the TS 38.101 maximum
  EXPECT_TRUE(cfg.validate().has_value());
}

TEST(ConfigValidate, RejectsSsbOutsideBand) {
  auto cfg = valid_config();
  cfg.ssb.prb_start = cfg.n_prb - 4;  // SSB window would overrun the band
  auto err = cfg.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("ssb"), std::string::npos);
}

TEST(ConfigValidate, RejectsZeroWindows) {
  auto cfg = valid_config();
  cfg.rate_window_slots = 0;
  ASSERT_TRUE(cfg.validate().has_value());
  cfg = valid_config();
  cfg.ue_inactivity_slots = 0;
  ASSERT_TRUE(cfg.validate().has_value());
}

TEST(ConfigValidate, RejectsBadSyncMonitorThresholds) {
  auto cfg = valid_config();
  cfg.sync.ssb_alpha = 0.0;  // EMA would never incorporate observations
  auto err = cfg.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("ssb_alpha"), std::string::npos);

  cfg = valid_config();
  cfg.sync.ssb_alpha = 1.5;
  EXPECT_TRUE(cfg.validate().has_value());

  cfg = valid_config();
  cfg.sync.ssb_weak_threshold = -0.1f;
  err = cfg.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("ssb_weak_threshold"), std::string::npos);

  cfg = valid_config();
  cfg.sync.ssb_weak_threshold = 1.5f;
  EXPECT_TRUE(cfg.validate().has_value());

  cfg = valid_config();
  cfg.sync.degraded_threshold = 1.5;
  err = cfg.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("degraded_threshold"), std::string::npos);
}

TEST(ConfigValidate, RejectsZeroSyncMonitorWindows) {
  auto cfg = valid_config();
  cfg.sync.ssb_fail_limit = 0;
  ASSERT_TRUE(cfg.validate().has_value());

  cfg = valid_config();
  cfg.sync.empty_slot_limit = 0;
  ASSERT_TRUE(cfg.validate().has_value());

  cfg = valid_config();
  cfg.sync.resync_grace_slots = 0;
  auto err = cfg.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("resync_grace_slots"), std::string::npos);
}

TEST(ConfigValidate, SyncMonitorNanRejected) {
  SyncMonitorConfig sync;
  sync.ssb_alpha = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(sync.validate().has_value());
  sync = SyncMonitorConfig{};
  sync.degraded_threshold = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(sync.validate().has_value());
}

TEST(ConfigValidate, ScopeConstructorThrowsOnInvalid) {
  auto cfg = valid_config();
  cfg.n_prb = 0;
  EXPECT_THROW(NrScope scope(cfg), std::invalid_argument);
}

TEST(ConfigValidate, PipelineConstructorThrowsOnInvalid) {
  auto cfg = valid_config();
  cfg.rate_window_slots = 0;
  EXPECT_THROW(NrScopePipeline pipeline(cfg), std::invalid_argument);
}

TEST(ConfigValidate, ValidConfigConstructs) {
  EXPECT_NO_THROW(NrScope scope(valid_config()));
}

TEST(MetricsCsvSink, WritesPeriodicSnapshots) {
  const std::string path = "/tmp/nrs_test_metrics_sink.csv";
  MetricsRegistry registry;
  Counter& decoded = registry.counter("test.dcis");
  {
    MetricsCsvSink sink(path, registry, /*period_slots=*/2);
    SlotResult result;
    for (std::uint64_t slot = 0; slot < 5; ++slot) {
      decoded.inc();
      result.slot = slot;
      sink.on_slot(result);
    }
    sink.on_finish();
  }
  std::ifstream in(path);
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_NE(header.find("slot,metric"), std::string::npos);
  std::size_t rows = 0;
  std::string row;
  std::string last;
  while (std::getline(in, row)) {
    ++rows;
    last = row;
  }
  // 2 periodic dumps (after slots 1 and 3) + 1 final dump, 1 metric each.
  EXPECT_EQ(rows, 3u);
  EXPECT_NE(last.find("4,test.dcis,counter,5"), std::string::npos);
  std::remove(path.c_str());
}

TEST(MetricsCsvSink, UnwritablePathThrows) {
  MetricsRegistry registry;
  EXPECT_THROW(MetricsCsvSink("/nonexistent/dir/m.csv", registry),
               std::runtime_error);
}

}  // namespace
}  // namespace nrs
