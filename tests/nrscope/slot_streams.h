// Shared helpers for tests that feed recorded slots to a pipeline and
// compare whole SlotResult streams.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "nrscope/nrscope.h"
#include "nrscope/pipeline.h"
#include "nrscope/slot_sink.h"

namespace nrs {

/// Keeps a copy of every delivered result, in delivery order.
class RecordingSink : public SlotSink {
 public:
  void on_slot(const SlotResult& result) override {
    results_.push_back(result);
  }

  std::vector<SlotResult> results_;
};

/// A pooled copy of one recorded slot, ready for either push.
inline BufferPool<IqBuffer>::Handle pooled_copy(NrScopePipeline& pipeline,
                                                const IqBuffer& samples) {
  auto handle = pipeline.acquire_samples();
  handle->assign(samples.begin(), samples.end());
  return handle;
}

/// Every field except the wall-clock processing time must match.
inline void expect_streams_identical(const std::vector<SlotResult>& a,
                                     const std::vector<SlotResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].slot, b[i].slot) << "slot " << i;
    EXPECT_EQ(a[i].dcis, b[i].dcis) << "slot " << i;
    EXPECT_EQ(a[i].new_ues, b[i].new_ues) << "slot " << i;
    EXPECT_EQ(a[i].mib, b[i].mib) << "slot " << i;
    EXPECT_EQ(a[i].sib1_decoded, b[i].sib1_decoded) << "slot " << i;
    EXPECT_EQ(a[i].sync_state, b[i].sync_state) << "slot " << i;
    EXPECT_EQ(a[i].degraded, b[i].degraded) << "slot " << i;
  }
}

}  // namespace nrs
