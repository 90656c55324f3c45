// Steady-state zero-allocation test (DESIGN.md "Hot-path memory
// discipline"): after warm-up, the tracking slot path — engine and full
// pipeline, 4 UEs, dedupe on — must not touch the heap at all.  The
// simulated substrate is held to the same rule: the virtual radio's
// capture allocates nothing, and the gNB's slot build allocates only for
// its ground-truth log.  And the wire decoder's memory is bounded by the
// bytes it is given and by a per-payload budget, not by a count a peer
// announces.
//
// This test lives in its own binary because it includes the counting
// operator new/delete shim, which may appear in exactly one translation
// unit per executable.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "analysis/prediction_sink.h"
#include "common/alloc_shim.h"
#include "gnb/gnb_sim.h"
#include "gnb/presets.h"
#include "net/wire.h"
#include "nrscope/pipeline.h"
#include "radio/virtual_radio.h"
#include "store/history_store.h"
#include "slot_streams.h"
#include "store/store_sink.h"
#include "ue/traffic.h"

namespace nrs {
namespace {

constexpr unsigned kUes = 4;
// A short telemetry rate window keeps the warm-up (which must span at
// least one full window so the per-UE sample rings stop growing) cheap.
constexpr std::uint64_t kRateWindow = 256;
constexpr unsigned kMeasuredSlots = 400;

struct Feed {
  CellConfig cell;
  std::vector<IqBuffer> history;  ///< power-on through tracking, 4 UEs
  std::vector<IqBuffer> replay;   ///< one frame of steady-state slots
};

const Feed& feed() {
  static const Feed f = [] {
    Feed feed;
    GnbConfig gnb_cfg;
    gnb_cfg.cell = amarisoft_cell();
    gnb_cfg.seed = 5;
    feed.cell = gnb_cfg.cell;
    GnbSim gnb(std::move(gnb_cfg));
    for (unsigned i = 0; i < kUes; ++i) {
      UeConfig ue;
      ue.channel.snr_db = 24.0;
      ue.dl_traffic = std::make_unique<CbrSource>(2e6);
      ue.seed = i + 1;
      gnb.add_ue(std::move(ue));
    }
    VirtualRadioConfig radio_cfg;
    radio_cfg.n_prb = feed.cell.n_prb;
    radio_cfg.channel.snr_db = 28.0;
    VirtualRadio radio(radio_cfg);

    NrScopeConfig probe_cfg;
    probe_cfg.n_prb = feed.cell.n_prb;
    probe_cfg.scs = feed.cell.scs;
    probe_cfg.rach.mode = RachTrackMode::kMsg2Assisted;
    NrScope probe(probe_cfg);
    const unsigned spf = slots_per_frame(feed.cell.scs);
    SlotResult result;
    for (unsigned i = 0; i < 4000; ++i) {
      feed.history.push_back(radio.capture(gnb.step()));
      probe.process_slot(feed.history.back(), result);
      if (probe.state() == NrScope::State::kTracking &&
          probe.known_ues().size() >= kUes &&
          feed.history.size() % spf == 0) {
        break;
      }
    }
    EXPECT_EQ(probe.state(), NrScope::State::kTracking);
    EXPECT_GE(probe.known_ues().size(), kUes);
    // Frame-aligned cyclic window, so frame-phase-dependent sequences
    // (DMRS, search-space hashing) line up on every replay pass.
    for (unsigned i = 0; i < spf; ++i) {
      feed.replay.push_back(radio.capture(gnb.step()));
    }
    return feed;
  }();
  return f;
}

NrScopeConfig scope_config(const CellConfig& cell) {
  NrScopeConfig cfg;
  cfg.n_prb = cell.n_prb;
  cfg.scs = cell.scs;
  cfg.rach.mode = RachTrackMode::kMsg2Assisted;
  cfg.ue_inactivity_slots = 1u << 30;
  cfg.rate_window_slots = kRateWindow;
  return cfg;
}

// Warm-up long enough for every grow-only container to hit steady
// capacity: one full telemetry rate window plus a few replay passes —
// rounded to whole passes, because the measured loop restarts at
// replay[0] and a partial pass would hand the engine a frame-phase
// discontinuity that the sync monitor (correctly) treats as a timing
// fault, taking the run off the steady-state path into a resync.
std::uint64_t warm_extra_slots(std::size_t replay_len) {
  const std::uint64_t passes =
      (kRateWindow + replay_len - 1) / replay_len + 3;
  return passes * replay_len;
}

TEST(AllocSteadyState, ShimIsCounting) {
  nrs::alloc::reset();
  {
    auto p = std::make_unique<std::vector<int>>(512);
    (*p)[0] = 1;
  }
  const auto totals = nrs::alloc::totals();
  EXPECT_TRUE(nrs::alloc::hooks_active());
  EXPECT_GE(totals.allocs, 1u);
  EXPECT_GE(totals.frees, 1u);
  EXPECT_GE(totals.bytes, 512u * sizeof(int));
}

TEST(AllocSteadyState, EngineSlotPathIsAllocationFree) {
  const Feed& f = feed();
  NrScope scope(scope_config(f.cell));
  SlotResult result;
  for (const auto& samples : f.history) {
    scope.process_slot(samples, result);
  }
  const std::uint64_t warm = warm_extra_slots(f.replay.size());
  for (std::uint64_t i = 0; i < warm; ++i) {
    scope.process_slot(f.replay[i % f.replay.size()], result);
  }
  ASSERT_EQ(scope.state(), NrScope::State::kTracking);
  ASSERT_GE(scope.known_ues().size(), kUes);

  nrs::alloc::reset();
  for (unsigned i = 0; i < kMeasuredSlots; ++i) {
    scope.process_slot(f.replay[i % f.replay.size()], result);
  }
  const auto totals = nrs::alloc::totals();
  EXPECT_TRUE(nrs::alloc::hooks_active());
  EXPECT_EQ(totals.allocs, 0u)
      << totals.bytes << " bytes over " << kMeasuredSlots << " slots";
  EXPECT_EQ(totals.frees, 0u);
}

class CountingSink : public SlotSink {
 public:
  void on_slot(const SlotResult&) override {
    delivered_.fetch_add(1, std::memory_order_release);
  }
  [[nodiscard]] std::uint64_t delivered() const {
    return delivered_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<std::uint64_t> delivered_{0};
};

// The feeder runs ahead of the engine thread, so pooled sample buffers sit
// in the input queue while the engine works.  Beyond 0 allocs/slot, the
// drain must hand every pooled buffer back — buffers_in_flight() == 0
// after stop().
TEST(AllocSteadyState, PipelineSlotPathIsAllocationFree) {
  const Feed& f = feed();
  NrScopePipeline pipeline(scope_config(f.cell));
  auto sink = std::make_shared<CountingSink>();
  pipeline.add_sink(sink);

  std::uint64_t fed = 0;
  for (const auto& samples : f.history) {
    pipeline.push_slot_wait(pooled_copy(pipeline, samples));
    ++fed;
  }
  const std::uint64_t warm = warm_extra_slots(f.replay.size());
  for (std::uint64_t i = 0; i < warm; ++i) {
    pipeline.push_slot_wait(
        pooled_copy(pipeline, f.replay[i % f.replay.size()]));
    ++fed;
  }
  while (sink->delivered() < fed) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  nrs::alloc::reset();
  for (unsigned i = 0; i < kMeasuredSlots; ++i) {
    pipeline.push_slot_wait(
        pooled_copy(pipeline, f.replay[i % f.replay.size()]));
    ++fed;
  }
  while (sink->delivered() < fed) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const auto totals = nrs::alloc::totals();
  EXPECT_TRUE(nrs::alloc::hooks_active());
  EXPECT_EQ(totals.allocs, 0u)
      << totals.bytes << " bytes over " << kMeasuredSlots << " slots";
  EXPECT_EQ(totals.frees, 0u);
  pipeline.stop();
  EXPECT_EQ(pipeline.buffers_in_flight(), 0u)
      << "pooled sample handles leaked across the drain";
}

// The history-store ingest path rides the same engine thread; with the
// sink attached and every series created during warm-up, steady-state
// appends (segment-ring writes + seqlock publishes) must stay off the
// heap — the ISSUE's "ingest within 5% AND still 0 allocs/slot" bar.
TEST(AllocSteadyState, PipelineWithHistoryStoreIsAllocationFree) {
  const Feed& f = feed();
  // The store outlives the pipeline whose engine thread appends into it.
  HistoryStore store;
  NrScopePipeline pipeline(scope_config(f.cell));
  StoreSinkConfig store_cfg;
  store_cfg.n_prb = f.cell.n_prb;
  auto store_sink = std::make_shared<HistoryStoreSink>(store, store_cfg);
  auto sink = std::make_shared<CountingSink>();
  pipeline.add_sink("store", store_sink);
  pipeline.add_sink("counter", sink);

  std::uint64_t fed = 0;
  for (const auto& samples : f.history) {
    pipeline.push_slot_wait(pooled_copy(pipeline, samples));
    ++fed;
  }
  const std::uint64_t warm = warm_extra_slots(f.replay.size());
  for (std::uint64_t i = 0; i < warm; ++i) {
    pipeline.push_slot_wait(
        pooled_copy(pipeline, f.replay[i % f.replay.size()]));
    ++fed;
  }
  while (sink->delivered() < fed) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_GT(store_sink->rows_written(), 0u);

  nrs::alloc::reset();
  const std::uint64_t rows_before = store_sink->rows_written();
  for (unsigned i = 0; i < kMeasuredSlots; ++i) {
    pipeline.push_slot_wait(
        pooled_copy(pipeline, f.replay[i % f.replay.size()]));
    ++fed;
  }
  while (sink->delivered() < fed) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const auto totals = nrs::alloc::totals();
  EXPECT_TRUE(nrs::alloc::hooks_active());
  EXPECT_GT(store_sink->rows_written(), rows_before)
      << "the measured window must actually ingest rows";
  EXPECT_EQ(totals.allocs, 0u)
      << totals.bytes << " bytes over " << kMeasuredSlots << " slots";
  EXPECT_EQ(totals.frees, 0u);
  pipeline.stop();
  EXPECT_EQ(pipeline.buffers_in_flight(), 0u)
      << "pooled sample handles leaked across the drain";
}

// The online-prediction path rides the engine thread too: feature
// extractor windows roll, forecasts are made every period and matured a
// horizon later, all inside on_slot().  With the sink attached (feature
// rings and the pending-forecast ring sized during warm-up) the steady
// state must stay allocation-free.
TEST(AllocSteadyState, PipelineWithPredictionSinkIsAllocationFree) {
  const Feed& f = feed();
  NrScopePipeline pipeline(scope_config(f.cell));

  auto predictor = std::make_shared<const ThroughputPredictor>(
      PredictorWeights::baseline(/*horizon_slots=*/200));
  PredictionSinkConfig pred_cfg;
  pred_cfg.features.scs = f.cell.scs;
  pred_cfg.features.n_prb = f.cell.n_prb;
  pred_cfg.period_slots = 40;
  auto pred_sink = std::make_shared<PredictionSink>(predictor, pred_cfg);
  auto sink = std::make_shared<CountingSink>();
  pipeline.add_sink("predict", pred_sink);
  pipeline.add_sink("counter", sink);

  std::uint64_t fed = 0;
  for (const auto& samples : f.history) {
    pipeline.push_slot_wait(pooled_copy(pipeline, samples));
    ++fed;
  }
  // Warm past the rate window AND one full forecast horizon, so the
  // measured window exercises maturation (scoring) as well as forecasting.
  const std::uint64_t warm =
      warm_extra_slots(f.replay.size()) +
      ((200 + f.replay.size() - 1) / f.replay.size()) * f.replay.size();
  for (std::uint64_t i = 0; i < warm; ++i) {
    pipeline.push_slot_wait(
        pooled_copy(pipeline, f.replay[i % f.replay.size()]));
    ++fed;
  }
  while (sink->delivered() < fed) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_GT(pred_sink->predictions_made(), 0u);
  ASSERT_GT(pred_sink->predictions_matured(), 0u);

  nrs::alloc::reset();
  const std::uint64_t matured_before = pred_sink->predictions_matured();
  for (unsigned i = 0; i < kMeasuredSlots; ++i) {
    pipeline.push_slot_wait(
        pooled_copy(pipeline, f.replay[i % f.replay.size()]));
    ++fed;
  }
  while (sink->delivered() < fed) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const auto totals = nrs::alloc::totals();
  EXPECT_TRUE(nrs::alloc::hooks_active());
  EXPECT_GT(pred_sink->predictions_matured(), matured_before)
      << "the measured window must actually score forecasts";
  EXPECT_EQ(totals.allocs, 0u)
      << totals.bytes << " bytes over " << kMeasuredSlots << " slots";
  EXPECT_EQ(totals.frees, 0u);
  pipeline.stop();
  EXPECT_EQ(pipeline.buffers_in_flight(), 0u)
      << "pooled sample handles leaked across the drain";
}

/// The payload bytes of `value` (no frame header).
template <class T>
std::vector<std::uint8_t> payload_bytes(const T& value) {
  WireWriter w;
  w(value);
  return w.take();
}

/// Heap allocations made inside `fn` (single-threaded callers only).
template <class Fn>
std::uint64_t allocs_during(Fn&& fn) {
  const std::uint64_t before = nrs::alloc::totals().allocs;
  fn();
  return nrs::alloc::totals().allocs - before;
}

GnbSim make_busy_gnb(unsigned n_ues) {
  GnbConfig gnb_cfg;
  gnb_cfg.cell = amarisoft_cell();
  gnb_cfg.seed = 9;
  GnbSim gnb(std::move(gnb_cfg));
  for (unsigned i = 0; i < n_ues; ++i) {
    UeConfig ue;
    ue.channel.snr_db = 24.0;
    ue.channel.seed = 100 + i;
    ue.dl_traffic = std::make_unique<CbrSource>(2e6);
    ue.ul_traffic = std::make_unique<CbrSource>(0.5e6);
    ue.seed = i + 1;
    gnb.add_ue(std::move(ue));
  }
  return gnb;
}

// The channel (fading FIR in place, counter-based AWGN), OFDM modulator
// and AGC reuse the caller's buffer: 0 allocations per capture, with and
// without multipath.
TEST(AllocSteadyState, VirtualRadioCaptureIsAllocationFree) {
  for (ChannelProfile profile :
       {ChannelProfile::kAwgn, ChannelProfile::kPedestrian}) {
    GnbSim gnb = make_busy_gnb(4);
    VirtualRadioConfig radio_cfg;
    radio_cfg.n_prb = gnb.cell().n_prb;
    radio_cfg.channel.profile = profile;
    radio_cfg.channel.snr_db = 28.0;
    VirtualRadio radio(radio_cfg);
    IqBuffer samples;
    for (unsigned i = 0; i < 100; ++i) {
      radio.capture_into(gnb.step(), samples);
    }
    std::uint64_t allocs = 0;
    for (unsigned i = 0; i < 1000; ++i) {
      const ResourceGrid& grid = gnb.step();
      allocs += allocs_during([&] { radio.capture_into(grid, samples); });
    }
    EXPECT_EQ(allocs, 0u) << to_string(profile) << ": over 1000 captures";
  }
}

// The gNB's encoders write into scratch it owns; what remains per slot is
// the ground-truth log (one SlotTruth plus its DCI vector growth).
TEST(AllocSteadyState, GnbStepAllocatesOnlyForItsTruthLog) {
  GnbSim gnb = make_busy_gnb(16);
  for (unsigned i = 0; i < 2000; ++i) {
    (void)gnb.step();
  }
  ASSERT_EQ(gnb.connected_rntis().size(), 16u);
  constexpr unsigned kSlots = 1000;
  const std::uint64_t allocs = allocs_during([&] {
    for (unsigned i = 0; i < kSlots; ++i) {
      (void)gnb.step();
    }
  });
  EXPECT_LE(static_cast<double>(allocs) / kSlots, 10.0)
      << allocs << " allocations over " << kSlots << " slots";
}

// Re-encodes `T` with the count of its vector `member` claiming 2^20
// elements, followed by 1 MiB of zero filler, and checks that decoding it
// fails having allocated at most 2 MiB in total.
template <class T, class E>
void expect_count_cannot_force_allocation(std::vector<E> T::*member,
                                          const E& element, const char* what) {
  T value{};
  (value.*member).assign(2, element);
  const std::vector<std::uint8_t> two = payload_bytes(value);
  (value.*member).assign(1, element);
  std::vector<std::uint8_t> bytes = payload_bytes(value);
  ASSERT_TRUE(decode_payload<T>(bytes).has_value()) << what;
  // The two encodings first differ at the count's low byte.
  const auto at = static_cast<std::size_t>(
      std::mismatch(bytes.begin(), bytes.end(), two.begin()).first -
      bytes.begin());
  ASSERT_EQ(bytes.at(at), 1) << what;
  constexpr std::uint32_t kClaimed = 1u << 20;
  for (std::size_t i = 0; i < 4; ++i) {
    bytes.at(at + i) = static_cast<std::uint8_t>(kClaimed >> (8 * i));
  }
  bytes.resize(bytes.size() + (1u << 20));

  const std::uint64_t before = nrs::alloc::totals().bytes;
  const bool decoded = decode_payload<T>(bytes).has_value();
  const std::uint64_t allocated = nrs::alloc::totals().bytes - before;
  EXPECT_FALSE(decoded) << what;
  EXPECT_LE(allocated, 2u << 20) << what;
}

// A decoder reserves no more than the bytes left could hold, so a hostile
// count costs at most about the payload's own size, whatever it claims.
TEST(AllocSteadyState, WireCountCannotForceAllocation) {
  ASSERT_TRUE(nrs::alloc::hooks_active());
  expect_count_cannot_force_allocation(&SlotResult::dcis, DecodedDci{},
                                       "SlotResult::dcis");
  expect_count_cannot_force_allocation(&SlotResult::new_ues, NewUe{},
                                       "SlotResult::new_ues");
  expect_count_cannot_force_allocation(&MetricsSnapshot::counters,
                                       CounterSnapshot{},
                                       "MetricsSnapshot::counters");
  expect_count_cannot_force_allocation(&MetricsSnapshot::gauges,
                                       GaugeSnapshot{},
                                       "MetricsSnapshot::gauges");
  HistogramSnapshot histogram;
  histogram.counts = {0};  // one bucket per bound, plus the overflow
  expect_count_cannot_force_allocation(&MetricsSnapshot::histograms,
                                       histogram,
                                       "MetricsSnapshot::histograms");
  expect_count_cannot_force_allocation(&FleetSummary::spare_ranking,
                                       std::uint32_t{0},
                                       "FleetSummary::spare_ranking");
  expect_count_cannot_force_allocation(&FleetSummary::cells, CellSummary{},
                                       "FleetSummary::cells");
  expect_count_cannot_force_allocation(&QueryResponse::rows, QueryRowWire{},
                                       "QueryResponse::rows");
  expect_count_cannot_force_allocation(&QueryResponse::buckets,
                                       QueryBucket{}, "QueryResponse::buckets");
  expect_count_cannot_force_allocation(&QueryResponse::ranking, TopKEntry{},
                                       "QueryResponse::ranking");
  expect_count_cannot_force_allocation(&WorkerHeartbeat::leases,
                                       LeaseStatus{},
                                       "WorkerHeartbeat::leases");
  expect_count_cannot_force_allocation(&CellReportBatch::reports,
                                       CellReport{},
                                       "CellReportBatch::reports");
  expect_count_cannot_force_allocation(&PredictionSet::entries,
                                       PredictionEntry{},
                                       "PredictionSet::entries");
  expect_count_cannot_force_allocation(&ReplicaSnapshot::workers,
                                       ReplicaWorker{},
                                       "ReplicaSnapshot::workers");
  expect_count_cannot_force_allocation(&ReplicaSnapshot::cells, ReplicaCell{},
                                       "ReplicaSnapshot::cells");
  expect_count_cannot_force_allocation(&ReplicaEvent::rows, StoreRowUpdate{},
                                       "ReplicaEvent::rows");
}

// A count that the bytes can hold is still no licence to allocate: an
// empty-name counter takes 10 bytes on the wire and 40 in memory, so a
// well-formed payload of kWireMaxPayload / 32 of them (a third of the
// largest payload) would decode into more memory than the largest payload
// holds.  The reader refuses it before reserving anything.
TEST(AllocSteadyState, WirePayloadCannotDecodeBeyondItsBudget) {
  ASSERT_TRUE(nrs::alloc::hooks_active());
  MetricsSnapshot snapshot;
  snapshot.counters.resize(1);
  std::vector<std::uint8_t> bytes = payload_bytes(snapshot);
  ASSERT_TRUE(decode_payload<MetricsSnapshot>(bytes).has_value());
  // The counters come first: a u32 count, then 10 zero bytes per counter.
  constexpr std::uint32_t kCounters = kWireMaxPayload / 32;
  for (std::size_t i = 0; i < 4; ++i) {
    bytes.at(i) = static_cast<std::uint8_t>(kCounters >> (8 * i));
  }
  bytes.insert(bytes.begin() + 4, std::size_t{kCounters - 1} * 10, 0);

  const std::uint64_t before = nrs::alloc::totals().bytes;
  const bool decoded = decode_payload<MetricsSnapshot>(bytes).has_value();
  const std::uint64_t allocated = nrs::alloc::totals().bytes - before;
  EXPECT_FALSE(decoded);
  EXPECT_LE(allocated, 1u << 20) << "of a " << bytes.size()
                                 << "-byte payload";
}

}  // namespace
}  // namespace nrs
