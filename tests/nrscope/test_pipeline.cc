// Tests of the Fig.-4 asynchronous pipeline, its SlotSink output API, the
// stage metrics, and the log writer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "gnb/gnb_sim.h"
#include "gnb/presets.h"
#include "nrscope/log_writer.h"
#include "nrscope/pipeline.h"
#include "nrscope/slot_sink.h"
#include "radio/virtual_radio.h"
#include "slot_streams.h"

namespace nrs {
namespace {

struct CapturedRun {
  std::vector<IqBuffer> slots;
  CellConfig cell;
};

/// Capture a short run once; shared across the pipeline tests.
const CapturedRun& captured_run() {
  static const CapturedRun run = [] {
    CapturedRun r;
    r.cell = srsran_cell();
    GnbConfig cfg;
    cfg.cell = r.cell;
    cfg.seed = 31;
    GnbSim gnb(std::move(cfg));
    UeConfig ue;
    ue.channel.snr_db = 24.0;
    ue.dl_traffic = std::make_unique<CbrSource>(2e6);
    ue.seed = 1;
    gnb.add_ue(std::move(ue));
    VirtualRadioConfig radio_cfg;
    radio_cfg.n_prb = r.cell.n_prb;
    radio_cfg.channel.snr_db = 26.0;
    VirtualRadio radio(radio_cfg);
    for (int i = 0; i < 400; ++i) {
      r.slots.push_back(radio.capture(gnb.step()));
    }
    return r;
  }();
  return run;
}

NrScopeConfig scope_config(const CellConfig& cell) {
  NrScopeConfig cfg;
  cfg.n_prb = cell.n_prb;
  cfg.scs = cell.scs;
  return cfg;
}

/// Minimal consumer: counts slots and DCIs, tracks ordering.
class CountingSink : public SlotSink {
 public:
  void on_slot(const SlotResult& result) override {
    in_order_ = in_order_ && result.slot == slots_;
    ++slots_;
    dcis_ += result.dcis.size();
  }
  void on_finish() override { ++finished_; }

  // Atomic: some tests poll the count from the feeding thread while the
  // collector is still delivering.
  std::atomic<std::uint64_t> slots_{0};
  std::uint64_t dcis_ = 0;
  int finished_ = 0;
  bool in_order_ = true;
};

/// Push every slot, waiting while the input queue is full.
void feed_all(NrScopePipeline& pipeline, const std::vector<IqBuffer>& slots) {
  for (const auto& slot : slots) {
    pipeline.push_slot_wait(pooled_copy(pipeline, slot));
  }
}

TEST(Pipeline, ProcessesAllSlotsInOrder) {
  const CapturedRun& run = captured_run();
  NrScopePipeline pipeline(scope_config(run.cell));
  auto sink = std::make_shared<RecordingSink>();
  pipeline.add_sink(sink);
  feed_all(pipeline, run.slots);
  pipeline.stop();
  ASSERT_EQ(sink->results_.size(), run.slots.size());
  for (std::size_t i = 0; i < sink->results_.size(); ++i) {
    EXPECT_EQ(sink->results_[i].slot, i);
  }
}

/// A sixteen-UE Amarisoft cell on Pedestrian fading, regenerated from the
/// same seeds for every run so no capture has to be held in memory.
class PedestrianCell {
 public:
  PedestrianCell() {
    GnbConfig cfg;
    cfg.cell = amarisoft_cell();
    cfg.seed = 41;
    gnb_ = std::make_unique<GnbSim>(std::move(cfg));
    for (unsigned u = 0; u < 16; ++u) {
      UeConfig ue;
      ue.id = u;
      ue.channel.profile = ChannelProfile::kPedestrian;
      ue.channel.snr_db = 18.0 + (u % 4);
      ue.channel.seed = 500 + u;
      ue.dl_traffic = std::make_unique<CbrSource>(1e6);
      ue.ul_traffic = std::make_unique<CbrSource>(2.5e5);
      ue.seed = 600 + u;
      gnb_->add_ue(std::move(ue));
    }
    VirtualRadioConfig radio_cfg;
    radio_cfg.n_prb = gnb_->cell().n_prb;
    radio_cfg.channel.profile = ChannelProfile::kPedestrian;
    radio_cfg.channel.snr_db = 28.0;
    radio_cfg.channel.seed = 700;
    radio_ = std::make_unique<VirtualRadio>(radio_cfg);
  }

  [[nodiscard]] const CellConfig& cell() const { return gnb_->cell(); }
  void next(IqBuffer& out) { radio_->capture_into(gnb_->step(), out); }

 private:
  std::unique_ptr<GnbSim> gnb_;
  std::unique_ptr<VirtualRadio> radio_;
};

TEST(Pipeline, MatchesSynchronousEngine) {
  constexpr unsigned kSlots = 1200;
  // Synchronous reference.
  PedestrianCell ref_cell;
  NrScope reference(scope_config(ref_cell.cell()));
  std::vector<SlotResult> expected(kSlots);
  std::size_t n_dcis = 0;
  IqBuffer samples;
  for (SlotResult& result : expected) {
    ref_cell.next(samples);
    reference.process_slot(samples, result);
    n_dcis += result.dcis.size();
  }
  EXPECT_GT(n_dcis, 1000u) << "the run must decode real traffic";
  EXPECT_EQ(reference.known_ues().size(), 16u);

  // Pipelined, with a queue short enough that the feeder keeps waiting on
  // the engine thread: the hand-off must not change a single field.
  PedestrianCell cell;
  NrScopePipeline pipeline(scope_config(cell.cell()), /*queue_depth=*/2);
  auto sink = std::make_shared<RecordingSink>();
  pipeline.add_sink(sink);
  for (unsigned i = 0; i < kSlots; ++i) {
    auto samples = pipeline.acquire_samples();
    cell.next(*samples);
    pipeline.push_slot_wait(std::move(samples));
  }
  pipeline.stop();
  expect_streams_identical(sink->results_, expected);
  EXPECT_EQ(pipeline.engine().known_ues(), reference.known_ues());
}

TEST(Pipeline, SaturationDropsInsteadOfBlocking) {
  const CapturedRun& run = captured_run();
  NrScopePipeline pipeline(scope_config(run.cell), /*queue_depth=*/2);
  auto sink = std::make_shared<CountingSink>();
  pipeline.add_sink(sink);
  unsigned accepted = 0;
  for (const auto& slot : run.slots) {
    accepted += pipeline.push_slot(pooled_copy(pipeline, slot));
  }
  pipeline.stop();
  EXPECT_EQ(sink->slots_, accepted);
  // The drop reason is recorded in the metrics: all of these drops came
  // from a saturated queue, none from pushing after stop().
  const MetricsSnapshot snap = pipeline.metrics();
  const std::uint64_t dropped =
      snap.counter_value("pipeline.slots_dropped.queue_full");
  EXPECT_EQ(dropped + accepted, run.slots.size());
  EXPECT_GT(dropped, 0u) << "burst must shed load";
  EXPECT_EQ(snap.counter_value("pipeline.slots_dropped.finished"), 0u);
  EXPECT_EQ(snap.counter_value("pipeline.slots_pushed"), accepted);
}

TEST(Pipeline, PushAfterFinishRecordsFinishedDrop) {
  const CapturedRun& run = captured_run();
  NrScopePipeline pipeline(scope_config(run.cell));
  pipeline.stop();
  EXPECT_FALSE(pipeline.push_slot(pooled_copy(pipeline, run.slots[0])));
  // The waiting push does not wait on a stopped pipeline: it refuses.
  EXPECT_FALSE(pipeline.push_slot_wait(pooled_copy(pipeline, run.slots[0])));
  const MetricsSnapshot snap = pipeline.metrics();
  EXPECT_EQ(snap.counter_value("pipeline.slots_dropped.finished"), 2u);
  EXPECT_EQ(snap.counter_value("pipeline.slots_dropped.queue_full"), 0u);
  EXPECT_EQ(snap.counter_value("pipeline.slots_pushed"), 0u);
  EXPECT_EQ(pipeline.buffers_in_flight(), 0u);
}

TEST(Pipeline, LogWriterWorksAsSink) {
  const CapturedRun& run = captured_run();
  const std::string path = "/tmp/nrs_test_sink_log.csv";
  std::uint64_t dcis = 0;
  {
    NrScopePipeline pipeline(scope_config(run.cell));
    auto writer = std::make_shared<TelemetryLogWriter>(path);
    auto counter = std::make_shared<CountingSink>();
    pipeline.add_sink(writer);
    pipeline.add_sink(counter);
    feed_all(pipeline, run.slots);
    pipeline.stop();
    dcis = counter->dcis_;
  }
  std::ifstream in(path);
  std::string line;
  std::uint64_t rows = 0;
  ASSERT_TRUE(std::getline(in, line));  // header
  while (std::getline(in, line)) {
    ++rows;
  }
  EXPECT_EQ(rows, dcis) << "one CSV row per decoded DCI";
  EXPECT_GT(rows, 0u);
  std::remove(path.c_str());
}

/// A sink that throws after a configurable number of slots (0 = throw on
/// the first slot), and always throws from on_finish.
class ThrowingSink : public SlotSink {
 public:
  explicit ThrowingSink(std::uint64_t throw_after = 0)
      : throw_after_(throw_after) {}
  void on_slot(const SlotResult&) override {
    if (seen_++ >= throw_after_) {
      throw std::runtime_error("sink failure");
    }
  }
  void on_finish() override { throw std::runtime_error("finish failure"); }

 private:
  std::uint64_t throw_after_;
  std::uint64_t seen_ = 0;
};

TEST(Pipeline, ThrowingSinkIsDetachedAndRunContinues) {
  const CapturedRun& run = captured_run();
  NrScopePipeline pipeline(scope_config(run.cell));
  auto healthy = std::make_shared<CountingSink>();
  pipeline.add_sink(std::make_shared<ThrowingSink>(/*throw_after=*/3));
  pipeline.add_sink(healthy);
  EXPECT_EQ(pipeline.sink_count(), 2u);
  feed_all(pipeline, run.slots);
  pipeline.stop();
  // The faulty sink is gone, the healthy one saw the whole run in order.
  EXPECT_EQ(pipeline.sink_count(), 1u);
  EXPECT_EQ(healthy->slots_, run.slots.size());
  EXPECT_TRUE(healthy->in_order_);
  EXPECT_EQ(healthy->finished_, 1);
  EXPECT_EQ(pipeline.metrics().counter_value("pipeline.sink_errors"), 1u);
}

TEST(Pipeline, SinkThrowingInOnFinishIsCountedAndOthersStillFinish) {
  const CapturedRun& run = captured_run();
  auto healthy = std::make_shared<CountingSink>();
  NrScopePipeline pipeline(scope_config(run.cell));
  // Throws only from on_finish (throw_after_ larger than the run).
  pipeline.add_sink(std::make_shared<ThrowingSink>(run.slots.size() + 1));
  pipeline.add_sink(healthy);
  for (int i = 0; i < 10; ++i) {
    pipeline.push_slot_wait(
        pooled_copy(pipeline, run.slots[static_cast<std::size_t>(i)]));
  }
  pipeline.stop();
  EXPECT_EQ(healthy->finished_, 1);
  EXPECT_EQ(pipeline.sink_count(), 1u);
  EXPECT_EQ(pipeline.metrics().counter_value("pipeline.sink_errors"), 1u);
}

TEST(Pipeline, NamedSinksGetStableUniqueNames) {
  const CapturedRun& run = captured_run();
  NrScopePipeline pipeline(scope_config(run.cell));
  EXPECT_EQ(pipeline.add_sink("csv", std::make_shared<CountingSink>()),
            "csv");
  // Unnamed sinks get generated names; duplicates get a numeric suffix so
  // per-sink error counters never alias.
  EXPECT_EQ(pipeline.add_sink(std::make_shared<CountingSink>()), "sink0");
  EXPECT_EQ(pipeline.add_sink(std::make_shared<CountingSink>()), "sink1");
  EXPECT_EQ(pipeline.add_sink("csv", std::make_shared<CountingSink>()),
            "csv#2");
  const std::vector<std::string> names = pipeline.sink_names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "csv");
  EXPECT_EQ(names[3], "csv#2");
  // Attaching a null sink is a no-op, not a crash.
  EXPECT_EQ(pipeline.add_sink("null", nullptr), "");
  EXPECT_EQ(pipeline.sink_count(), 4u);
}

TEST(Pipeline, DetachSinkByNameStopsDelivery) {
  const CapturedRun& run = captured_run();
  NrScopePipeline pipeline(scope_config(run.cell));
  auto keep = std::make_shared<CountingSink>();
  auto drop = std::make_shared<CountingSink>();
  pipeline.add_sink("keep", keep);
  pipeline.add_sink("drop", drop);
  for (int i = 0; i < 5; ++i) {
    pipeline.push_slot_wait(
        pooled_copy(pipeline, run.slots[static_cast<std::size_t>(i)]));
  }
  // Let both sinks see the first half before detaching one.
  while (keep->slots_ < 5 || drop->slots_ < 5) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(pipeline.detach_sink("drop"));
  EXPECT_FALSE(pipeline.detach_sink("drop")) << "already gone";
  EXPECT_FALSE(pipeline.detach_sink("never-existed"));
  for (int i = 5; i < 10; ++i) {
    pipeline.push_slot_wait(
        pooled_copy(pipeline, run.slots[static_cast<std::size_t>(i)]));
  }
  pipeline.stop();
  EXPECT_EQ(keep->slots_, 10u);
  EXPECT_EQ(keep->finished_, 1);
  EXPECT_EQ(drop->slots_, 5u);
  EXPECT_EQ(drop->finished_, 0) << "detached sinks see no on_finish";
}

TEST(Pipeline, PerSinkErrorCountersNameTheFailingSink) {
  const CapturedRun& run = captured_run();
  NrScopePipeline pipeline(scope_config(run.cell));
  auto healthy = std::make_shared<CountingSink>();
  pipeline.add_sink("flaky", std::make_shared<ThrowingSink>(3));
  pipeline.add_sink("healthy", healthy);
  feed_all(pipeline, run.slots);
  pipeline.stop();
  const MetricsSnapshot snap = pipeline.metrics();
  EXPECT_EQ(snap.counter_value("pipeline.sink.flaky.errors"), 1u);
  EXPECT_EQ(snap.counter_value("pipeline.sink.healthy.errors"), 0u);
  EXPECT_EQ(snap.counter_value("pipeline.sink_errors"), 1u);
  EXPECT_EQ(pipeline.sink_names(),
            std::vector<std::string>{"healthy"});
}

TEST(Pipeline, MetricsSnapshotCoversEveryStage) {
  const CapturedRun& run = captured_run();
  NrScopePipeline pipeline(scope_config(run.cell));
  auto sink = std::make_shared<CountingSink>();
  pipeline.add_sink(sink);
  feed_all(pipeline, run.slots);
  pipeline.stop();
  const std::uint64_t results = sink->slots_;
  EXPECT_EQ(results, run.slots.size());
  const MetricsSnapshot snap = pipeline.metrics();
  // Pipeline stages: the engine thread's per-slot time (one sample per
  // slot) and its wait for input (one per pop, the final empty pop too).
  const auto* collect = snap.find_histogram("pipeline.collect_us");
  ASSERT_NE(collect, nullptr);
  EXPECT_EQ(collect->count, results);
  const auto* wait = snap.find_histogram("pipeline.collector_wait_us");
  ASSERT_NE(wait, nullptr);
  EXPECT_GE(wait->count, results);
  EXPECT_NE(snap.find_gauge("pipeline.input_queue_depth"), nullptr);
  // The engine's FFT time, observed once per slot.
  const auto* demod = snap.find_histogram("nrscope.demod_us");
  ASSERT_NE(demod, nullptr);
  EXPECT_EQ(demod->count, results);
  EXPECT_GT(snap.counter_value("nrscope.demod_symbols"), 0u);
  // Engine stages: the run synchronizes and tracks.
  EXPECT_GT(snap.counter_value("nrscope.slots_tracking"), 0u);
  EXPECT_GT(snap.counter_value("nrscope.slots_searching"), 0u);
  const auto* blind = snap.find_histogram("nrscope.blind_decode_us");
  ASSERT_NE(blind, nullptr);
  EXPECT_EQ(blind->count, snap.counter_value("nrscope.slots_tracking"));
  // The RACH discovered the UE, and telemetry registered it.
  EXPECT_GT(snap.counter_value("rach.crnti_discoveries"), 0u);
  EXPECT_GT(snap.counter_value("telemetry.ue_added"), 0u);
  // The snapshot serializes.
  EXPECT_NE(snap.to_json().find("pipeline.collect_us"), std::string::npos);
  EXPECT_NE(snap.to_csv().find("nrscope.blind_decode_us"),
            std::string::npos);
}

/// Feed `n` live slots from a running sim into a pipeline, waiting while
/// the input queue is full (no slot may be shed here: the stop/restart
/// assertions below count every slot).
void feed_live(GnbSim& gnb, VirtualRadio& radio, NrScopePipeline& pipeline,
               unsigned n) {
  for (unsigned i = 0; i < n; ++i) {
    auto samples = pipeline.acquire_samples();
    radio.capture_into(gnb.step(), *samples);
    pipeline.push_slot_wait(std::move(samples));
  }
}

TEST(Pipeline, StopThenRestartOnSameSimReacquiresCleanly) {
  // A live cell with one UE; the monitor (pipeline) is stopped mid-stream
  // and a fresh one attached to the same still-running cell — the fleet
  // supervisor's restart path.
  GnbConfig gnb_cfg;
  gnb_cfg.cell = srsran_cell();
  gnb_cfg.seed = 77;
  GnbSim gnb(std::move(gnb_cfg));
  UeConfig ue1;
  ue1.channel.snr_db = 24.0;
  ue1.dl_traffic = std::make_unique<CbrSource>(2e6);
  ue1.seed = 1;
  gnb.add_ue(std::move(ue1));
  VirtualRadioConfig radio_cfg;
  radio_cfg.n_prb = gnb.cell().n_prb;
  radio_cfg.channel.snr_db = 26.0;
  VirtualRadio radio(radio_cfg);

  NrScopeConfig cfg = scope_config(gnb.cell());
  auto first = std::make_unique<NrScopePipeline>(cfg);
  feed_live(gnb, radio, *first, 400);
  first->stop();
  // stop() drains what was queued: every fed slot was processed, the
  // first monitor tracked the UE, and its engine stays inspectable.
  EXPECT_EQ(first->engine().slots_processed(), 400u);
  ASSERT_EQ(first->engine().known_ues().size(), 1u);
  const Rnti rnti1 = first->engine().known_ues()[0];
  const UeTelemetry* t1 = first->engine().telemetry().find(rnti1);
  ASSERT_NE(t1, nullptr);
  const std::uint64_t first_bits = t1->dl_bits();
  EXPECT_GT(first_bits, 0u);
  EXPECT_FALSE(first->push_slot(first->acquire_samples()))
      << "a stopped pipeline accepts no more input";

  // Second incarnation on the same sim: it must re-synchronize mid-stream
  // (SSB/SIB1 are periodic) and re-acquire C-RNTIs from the RACH onward.
  auto second = std::make_unique<NrScopePipeline>(cfg);
  feed_live(gnb, radio, *second, 300);  // re-sync window, no new UE yet
  UeConfig ue2;
  ue2.channel.snr_db = 24.0;
  ue2.dl_traffic = std::make_unique<CbrSource>(2e6);
  ue2.seed = 2;
  const unsigned ue2_id = gnb.add_ue(std::move(ue2));
  feed_live(gnb, radio, *second, 600);  // RACH + tracking for the new UE
  second->stop();

  // Fresh run, fresh totals: no cross-run leakage from the first monitor.
  EXPECT_EQ(second->engine().slots_processed(), 900u);
  const Rnti rnti2 = gnb.ue_rnti(ue2_id);
  ASSERT_NE(rnti2, kInvalidRnti);
  const auto known = second->engine().known_ues();
  EXPECT_NE(std::find(known.begin(), known.end(), rnti2), known.end())
      << "the restarted monitor re-acquires C-RNTIs via the RACH";
  // UE 1 RACHed before the restart, so the fresh engine cannot know it —
  // the strongest form of "telemetry totals reset cleanly".
  EXPECT_EQ(std::find(known.begin(), known.end(), rnti1), known.end());
  EXPECT_EQ(second->engine().telemetry().find(rnti1), nullptr);
  const UeTelemetry* t2 = second->engine().telemetry().find(rnti2);
  ASSERT_NE(t2, nullptr);
  EXPECT_GT(t2->dl_bits(), 0u);
  // Per-engine metrics restarted from zero as well.
  EXPECT_EQ(second->metrics().counter_value("pipeline.slots_pushed"), 900u);
  // The first engine's view is frozen, not clobbered, by the second run.
  EXPECT_EQ(first->engine().slots_processed(), 400u);
  EXPECT_EQ(first->engine().telemetry().find(rnti1)->dl_bits(), first_bits);
  // stop() is idempotent.
  first->stop();
  second->stop();
}

TEST(Pipeline, SkipSlotsJumpsGapAndKeepsFrameLock) {
  // A declared input discontinuity (an SDR overflow report): 37 slots of
  // air time are never pushed.  The engine's slot clock must jump the
  // hole, and its frame phase must survive the gap without a resync.
  GnbConfig gnb_cfg;
  gnb_cfg.cell = srsran_cell();
  gnb_cfg.seed = 78;
  GnbSim gnb(std::move(gnb_cfg));
  UeConfig ue;
  ue.channel.snr_db = 24.0;
  ue.dl_traffic = std::make_unique<CbrSource>(2e6);
  ue.seed = 1;
  gnb.add_ue(std::move(ue));
  VirtualRadioConfig radio_cfg;
  radio_cfg.n_prb = gnb.cell().n_prb;
  radio_cfg.channel.snr_db = 26.0;
  VirtualRadio radio(radio_cfg);

  NrScopePipeline pipeline(scope_config(gnb.cell()));
  auto sink = std::make_shared<RecordingSink>();
  pipeline.add_sink(sink);
  feed_live(gnb, radio, pipeline, 400);
  const std::uint64_t missed = 37;  // not a frame multiple
  for (std::uint64_t j = 0; j < missed; ++j) {
    (void)gnb.step();  // air time the feeder lost
  }
  pipeline.skip_slots(missed);
  feed_live(gnb, radio, pipeline, 300);
  // A trailing gap: declared after the last push, it still advances the
  // engine's clock when the run drains.
  const std::uint64_t trailing = 5;
  pipeline.skip_slots(trailing);
  pipeline.stop();
  EXPECT_EQ(pipeline.engine().slots_processed(), 700u + missed + trailing);

  std::vector<std::uint64_t> seen;
  for (const SlotResult& result : sink->results_) {
    seen.push_back(result.slot);
  }
  ASSERT_EQ(seen.size(), 700u);
  // In order throughout, with the engine clock jumping the declared gap.
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(seen[399], 399u);
  EXPECT_EQ(seen[400], 399u + 1 + missed);
  EXPECT_EQ(seen.back(), 699u + missed);
  // The gap was declared, so the frame phase stayed locked: tracking
  // continued with no sync loss and the UE still known.
  EXPECT_EQ(pipeline.engine().state(), NrScope::State::kTracking);
  EXPECT_EQ(pipeline.engine().sync_monitor().sync_losses(), 0u);
  EXPECT_EQ(pipeline.engine().known_ues().size(), 1u);
  const MetricsSnapshot snap = pipeline.metrics();
  EXPECT_EQ(snap.counter_value("pipeline.stream_gaps"), 2u);
  EXPECT_EQ(snap.counter_value("pipeline.slots_skipped"), missed + trailing);
  EXPECT_EQ(snap.counter_value("nrscope.stream_gap_slots"),
            missed + trailing);
}

TEST(Pipeline, StopDuringResyncDrainReleasesEveryPooledBuffer) {
  // Teardown racing the recovery path: the engine is mid-resync (an
  // outage collapsed sync health) with slots still queued when stop() is
  // called.  stop() must come back (no deadlock against the resync
  // drain), leave the engine inspectable, and hand every pooled sample
  // buffer home.
  GnbConfig gnb_cfg;
  gnb_cfg.cell = srsran_cell();
  gnb_cfg.seed = 79;
  GnbSim gnb(std::move(gnb_cfg));
  UeConfig ue;
  ue.channel.snr_db = 24.0;
  ue.dl_traffic = std::make_unique<CbrSource>(2e6);
  ue.seed = 1;
  gnb.add_ue(std::move(ue));
  VirtualRadioConfig clean_cfg;
  clean_cfg.n_prb = gnb.cell().n_prb;
  clean_cfg.channel.snr_db = 26.0;
  VirtualRadio clean_radio(clean_cfg);

  NrScopeConfig cfg = scope_config(gnb.cell());
  NrScopePipeline pipeline(cfg);
  feed_live(gnb, clean_radio, pipeline, 400);  // warm to tracking

  // Outage from its first slot on: the monitor declares sync lost after
  // a few weak SSBs, and every slot after that drains through the
  // kResync path.
  VirtualRadioConfig faulty_cfg = clean_cfg;
  faulty_cfg.faults.events.push_back({FaultKind::kOutage, 0, 100000, 35.0});
  VirtualRadio faulty_radio(faulty_cfg);
  feed_live(gnb, faulty_radio, pipeline, 120);
  // A final burst so slots are still in flight at stop().
  feed_live(gnb, faulty_radio, pipeline, 32);
  pipeline.stop();

  EXPECT_EQ(pipeline.engine().state(), NrScope::State::kResync);
  EXPECT_GE(pipeline.engine().sync_monitor().sync_losses(), 1u);
  EXPECT_EQ(pipeline.buffers_in_flight(), 0u)
      << "stop() during resync leaked pooled buffers";
  // stop() stays idempotent in this state too.
  pipeline.stop();
  EXPECT_EQ(pipeline.buffers_in_flight(), 0u);

  // The supervisor's next move — a fresh pipeline on the now-recovered
  // feed — must come up cleanly after the aborted resync.
  NrScopePipeline second(cfg);
  feed_live(gnb, clean_radio, second, 400);
  second.stop();
  EXPECT_NE(second.engine().state(), NrScope::State::kSearching);
  EXPECT_EQ(second.buffers_in_flight(), 0u);
}

TEST(Pipeline, FinishWithoutInputTerminates) {
  const CapturedRun& run = captured_run();
  NrScopePipeline pipeline(scope_config(run.cell));
  auto sink = std::make_shared<CountingSink>();
  pipeline.add_sink(sink);
  pipeline.stop();
  EXPECT_EQ(sink->slots_, 0u);
  EXPECT_EQ(sink->finished_, 1) << "on_finish fires even for an empty run";
}

TEST(LogWriter, WritesHeaderAndRows) {
  const std::string path = "/tmp/nrs_test_log.csv";
  {
    TelemetryLogWriter writer(path);
    SlotResult result;
    DecodedDci dci;
    dci.slot = 42;
    dci.rnti = 0x4601;
    dci.dci.format = DciFormat::kDl1_1;
    dci.grant.tbs = 3240;
    dci.grant.prb_len = 17;
    result.dcis.push_back(dci);
    writer.write(result);
    writer.flush();
  }
  std::ifstream in(path);
  std::string header;
  std::string row;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, row));
  EXPECT_NE(header.find("tbs"), std::string::npos);
  EXPECT_NE(row.find("42,"), std::string::npos);
  EXPECT_NE(row.find("3240"), std::string::npos);
  std::remove(path.c_str());
}

TEST(LogWriter, UnwritablePathThrows) {
  EXPECT_THROW(TelemetryLogWriter("/nonexistent/dir/x.csv"),
               std::runtime_error);
}

}  // namespace
}  // namespace nrs
