// Integration fault storm: every impairment class the harness can script
// — IQ outage, dropped-sample gap, CFO step, a declared stream gap, and a
// gNB restart onto a new PCI — hits one NrScopePipeline in sequence.  The
// sniffer must ride out all of it without a process restart: detect each
// fault, resynchronize in place, flush on the PCI change, re-learn the
// re-attaching subscribers through the RACH, and end the run tracking
// with per-UE telemetry that matches the (restarted) gNB's ground truth.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "analysis/matching.h"
#include "gnb/gnb_sim.h"
#include "gnb/presets.h"
#include "nrscope/pipeline.h"
#include "nrscope/slot_sink.h"
#include "radio/virtual_radio.h"
#include "ue/traffic.h"

namespace nrs {
namespace {

constexpr unsigned kUes = 3;

// Feed-clock timeline (in pushed slots; the engine clock additionally
// jumps the declared gap).
constexpr std::uint64_t kSkipAt = 650;       ///< declared 37-slot gap
constexpr std::uint64_t kSkipped = 37;
constexpr std::uint64_t kRestartAt = 2400;   ///< gNB restart, new PCI
constexpr std::uint64_t kReattachAt = 2700;  ///< subscribers trickle back
constexpr std::uint64_t kEndAt = 3400;

UeConfig make_storm_ue(unsigned seed) {
  UeConfig ue;
  ue.channel.profile = ChannelProfile::kAwgn;
  ue.channel.snr_db = 24.0;
  ue.channel.seed = 1000 + seed;
  ue.dl_traffic = std::make_unique<CbrSource>(2e6);
  ue.ul_traffic = std::make_unique<CbrSource>(1e6);
  ue.seed = seed;
  return ue;
}

/// Collector-thread observer: records every state the run visited and
/// every decoded DCI, in slot order.
class StormSink : public SlotSink {
 public:
  void on_slot(const SlotResult& result) override {
    states_.insert(result.sync_state);
    degraded_slots_ += result.degraded;
    dcis_.insert(dcis_.end(), result.dcis.begin(), result.dcis.end());
  }
  void on_finish() override { ++finished_; }

  std::set<SyncState> states_;
  std::uint64_t degraded_slots_ = 0;
  std::vector<DecodedDci> dcis_;
  int finished_ = 0;
};

TEST(Resilience, FaultStormRecoversWithoutProcessRestart) {
  CellConfig cell = amarisoft_cell();
  GnbConfig gnb_cfg;
  gnb_cfg.cell = cell;
  gnb_cfg.seed = 11;
  auto gnb = std::make_unique<GnbSim>(std::move(gnb_cfg));
  for (unsigned i = 1; i <= kUes; ++i) {
    gnb->add_ue(make_storm_ue(i));
  }

  // One radio for the whole run; the IQ-level faults are scripted on its
  // injector clock (capture count): outage, then a 97% dropped-sample
  // gap, then a 22.5 kHz CFO step — each with clean air in between.
  VirtualRadioConfig radio_cfg;
  radio_cfg.n_prb = cell.n_prb;
  radio_cfg.channel.profile = ChannelProfile::kAwgn;
  radio_cfg.channel.snr_db = 28.0;
  radio_cfg.channel.seed = 99;
  radio_cfg.faults.events.push_back({FaultKind::kOutage, 700, 120, 35.0});
  radio_cfg.faults.events.push_back({FaultKind::kSampleGap, 1100, 400, 0.97});
  radio_cfg.faults.events.push_back({FaultKind::kCfoStep, 1800, 240, 22500.0});
  VirtualRadio radio(radio_cfg);

  NrScopeConfig cfg;
  cfg.n_prb = cell.n_prb;
  cfg.scs = cell.scs;
  cfg.rach.mode = RachTrackMode::kMsg2Assisted;
  cfg.ue_inactivity_slots = 1u << 30;
  cfg.sync.empty_slot_limit = 300;
  cfg.sync.resync_grace_slots = 4000;

  NrScopePipeline pipeline(cfg, 2);
  auto sink = std::make_shared<StormSink>();
  pipeline.add_sink(sink);

  std::vector<unsigned> reattached_ids;
  for (std::uint64_t k = 0; k < kEndAt; ++k) {
    if (k == kSkipAt) {
      // A declared stream gap (SDR overflow report): air time passes that
      // the feeder never captures, and it says so.
      for (std::uint64_t j = 0; j < kSkipped; ++j) {
        (void)gnb->step();
      }
      pipeline.skip_slots(kSkipped);
    }
    if (k == kRestartAt) {
      // The gNB restarts as a different cell: new PCI, empty UE list, and
      // a slot clock rebased to zero.
      cell.pci = static_cast<std::uint16_t>((cell.pci + 7) % 1008);
      cell.coreset.shift = cell.pci;
      cell.coreset.n_id = cell.pci;
      GnbConfig restarted;
      restarted.cell = cell;
      restarted.seed = 12;
      gnb = std::make_unique<GnbSim>(std::move(restarted));
    }
    if (k == kReattachAt) {
      // Subscribers trickle back once the cell is up — late enough that
      // the re-locked sniffer observes their RACH.
      for (unsigned i = 1; i <= kUes; ++i) {
        reattached_ids.push_back(gnb->add_ue(make_storm_ue(10 + i)));
      }
    }
    auto samples = pipeline.acquire_samples();
    radio.capture_into(gnb->step(), *samples);
    pipeline.push_slot_wait(std::move(samples));
  }
  pipeline.stop();
  EXPECT_EQ(sink->finished_, 1);
  EXPECT_EQ(pipeline.buffers_in_flight(), 0u);

  // The storm was survived in place: the one pipeline saw loss and
  // recovery for every impairment, ending re-locked on the new cell.
  const NrScope& engine = pipeline.engine();
  EXPECT_EQ(engine.state(), NrScope::State::kTracking);
  EXPECT_EQ(engine.pci(), cell.pci);
  EXPECT_TRUE(sink->states_.contains(SyncState::kResync));
  EXPECT_TRUE(sink->states_.contains(SyncState::kWaitSib1));
  EXPECT_GT(sink->degraded_slots_, 0u);
  const SyncMonitor& sync = engine.sync_monitor();
  EXPECT_GE(sync.sync_losses(), 4u) << "outage, gap, CFO, restart";
  EXPECT_EQ(sync.resyncs(), sync.sync_losses()) << "every loss recovered";
  EXPECT_EQ(sync.abandoned(), 0u);
  EXPECT_EQ(sync.pci_changes(), 1u);
  // The declared gap, by contrast, is bookkeeping rather than a fault.
  EXPECT_EQ(pipeline.metrics().counter_value("nrscope.stream_gap_slots"),
            kSkipped);

  // Post-recovery telemetry vs. the restarted gNB's ground truth.  The
  // engine stamps DCIs with its feed clock, which runs kRestartAt pushes
  // plus the declared gap ahead of the new cell's own clock.
  const std::uint64_t restart_offset = kRestartAt + kSkipped;
  std::vector<DecodedDci> post;
  for (const DecodedDci& dci : sink->dcis_) {
    if (dci.slot >= restart_offset) {
      post.push_back(dci);
      post.back().slot -= restart_offset;
    }
  }
  // Window: from shortly after the re-attach RACHes settle (new-cell
  // clock) to the end of the run.
  const std::uint64_t settle = kReattachAt - kRestartAt + 150;
  const MissRateReport report =
      compute_miss_rate(gnb->truth(), post, settle);
  EXPECT_GT(report.dl_truth, 100u) << "restarted cell must carry traffic";
  EXPECT_GT(report.ul_truth, 50u);
  EXPECT_LT(report.dl_miss_rate(), 0.05);
  EXPECT_LT(report.ul_miss_rate(), 0.05);
  EXPECT_LT(report.false_positives, 10u);

  // Every re-attached subscriber was re-learned through the RACH, and the
  // sniffer's per-UE throughput matches each UE's own delivered bytes.
  ASSERT_EQ(engine.known_ues().size(), kUes);
  for (unsigned ue_id : reattached_ids) {
    const Rnti rnti = gnb->ue_rnti(ue_id);
    ASSERT_NE(rnti, kInvalidRnti);
    const UeTelemetry* telem = engine.telemetry().find(rnti);
    ASSERT_NE(telem, nullptr) << "re-attached UE unknown to the sniffer";
    const double est_bits = static_cast<double>(telem->dl_bits());
    const double true_bits =
        static_cast<double>(gnb->ue(ue_id)->trace().total_bytes()) * 8.0;
    ASSERT_GT(true_bits, 1e5);
    // TBS includes MAC padding: an upper bound within tracking slack.
    EXPECT_GT(est_bits, true_bits * 0.90);
    EXPECT_LT(est_bits, true_bits * 1.35);
  }
}

}  // namespace
}  // namespace nrs
