// SyncMonitor unit tests (verdict logic in isolation) plus engine-level
// resynchronization paths: the backward kTracking -> kResync edges, the
// grace window, telemetry retention across a same-PCI recovery, and the
// flush on a PCI change (DESIGN.md "Failure model and recovery").
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "gnb/gnb_sim.h"
#include "gnb/presets.h"
#include "nrscope/nrscope.h"
#include "nrscope/sync_monitor.h"
#include "radio/virtual_radio.h"
#include "ue/traffic.h"

namespace nrs {
namespace {

SyncMonitorConfig tight_config() {
  SyncMonitorConfig cfg;
  cfg.ssb_fail_limit = 3;
  cfg.empty_slot_limit = 10;
  return cfg;
}

TEST(SyncMonitorUnit, WeakSsbRunDeclaresLoss) {
  MetricsRegistry registry;
  SyncMonitor monitor(tight_config(), registry);
  monitor.on_lock();
  monitor.observe_ssb(0.9f);
  EXPECT_EQ(monitor.health(), SyncHealth::kHealthy);

  monitor.observe_ssb(0.1f);
  monitor.observe_ssb(0.1f);
  EXPECT_NE(monitor.health(), SyncHealth::kLost) << "two weak SSBs < limit";
  monitor.observe_ssb(0.1f);
  EXPECT_EQ(monitor.health(), SyncHealth::kLost);
  EXPECT_EQ(monitor.loss_cause(), SyncLossCause::kSsbQuality);
}

TEST(SyncMonitorUnit, GoodSsbResetsWeakRun) {
  MetricsRegistry registry;
  SyncMonitor monitor(tight_config(), registry);
  monitor.on_lock();
  monitor.observe_ssb(0.1f);
  monitor.observe_ssb(0.1f);
  monitor.observe_ssb(0.9f);  // recovery resets the consecutive count
  EXPECT_EQ(monitor.weak_ssb_run(), 0u);
  monitor.observe_ssb(0.1f);
  monitor.observe_ssb(0.1f);
  EXPECT_NE(monitor.health(), SyncHealth::kLost);
}

TEST(SyncMonitorUnit, EmptySlotRunDeclaresBlindDecode) {
  MetricsRegistry registry;
  SyncMonitor monitor(tight_config(), registry);
  monitor.on_lock();
  for (unsigned i = 0; i < 9; ++i) {
    monitor.observe_slot(0, true);
  }
  EXPECT_NE(monitor.health(), SyncHealth::kLost);
  monitor.observe_slot(0, true);
  EXPECT_EQ(monitor.health(), SyncHealth::kLost);
  EXPECT_EQ(monitor.loss_cause(), SyncLossCause::kBlindDecode);
}

TEST(SyncMonitorUnit, DecodedDciResetsEmptyRun) {
  MetricsRegistry registry;
  SyncMonitor monitor(tight_config(), registry);
  monitor.on_lock();
  for (unsigned i = 0; i < 9; ++i) {
    monitor.observe_slot(0, true);
  }
  monitor.observe_slot(2, true);
  EXPECT_EQ(monitor.empty_slot_run(), 0u);
}

TEST(SyncMonitorUnit, NoTrackedUesNeverAccumulates) {
  // A cell with no tracked UEs legitimately decodes nothing: that is
  // "no traffic", not "blind".
  MetricsRegistry registry;
  SyncMonitor monitor(tight_config(), registry);
  monitor.on_lock();
  for (unsigned i = 0; i < 100; ++i) {
    monitor.observe_slot(0, false);
  }
  EXPECT_EQ(monitor.health(), SyncHealth::kHealthy);
}

TEST(SyncMonitorUnit, HalfEmptyLimitIsDegraded) {
  MetricsRegistry registry;
  SyncMonitor monitor(tight_config(), registry);
  monitor.on_lock();
  for (unsigned i = 0; i < 5; ++i) {
    monitor.observe_slot(0, true);
  }
  EXPECT_EQ(monitor.health(), SyncHealth::kDegraded);
  EXPECT_EQ(monitor.loss_cause(), SyncLossCause::kNone);
}

TEST(SyncMonitorUnit, QualityEmaBelowThresholdIsDegraded) {
  MetricsRegistry registry;
  auto cfg = tight_config();
  cfg.ssb_alpha = 1.0;  // quality == the last observation
  SyncMonitor monitor(cfg, registry);
  monitor.on_lock();
  monitor.observe_ssb(0.3f);  // above weak (0.25), below degraded (0.5)
  EXPECT_EQ(monitor.health(), SyncHealth::kDegraded);
  EXPECT_EQ(monitor.weak_ssb_run(), 0u);
}

TEST(SyncMonitorUnit, OnLockResets) {
  MetricsRegistry registry;
  SyncMonitor monitor(tight_config(), registry);
  monitor.on_lock();
  for (unsigned i = 0; i < 3; ++i) {
    monitor.observe_ssb(0.0f);
  }
  ASSERT_EQ(monitor.health(), SyncHealth::kLost);
  monitor.on_lock();
  EXPECT_EQ(monitor.health(), SyncHealth::kHealthy);
  EXPECT_EQ(monitor.weak_ssb_run(), 0u);
  EXPECT_DOUBLE_EQ(monitor.quality(), 1.0);
}

TEST(SyncMonitorUnit, DisabledMonitorNeverTrips) {
  MetricsRegistry registry;
  auto cfg = tight_config();
  cfg.enabled = false;
  SyncMonitor monitor(cfg, registry);
  monitor.on_lock();
  for (unsigned i = 0; i < 20; ++i) {
    monitor.observe_ssb(0.0f);
    monitor.observe_slot(0, true);
  }
  EXPECT_EQ(monitor.health(), SyncHealth::kHealthy);
}

TEST(SyncMonitorUnit, ResyncLifecycleCounters) {
  MetricsRegistry registry;
  SyncMonitor monitor(tight_config(), registry);
  monitor.resync_started(100);
  monitor.resync_finished(140, /*pci_changed=*/false);
  monitor.resync_started(300);
  monitor.resync_finished(420, /*pci_changed=*/true);
  monitor.resync_started(900);
  monitor.resync_abandoned(950);

  EXPECT_EQ(monitor.sync_losses(), 3u);
  EXPECT_EQ(monitor.resyncs(), 2u);
  EXPECT_EQ(monitor.pci_changes(), 1u);
  EXPECT_EQ(monitor.abandoned(), 1u);

  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("nrscope.sync_losses"), 3u);
  EXPECT_EQ(snap.counter_value("nrscope.resyncs"), 2u);
  EXPECT_EQ(snap.counter_value("nrscope.pci_changes"), 1u);
  EXPECT_EQ(snap.counter_value("nrscope.resyncs_abandoned"), 1u);
  const auto* duration = snap.find_histogram("nrscope.resync_duration_slots");
  ASSERT_NE(duration, nullptr);
  EXPECT_EQ(duration->count, 3u);  // two completions + one abandonment
}

// ---------------------------------------------------------------------------
// Engine-level resync paths, driven end-to-end through gNB + virtual radio.

constexpr unsigned kUes = 2;

UeConfig make_test_ue(unsigned seed) {
  UeConfig ue;
  ue.channel.profile = ChannelProfile::kAwgn;
  ue.channel.snr_db = 24.0;
  ue.channel.seed = 1000 + seed;
  ue.dl_traffic = std::make_unique<CbrSource>(2e6);
  ue.ul_traffic = std::make_unique<CbrSource>(5e5);
  ue.seed = seed;
  return ue;
}

NrScopeConfig engine_config() {
  const CellConfig cell = amarisoft_cell();
  NrScopeConfig cfg;
  cfg.n_prb = cell.n_prb;
  cfg.scs = cell.scs;
  cfg.rach.mode = RachTrackMode::kMsg2Assisted;
  cfg.ue_inactivity_slots = 1u << 30;
  cfg.sync.empty_slot_limit = 200;
  cfg.sync.resync_grace_slots = 2000;
  return cfg;
}

VirtualRadioConfig clean_radio_config(const CellConfig& cell) {
  VirtualRadioConfig cfg;
  cfg.n_prb = cell.n_prb;
  cfg.channel.profile = ChannelProfile::kAwgn;
  cfg.channel.snr_db = 28.0;
  cfg.channel.seed = 99;
  return cfg;
}

struct EngineRig {
  CellConfig cell = amarisoft_cell();
  std::unique_ptr<GnbSim> gnb;
  std::unique_ptr<NrScope> scope;
  std::vector<unsigned> ue_ids;  ///< gNB-assigned ids of the attached UEs
  std::set<SyncState> states_seen;

  explicit EngineRig(const NrScopeConfig& scope_cfg)
      : scope(std::make_unique<NrScope>(scope_cfg)) {
    rebuild_gnb(cell, /*seed=*/5, /*with_ues=*/true);
  }

  void rebuild_gnb(const CellConfig& new_cell, std::uint64_t seed,
                   bool with_ues) {
    GnbConfig g;
    g.cell = new_cell;
    g.seed = seed;
    gnb = std::make_unique<GnbSim>(std::move(g));
    ue_ids.clear();
    if (with_ues) {
      attach_ues();
    }
  }

  void attach_ues() {
    for (unsigned i = 1; i <= kUes; ++i) {
      ue_ids.push_back(gnb->add_ue(make_test_ue(i)));
    }
  }

  /// Feed `n` slots through `radio`; records every state visited.
  void run(VirtualRadio& radio, std::uint64_t n) {
    SlotResult result;
    for (std::uint64_t k = 0; k < n; ++k) {
      scope->process_slot(radio.capture(gnb->step()), result);
      states_seen.insert(result.sync_state);
    }
  }

  /// Warm up on a clean radio until tracking with every UE known.
  void warm_up(VirtualRadio& radio) {
    SlotResult result;
    for (std::uint64_t k = 0; k < 20000; ++k) {
      scope->process_slot(radio.capture(gnb->step()), result);
      if (scope->state() == NrScope::State::kTracking &&
          scope->known_ues().size() >= kUes) {
        return;
      }
    }
    FAIL() << "engine never reached tracking with all UEs";
  }
};

TEST(EngineResync, OutageRecoveryRetainsTelemetry) {
  EngineRig rig(engine_config());
  VirtualRadioConfig radio_cfg = clean_radio_config(rig.cell);
  VirtualRadio warm(radio_cfg);
  rig.warm_up(warm);

  const auto ues_before = rig.scope->known_ues();
  const std::uint64_t dcis_before =
      rig.scope->telemetry().ues().begin()->second.dl_dcis();

  radio_cfg.faults.events.push_back({FaultKind::kOutage, 100, 120, 35.0});
  VirtualRadio radio(radio_cfg);
  rig.run(radio, 600);

  EXPECT_EQ(rig.scope->state(), NrScope::State::kTracking);
  EXPECT_TRUE(rig.states_seen.contains(SyncState::kResync));
  EXPECT_EQ(rig.scope->sync_monitor().sync_losses(), 1u);
  EXPECT_EQ(rig.scope->sync_monitor().resyncs(), 1u);
  EXPECT_EQ(rig.scope->sync_monitor().pci_changes(), 0u);

  // Same PCI, channel-level cause: tracked UEs and their telemetry
  // survive the resync, and decoding resumes on the same counters.
  EXPECT_EQ(rig.scope->known_ues(), ues_before);
  const std::uint64_t dcis_after =
      rig.scope->telemetry().ues().begin()->second.dl_dcis();
  EXPECT_GT(dcis_after, dcis_before)
      << "post-recovery DCIs must land on the retained telemetry";
}

TEST(EngineResync, DegradedFlagRisesBeforeLoss) {
  EngineRig rig(engine_config());
  VirtualRadioConfig radio_cfg = clean_radio_config(rig.cell);
  VirtualRadio warm(radio_cfg);
  rig.warm_up(warm);

  // An outage long enough to trip the monitor; in the slots between the
  // quality EMA sagging and the third weak SSB, tracking continues with
  // the degraded flag raised.
  radio_cfg.faults.events.push_back({FaultKind::kOutage, 50, 120, 35.0});
  VirtualRadio radio(radio_cfg);
  SlotResult result;
  bool saw_degraded_while_tracking = false;
  for (std::uint64_t k = 0; k < 300; ++k) {
    rig.scope->process_slot(radio.capture(rig.gnb->step()), result);
    if (result.sync_state == SyncState::kTracking && result.degraded) {
      saw_degraded_while_tracking = true;
    }
  }
  EXPECT_TRUE(saw_degraded_while_tracking);
  EXPECT_GT(rig.scope->metrics().counter_value("nrscope.degraded_slots"), 0u);
}

TEST(EngineResync, PciChangeFlushesTrackedState) {
  EngineRig rig(engine_config());
  VirtualRadioConfig radio_cfg = clean_radio_config(rig.cell);
  VirtualRadio radio(radio_cfg);
  rig.warm_up(radio);

  const std::uint16_t old_pci = rig.scope->pci();
  CellConfig moved = rig.cell;
  moved.pci = static_cast<std::uint16_t>((moved.pci + 7) % 1008);
  moved.coreset.shift = moved.pci;
  moved.coreset.n_id = moved.pci;
  rig.rebuild_gnb(moved, /*seed=*/6, /*with_ues=*/false);

  rig.run(radio, 800);

  EXPECT_EQ(rig.scope->state(), NrScope::State::kTracking);
  EXPECT_EQ(rig.scope->pci(), moved.pci);
  EXPECT_NE(rig.scope->pci(), old_pci);
  EXPECT_EQ(rig.scope->sync_monitor().pci_changes(), 1u);
  // A different cell: every tracked UE belonged to the old one.
  EXPECT_TRUE(rig.scope->known_ues().empty());
  // The recovery passed through the SIB1 re-read.
  EXPECT_TRUE(rig.states_seen.contains(SyncState::kWaitSib1));
}

TEST(EngineResync, RestartedCellRelearnsLateAttachingUes) {
  // The regression behind air_slot_index(): a restarted cell rebases its
  // slot clock, so PRACH occasions (and with them the RA-RNTIs of MSG2s)
  // no longer line up with the sniffer's feed index.  UEs attaching after
  // the sniffer re-locked must still be learned through the RACH.
  EngineRig rig(engine_config());
  VirtualRadioConfig radio_cfg = clean_radio_config(rig.cell);
  VirtualRadio radio(radio_cfg);
  rig.warm_up(radio);

  CellConfig moved = rig.cell;
  moved.pci = static_cast<std::uint16_t>((moved.pci + 7) % 1008);
  moved.coreset.shift = moved.pci;
  moved.coreset.n_id = moved.pci;
  rig.rebuild_gnb(moved, /*seed=*/6, /*with_ues=*/false);

  rig.run(radio, 400);  // re-lock onto the restarted cell
  ASSERT_EQ(rig.scope->state(), NrScope::State::kTracking);
  ASSERT_TRUE(rig.scope->known_ues().empty());

  rig.attach_ues();
  SlotResult result;
  std::uint64_t dcis_after_attach = 0;
  for (std::uint64_t k = 0; k < 400; ++k) {
    rig.scope->process_slot(radio.capture(rig.gnb->step()), result);
    dcis_after_attach += result.dcis.size();
  }
  EXPECT_EQ(rig.scope->known_ues().size(), kUes);
  EXPECT_GT(dcis_after_attach, 100u);
}

TEST(EngineResync, GraceExpiryFallsBackToSearching) {
  auto cfg = engine_config();
  cfg.sync.resync_grace_slots = 150;  // short leash for the test
  EngineRig rig(cfg);
  VirtualRadioConfig radio_cfg = clean_radio_config(rig.cell);
  VirtualRadio warm(radio_cfg);
  rig.warm_up(warm);

  // A fault longer than the grace window: the hunt must be abandoned,
  // the tracked state flushed, and the engine parked in kSearching.
  radio_cfg.faults.events.push_back({FaultKind::kOutage, 20, 2000, 40.0});
  VirtualRadio radio(radio_cfg);
  rig.run(radio, 600);

  EXPECT_EQ(rig.scope->state(), NrScope::State::kSearching);
  EXPECT_EQ(rig.scope->sync_monitor().abandoned(), 1u);
  EXPECT_TRUE(rig.scope->known_ues().empty());
}

TEST(EngineResync, BlindDecodeCauseReturnsThroughWaitSib1) {
  EngineRig rig(engine_config());
  VirtualRadioConfig radio_cfg = clean_radio_config(rig.cell);
  VirtualRadio radio(radio_cfg);
  rig.warm_up(radio);

  // Every UE leaves the cell, but the sniffer still tracks them: decodes
  // dry up with the SSB untouched, so only the blind-decode trigger can
  // notice.  Its recovery path re-reads SIB1 before trusting the config.
  for (unsigned id : rig.ue_ids) {
    rig.gnb->remove_ue(id);
  }
  SlotResult result;
  bool lost_seen = false;
  std::uint64_t slots = 0;
  for (; slots < 1200 && !lost_seen; ++slots) {
    rig.scope->process_slot(radio.capture(rig.gnb->step()), result);
    lost_seen = result.sync_state == SyncState::kResync;
  }
  ASSERT_TRUE(lost_seen) << "blind-decode trigger never fired";
  // The dry spell fires at empty_slot_limit (200), not earlier.
  EXPECT_GE(slots, 200u);
  // Recovery passes through the SIB1 re-read before tracking resumes.
  for (std::uint64_t k = 0; k < 300; ++k) {
    rig.scope->process_slot(radio.capture(rig.gnb->step()), result);
    rig.states_seen.insert(result.sync_state);
    if (result.sync_state == SyncState::kTracking) {
      break;
    }
  }
  EXPECT_TRUE(rig.states_seen.contains(SyncState::kWaitSib1));
  EXPECT_EQ(rig.scope->state(), NrScope::State::kTracking);
}

TEST(EngineResync, ForceResyncFromCleanTracking) {
  EngineRig rig(engine_config());
  VirtualRadioConfig radio_cfg = clean_radio_config(rig.cell);
  VirtualRadio radio(radio_cfg);
  rig.warm_up(radio);

  rig.scope->force_resync();
  EXPECT_EQ(rig.scope->state(), NrScope::State::kResync);
  rig.run(radio, 100);
  EXPECT_EQ(rig.scope->state(), NrScope::State::kTracking);
  EXPECT_EQ(rig.scope->sync_monitor().sync_losses(), 1u);
  EXPECT_EQ(rig.scope->sync_monitor().resyncs(), 1u);
}

TEST(EngineResync, DeclaredStreamGapKeepsTracking) {
  // A *declared* gap (an SDR overflow report) advances the slot clock, so
  // the frame phase stays locked and no resync is needed — the contrast
  // to the undeclared timing jump below, which collapses sync health.
  EngineRig rig(engine_config());
  VirtualRadioConfig radio_cfg = clean_radio_config(rig.cell);
  VirtualRadio radio(radio_cfg);
  rig.warm_up(radio);

  const std::uint64_t missed = 37;
  for (std::uint64_t j = 0; j < missed; ++j) {
    (void)rig.gnb->step();  // air time the sniffer never saw
  }
  rig.scope->note_stream_gap(missed);
  rig.run(radio, 500);

  EXPECT_EQ(rig.scope->state(), NrScope::State::kTracking);
  EXPECT_EQ(rig.scope->sync_monitor().sync_losses(), 0u);
  EXPECT_EQ(rig.scope->metrics().counter_value("nrscope.stream_gap_slots"),
            missed);
  EXPECT_FALSE(rig.states_seen.contains(SyncState::kResync));
}

TEST(EngineResync, UndeclaredTimingJumpForcesResync) {
  EngineRig rig(engine_config());
  VirtualRadioConfig radio_cfg = clean_radio_config(rig.cell);
  VirtualRadio radio(radio_cfg);
  rig.warm_up(radio);

  // Same 37 lost slots, but nobody tells the sniffer: the frame phase
  // silently breaks and only the sync monitor can notice.
  for (std::uint64_t j = 0; j < 37; ++j) {
    (void)rig.gnb->step();
  }
  rig.run(radio, 600);

  EXPECT_TRUE(rig.states_seen.contains(SyncState::kResync));
  EXPECT_GE(rig.scope->sync_monitor().sync_losses(), 1u);
  EXPECT_EQ(rig.scope->state(), NrScope::State::kTracking);
}

}  // namespace
}  // namespace nrs
