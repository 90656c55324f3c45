// Resilience benchmark: detection latency and time-to-recover of the
// self-healing resynchronization path (DESIGN.md "Failure model and
// recovery") for each impairment class the fault harness can script.
// Every scenario warms a gNB + virtual radio + engine until it tracks all
// UEs, fires one impairment, and measures in slots:
//
//   detect   fault onset -> the engine entering kResync
//   recover  fault onset -> the engine back in kTracking
//
// IQ-level impairments (outage, sample gap, CFO step) ride a
// FaultSchedule inside the virtual radio; the feeder-level ones (timing
// jump, gNB restart with a new PCI, SIB1 change under the same PCI) are
// applied to the gNB side the way the fleet feeder applies them.
//
// Flags:
//   --quick   shorter post-fault horizon (CI smoke run)
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "bench/bench_util.h"

namespace nrs::bench {
namespace {

constexpr unsigned kUes = 4;
constexpr std::uint64_t kFaultSlot = 400;  ///< slots after warmup
/// Cell-restart scenarios re-attach the UE population this long after the
/// restart: subscribers trickle back over the following seconds, and the
/// delay keeps their RACH observable to the (by then re-locked) sniffer —
/// Msg2-assisted tracking has to see the attach to learn the new C-RNTIs.
constexpr std::uint64_t kReattachDelay = 300;

struct Scenario {
  std::string name;
  FaultSchedule faults;  ///< IQ-level (empty for feeder-level scenarios)
  /// Feeder-level action at kFaultSlot: 0 = none, else see run_scenario.
  enum class FeederEvent { kNone, kTimingJump, kCellRestart, kSib1Change };
  FeederEvent feeder = FeederEvent::kNone;
};

struct Outcome {
  std::uint64_t detect_slots = 0;   ///< onset -> kResync (0 = never)
  std::uint64_t recover_slots = 0;  ///< onset -> kTracking again
  bool detected = false;
  bool recovered = false;
  std::uint64_t sync_losses = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t pci_changes = 0;
  std::uint64_t post_recovery_dcis = 0;
};

NrScopeConfig make_scope_config(const CellConfig& cell) {
  NrScopeConfig cfg;
  cfg.n_prb = cell.n_prb;
  cfg.scs = cell.scs;
  cfg.rach.mode = RachTrackMode::kMsg2Assisted;
  cfg.ue_inactivity_slots = 1u << 30;
  // The blind-decode trigger dominates the SIB1-change scenario; the
  // default 2000-slot dry-spell limit would swamp the table, so the bench
  // uses a tighter (still realistic: 150 ms) verdict window.
  cfg.sync.empty_slot_limit = 300;
  cfg.sync.resync_grace_slots = 4000;
  return cfg;
}

void attach_ues(GnbSim& gnb) {
  for (unsigned i = 0; i < kUes; ++i) {
    gnb.add_ue(make_ue(i + 1, 24.0, TrafficKind::kCbr, 2e6));
  }
}

std::unique_ptr<GnbSim> make_gnb(const CellConfig& cell, std::uint64_t seed,
                                 bool with_ues = true) {
  GnbConfig gnb_cfg;
  gnb_cfg.cell = cell;
  gnb_cfg.seed = seed;
  auto gnb = std::make_unique<GnbSim>(std::move(gnb_cfg));
  if (with_ues) {
    attach_ues(*gnb);
  }
  return gnb;
}

Outcome run_scenario(const Scenario& scenario, std::uint64_t horizon) {
  CellConfig cell = amarisoft_cell();
  auto gnb = make_gnb(cell, 5);

  VirtualRadioConfig radio_cfg;
  radio_cfg.n_prb = cell.n_prb;
  radio_cfg.channel.snr_db = 28.0;
  radio_cfg.faults = scenario.faults;
  // Warmup length offsets the schedule: shift every event right once the
  // warmup length is known (below), so build the radio afterwards.

  NrScope scope(make_scope_config(cell));

  // Warm up on a clean radio until the engine tracks every UE.
  VirtualRadioConfig warm_cfg;
  warm_cfg.n_prb = cell.n_prb;
  warm_cfg.channel.snr_db = 28.0;
  VirtualRadio warm_radio(warm_cfg);
  std::uint64_t warmup = 0;
  SlotResult warm_result;
  for (; warmup < 20000; ++warmup) {
    scope.process_slot(warm_radio.capture(gnb->step()), warm_result);
    if (scope.state() == NrScope::State::kTracking &&
        scope.known_ues().size() >= kUes) {
      break;
    }
  }

  VirtualRadioConfig shifted = radio_cfg;
  for (FaultEvent& ev : shifted.faults.events) {
    ev.start_slot += kFaultSlot;  // schedule clock starts at the handover
  }
  VirtualRadio radio(shifted);

  const std::uint64_t onset = warmup + kFaultSlot;
  Outcome out;
  std::uint64_t recovered_at = 0;
  SlotResult result;
  for (std::uint64_t k = 0; k < kFaultSlot + horizon; ++k) {
    const std::uint64_t now = warmup + k;
    if (k == kFaultSlot) {
      switch (scenario.feeder) {
        case Scenario::FeederEvent::kTimingJump:
          // 37 lost slots: not a frame multiple, so the phase breaks.
          for (int j = 0; j < 37; ++j) {
            (void)gnb->step();
          }
          break;
        case Scenario::FeederEvent::kCellRestart:
          cell.pci = static_cast<std::uint16_t>((cell.pci + 7) % 1008);
          cell.coreset.shift = cell.pci;
          cell.coreset.n_id = cell.pci;
          gnb = make_gnb(cell, 6, /*with_ues=*/false);
          break;
        case Scenario::FeederEvent::kSib1Change:
          cell.coreset.interleaved = !cell.coreset.interleaved;
          gnb = make_gnb(cell, 6);
          break;
        case Scenario::FeederEvent::kNone:
          break;
      }
    }
    if (k == kFaultSlot + kReattachDelay &&
        scenario.feeder == Scenario::FeederEvent::kCellRestart) {
      attach_ues(*gnb);
    }
    scope.process_slot(radio.capture(gnb->step()), result);
    if (k < kFaultSlot) {
      continue;
    }
    if (!out.detected && result.sync_state == SyncState::kResync) {
      out.detected = true;
      out.detect_slots = now - onset + 1;
    }
    if (out.detected && !out.recovered &&
        result.sync_state == SyncState::kTracking) {
      // Recovery also has to outlive the fault window (a mid-outage
      // re-lock that collapses again does not count).
      if (!scenario.faults.any_iq_active(radio.injector().current_slot())) {
        out.recovered = true;
        out.recover_slots = now - onset + 1;
        recovered_at = now;
      }
    }
    if (out.recovered && now > recovered_at) {
      out.post_recovery_dcis += result.dcis.size();
    }
  }
  const SyncMonitor& sync = scope.sync_monitor();
  out.sync_losses = sync.sync_losses();
  out.resyncs = sync.resyncs();
  out.pci_changes = sync.pci_changes();
  return out;
}

}  // namespace
}  // namespace nrs::bench

int main(int argc, char** argv) {
  using namespace nrs;
  using namespace nrs::bench;

  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    }
  }
  // The SIB1-change verdict needs the 300-slot dry spell plus the SIB1
  // re-read, so the horizon stays comfortably above that.
  const std::uint64_t horizon = quick ? 1500 : 5000;

  std::vector<Scenario> scenarios;
  scenarios.push_back({"outage_35db",
                       {{{FaultKind::kOutage, 0, 120, 35.0}}},
                       Scenario::FeederEvent::kNone});
  // A 97% gap caps the intact slot prefix at ~0.4 OFDM symbols, so the
  // PSS correlation collapses and no PDCCH symbol survives.  Milder gaps
  // are deliberately survivable — the intact prefix often covers the
  // control symbols, decodes keep landing, and neither trigger (rightly)
  // fires; see the impairment unit tests.
  scenarios.push_back({"sample_gap_97pct",
                       {{{FaultKind::kSampleGap, 0, 400, 0.97}}},
                       Scenario::FeederEvent::kNone});
  // 22.5 kHz = 0.75 subcarrier spacings at 30 kHz SCS: enough ICI to
  // collapse the PSS correlation.  Small steps (a few hundred Hz) stay
  // within what per-symbol equalization absorbs and never trip the
  // monitor — also by design.
  scenarios.push_back({"cfo_step_22khz",
                       {{{FaultKind::kCfoStep, 0, 240, 22500.0}}},
                       Scenario::FeederEvent::kNone});
  scenarios.push_back(
      {"timing_jump_37", {}, Scenario::FeederEvent::kTimingJump});
  scenarios.push_back(
      {"cell_restart_pci", {}, Scenario::FeederEvent::kCellRestart});
  scenarios.push_back(
      {"sib1_change", {}, Scenario::FeederEvent::kSib1Change});

  print_header("resilience", "fault detection latency and time-to-recover");
  std::printf("%-18s %9s %9s %7s %8s %6s %10s\n", "impairment", "detect",
              "recover", "losses", "resyncs", "pci", "post DCIs");
  for (const Scenario& s : scenarios) {
    const Outcome o = run_scenario(s, horizon);
    const std::string detect =
        o.detected ? std::to_string(o.detect_slots) : "-";
    const std::string recover =
        o.recovered ? std::to_string(o.recover_slots) : "-";
    std::printf("%-18s %9s %9s %7llu %8llu %6llu %10llu\n", s.name.c_str(),
                detect.c_str(), recover.c_str(),
                static_cast<unsigned long long>(o.sync_losses),
                static_cast<unsigned long long>(o.resyncs),
                static_cast<unsigned long long>(o.pci_changes),
                static_cast<unsigned long long>(o.post_recovery_dcis));
  }
  std::printf("\n(detect/recover in slots from fault onset; '-' = not "
              "within the horizon)\n");
  return 0;
}
